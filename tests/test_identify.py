import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import crisscross as cc
from crisscross.families import Family, Link
from crisscross.identify import (CASE_STUDIES, case_study, equation_stack,
                                 multinomial_support, mvn_support)

SECTION61_THETA = {"mu1": 2.0, "mu2": 0.4, "sigma1": 1.0, "sigma2": 3.0,
                   "rho": 0.3}


def minimal_sets(case, theta, support, max_size=2):
    report = case.build(theta, support)
    return cc.sufficient_knowledge_search(report, max_size).sufficient_sets


# ------------------------------------------------------------------ #
# numerical rank
# ------------------------------------------------------------------ #

def test_numerical_rank_trivial():
    assert cc.numerical_rank(np.zeros((4, 3))) == 0
    assert cc.numerical_rank(np.eye(3)) == 3


def test_numerical_rank_rejects_nonfinite():
    with pytest.raises(cc.DomainError):
        cc.numerical_rank(np.array([[np.nan, 1.0]]))


def test_bivariate_known_scales_not_identified():
    case = case_study("bivariate_normal")
    report = case.build(SECTION61_THETA, None)
    names = list(report.param_names)
    keep = [i for i, n in enumerate(names) if n not in ("sigma1", "sigma2")]
    sub = report.j_matrix[:, keep]
    assert cc.numerical_rank(sub) < 3


def test_rank_monotone_under_column_deletion():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = rng.normal(size=(rng.integers(2, 7), rng.integers(2, 7)))
        if rng.random() < 0.4:   # plant collinearity
            m[:, -1] = m[:, 0] * 2.0
        r = cc.numerical_rank(m)
        for col in range(m.shape[1]):
            r2 = cc.numerical_rank(np.delete(m, col, axis=1))
            assert r - 1 <= r2 <= r


def test_rank_invariant_under_positive_row_scaling():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.normal(size=(6, 4))
        if rng.random() < 0.5:
            m[:, 2] = m[:, 0] - m[:, 1]
        d = np.diag(rng.uniform(0.1, 10.0, size=6))
        assert cc.numerical_rank(d @ m) == cc.numerical_rank(m)


# ------------------------------------------------------------------ #
# Jacobian construction
# ------------------------------------------------------------------ #

def test_bivariate_jacobian_full_rank_at_reference_point():
    report = case_study("bivariate_normal").build(SECTION61_THETA, None)
    assert report.j_matrix.shape == (3, 5)
    assert report.numerical_rank == 3
    # first row starts with (-rho sigma2/sigma1, 1, ...)
    assert report.j_matrix[0, 0] == pytest.approx(-0.9)
    assert report.j_matrix[0, 1] == 1.0


def test_canonical_normal_phi_block_alpha_column_is_zero():
    spec = cc.ExpFamilySpec(Family.NORMAL, Family.NORMAL, Link.CANONICAL)
    params = cc.TargetLawParams(alpha=0.1, beta=[0.0], phi=1.3, eta_x=[0.4],
                                phi_x=0.8)
    report = cc.build_jacobian(spec, params, [0.0, 1.0, 2.0])
    k = report.k
    assert np.all(report.j_matrix[:k, 0] == 0.0)


def test_exponential_exponential_rank_with_exact_oracle():
    import sympy
    case = case_study("exponential_exponential")
    theta = {"a": -1.0, "b": -0.5, "lambda_x": 1.0}
    report = case.build(theta, (0.0, 1.0, 2.0, 3.0))
    exact = sympy.Matrix(6, 3, lambda i, j: sympy.nsimplify(report.j_matrix[i, j],
                                                            rational=True))
    assert report.numerical_rank == 3
    assert exact.rank() == 3
    assert report.full_rank


def test_link_singularity_is_domain_error():
    case = case_study("normal_inverse")
    theta = {"alpha": 1.0, "beta": 1.0, "phi": 1.0, "mu": 0.0, "phi_x": 1.0}
    with pytest.raises(cc.DomainError):
        case.build(theta, (-1.0, 0.5, 1.0, 2.0, 3.0))   # alpha + beta*(-1) = 0


def test_out_of_domain_predictor_names_the_first_contrasts_value():
    # every predictor a + b x is positive, outside exponential Y's domain
    case = case_study("exponential_exponential")
    with pytest.raises(cc.DomainError, match=r"linear predictor np\.float64\(0\.9\) outside"):
        case.build({"a": 1.0, "b": -0.1, "lambda_x": 1.0}, (0.0, 1.0, 2.0, 3.0))


@pytest.mark.parametrize("support", [(1e300, 1.0, 2.0, 3.0), (1e160, 1.0, 2.0, 3.0)])
def test_overflowing_jacobian_is_numerical_error(support):
    # support points whose Jacobian entries overflow the float range
    case = case_study("poisson_normal")
    theta = case.random_theta(np.random.default_rng(0))
    with pytest.raises(cc.NumericalError, match="not finite"):
        case.build(theta, support)


@pytest.mark.parametrize("case, theta", [
    ("bivariate_normal", dict(SECTION61_THETA, sigma1=1e300)),      # OverflowError
    ("bivariate_normal", dict(SECTION61_THETA, sigma1=1e-300)),     # ZeroDivisionError
    ("bivariate_normal", dict(SECTION61_THETA, sigma2=1e300)),      # OverflowError
    ("bivariate_normal", dict(SECTION61_THETA, mu1=1e308, sigma1=0.5)),   # inf entry
    ("bivariate_normal", dict(SECTION61_THETA, mu1=5.9e307)),       # inf singular value
    ("binary", {"a": 5e-324, "b": 0.5, "eta_x": 0.1}),              # inf entry
], ids=["sigma1-huge", "sigma1-tiny", "sigma2-huge", "mu1-huge", "svd-overflow",
        "a-tiny"])
def test_hand_written_jacobian_that_overflows_is_numerical_error(case, theta):
    with pytest.raises(cc.NumericalError, match="not finite"):
        case_study(case).build(theta, None)


def test_knowledge_search_stops_at_the_parameter_count(monkeypatch):
    report = case_study("binary").build({"a": 0.3, "b": 0.2, "eta_x": 0.1}, None)
    want = cc.sufficient_knowledge_search(report, 3).sufficient_sets
    sizes = []

    def combinations(names, size):
        assert size <= len(names), "searched subsets larger than the parameter set"
        sizes.append(size)
        return itertools.combinations(names, size)

    monkeypatch.setattr(cc.identify, "itertools", SimpleNamespace(combinations=combinations))
    assert cc.sufficient_knowledge_search(report, 10 ** 8).sufficient_sets == want
    assert sizes == [0, 1, 2, 3]


def test_support_points_must_be_distinct():
    case = case_study("normal_inverse")
    theta = case.random_theta(np.random.default_rng(0))
    with pytest.raises(cc.DomainError):
        case.build(theta, (0.5, 0.5, 1.0, 2.0, 3.0))


def test_report_surfaces_both_equation_counts():
    case = case_study("normal_inverse")
    theta = case.random_theta(np.random.default_rng(3))
    report = case.build(theta, case.default_support)
    assert report.n_equations == 2 * report.k == 8
    assert report.dim_theta == 5
    assert report.meets_equation_count


@pytest.mark.parametrize("name", ["normal_inverse", "bernoulli_normal",
                                  "poisson_normal", "exponential_normal",
                                  "exponential_exponential"])
def test_jacobian_matches_finite_differences(name):
    case = case_study(name)
    rng = np.random.default_rng(abs(hash(name)) % 2 ** 32)
    checked = 0
    while checked < 50:
        theta = case.random_theta(rng)
        support = case.default_support
        if name in ("poisson_normal", "exponential_normal",
                    "exponential_exponential"):
            support = tuple(sorted(rng.uniform(0.0, 4.0, size=4)))
        spec, params = _case_to_spec(name, theta)
        try:
            stack = equation_stack(spec, params, support)
        except cc.DomainError:
            continue
        j_analytic = stack.jacobian(stack.theta0)
        j_fd = _fd_jacobian(stack)
        atol = 1e-7 * np.max(np.abs(j_analytic))
        assert np.allclose(j_analytic, j_fd, rtol=1e-6, atol=atol)
        checked += 1


def _case_to_spec(name, th):
    if name == "normal_inverse":
        spec = cc.ExpFamilySpec(Family.NORMAL, Family.NORMAL, Link.INVERSE)
        params = cc.TargetLawParams(alpha=th["alpha"], beta=[th["beta"]],
                                    phi=th["phi"], eta_x=[th["mu"]],
                                    phi_x=th["phi_x"])
    elif name == "bernoulli_normal":
        spec = cc.ExpFamilySpec(Family.BERNOULLI, Family.NORMAL, Link.CANONICAL)
        params = cc.TargetLawParams(alpha=th["a"], beta=[th["b"]], phi=th["phi"],
                                    eta_x=[th["eta"]])
    elif name == "poisson_normal":
        spec = cc.ExpFamilySpec(Family.POISSON, Family.NORMAL, Link.CANONICAL)
        params = cc.TargetLawParams(alpha=th["a"], beta=[th["b"]], phi=th["phi"],
                                    eta_x=[th["eta_x"]])
    elif name == "exponential_normal":
        spec = cc.ExpFamilySpec(Family.EXPONENTIAL, Family.NORMAL, Link.CANONICAL)
        params = cc.TargetLawParams(alpha=th["a"], beta=[th["b"]], phi=th["phi"],
                                    eta_x=[-th["lambda_x"]])
    elif name == "exponential_exponential":
        spec = cc.ExpFamilySpec(Family.EXPONENTIAL, Family.EXPONENTIAL,
                                Link.CANONICAL)
        params = cc.TargetLawParams(alpha=th["a"], beta=[th["b"]], phi=1.0,
                                    eta_x=[-th["lambda_x"]])
    elif name == "multivariate_normal":
        spec = case_study(name).spec
        params = cc.TargetLawParams(alpha=th["alpha"], beta=th["beta"], phi=th["phi"],
                                    eta_x=np.zeros(len(th["mu"])), mu_x=th["mu"],
                                    sigma_x=th["sigma"])
    else:
        spec = case_study(name).spec
        params = cc.TargetLawParams(alpha=th["alpha"], beta=th["beta"], phi=th["phi"],
                                    eta_x=th["eta"])
    return spec, params


def _fd_jacobian(stack):
    theta0 = stack.theta0
    dim = len(theta0)
    base = stack.equations(theta0)
    cols = []
    for j in range(dim):
        h = 1e-6 * max(1.0, abs(theta0[j]))
        tp, tm = theta0.copy(), theta0.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((stack.equations(tp) - stack.equations(tm)) / (2 * h))
    assert base.shape == cols[0].shape
    return np.column_stack(cols)


# fixed values of both callables: the finite-difference tests only compare
# equations with jacobian, so a change that moved both together would pass them
STACK_PINS = json.loads((Path(__file__).parent / "identify_stacks.json").read_text())


@pytest.mark.parametrize("name", list(STACK_PINS))
def test_generic_stack_values_are_pinned(name):
    pin = STACK_PINS[name]
    spec, params = _case_to_spec(name, pin["theta"])
    stack = equation_stack(spec, params, pin["support"])
    assert stack.param_names == tuple(pin["param_names"])
    for got, want in ((stack.equations(stack.theta0), pin["equations"]),
                      (stack.jacobian(stack.theta0), pin["jacobian"])):
        want = np.array(want)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


NORMAL_SPEC = cc.ExpFamilySpec(Family.NORMAL, Family.NORMAL, Link.CANONICAL)
NORMAL_PARAMS = cc.TargetLawParams(alpha=0.1, beta=[0.5], phi=1.3, eta_x=[0.4])


@pytest.mark.parametrize("support", [
    [[0.0], [1.0, 2.0]], [0.0, "a", 2.0], [0.0, float("nan"), 2.0],
    [0.0, float("inf")], [0.0, 10 ** 400], [[0.0, 1.0], [1.0, 2.0]], [[[0.0]], [[1.0]]],
], ids=["ragged", "string", "nan", "inf", "huge-int", "too-wide", "three-axes"])
def test_support_points_must_be_finite_vectors_of_betas_length(support):
    with pytest.raises(cc.DomainError,
                       match="support points must be finite vectors of length 1"):
        cc.build_jacobian(NORMAL_SPEC, NORMAL_PARAMS, support)


def test_x_parameters_must_have_the_supports_width():
    mvn = cc.TargetLawParams(alpha=0.3, beta=[0.8, -0.5], phi=1.2, eta_x=np.zeros(2),
                             mu_x=[0.1, -0.4, 0.2], sigma_x=np.eye(3))
    with pytest.raises(cc.DomainError, match="multivariate_normal X has width 3, "
                                             "but the support points have width 2"):
        cc.build_jacobian(case_study("multivariate_normal").spec, mvn,
                          mvn_support(np.random.default_rng(0)))
    multinomial = cc.TargetLawParams(alpha=0.3, beta=[0.5, -0.7, 1.1], phi=1.2,
                                     eta_x=[0.2, -0.3, 0.4, 0.1])
    with pytest.raises(cc.DomainError, match="multinomial X has width 4"):
        cc.build_jacobian(case_study("multinomial").spec, multinomial,
                          multinomial_support())
    poisson = cc.TargetLawParams(alpha=0.3, beta=[0.5, -0.7], phi=1.2, eta_x=[0.2])
    with pytest.raises(cc.DomainError, match="poisson X has width 1"):
        cc.build_jacobian(case_study("poisson_normal").spec, poisson,
                          [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])


def test_multivariate_jacobian_matches_finite_differences():
    rng = np.random.default_rng(8)
    spec = cc.ExpFamilySpec(Family.MULTIVARIATE_NORMAL, Family.NORMAL,
                            Link.CANONICAL)
    params = cc.TargetLawParams(alpha=0.3, beta=rng.normal(size=2), phi=1.2,
                                eta_x=np.zeros(2), mu_x=rng.normal(size=2),
                                sigma_x=np.array([[1.0, 0.3], [0.3, 1.5]]))
    stack = equation_stack(spec, params, mvn_support(rng))
    j = stack.jacobian(stack.theta0)
    assert np.allclose(j, _fd_jacobian(stack), rtol=1e-6,
                       atol=1e-7 * np.max(np.abs(j)))


def test_multinomial_jacobian_matches_finite_differences():
    rng = np.random.default_rng(9)
    spec = cc.ExpFamilySpec(Family.MULTINOMIAL, Family.NORMAL, Link.CANONICAL)
    params = cc.TargetLawParams(alpha=0.3, beta=rng.normal(size=3), phi=1.2,
                                eta_x=rng.normal(size=3))
    stack = equation_stack(spec, params, multinomial_support())
    j = stack.jacobian(stack.theta0)
    assert np.allclose(j, _fd_jacobian(stack), rtol=1e-6,
                       atol=1e-7 * np.max(np.abs(j)))


# ------------------------------------------------------------------ #
# sufficient knowledge sets: the case-table verdicts
# ------------------------------------------------------------------ #

def _agreement(case_name, expected_fn, n_points=20, max_size=2, support=None):
    case = case_study(case_name)
    rng = np.random.default_rng(abs(hash(case_name)) % 2 ** 32)
    hits = 0
    for _ in range(n_points):
        theta = case.random_theta(rng)
        got = minimal_sets(case, theta, support or case.default_support, max_size)
        if tuple(got) == tuple(expected_fn(case)):
            hits += 1
    return hits


def _pairs_with(names, members):
    return tuple(sorted(c for c in itertools.combinations(sorted(names), 2)
                        if any(m in c for m in members)))


def test_bivariate_pair_table():
    expected = lambda case: _pairs_with(case.param_names, ("mu1", "mu2"))
    assert _agreement("bivariate_normal", expected) >= 18
    got = minimal_sets(case_study("bivariate_normal"), SECTION61_THETA, None)
    assert len(got) == 7
    assert all(("mu1" in s or "mu2" in s) for s in got)
    for bad in (("sigma1", "sigma2"), ("rho", "sigma1"), ("rho", "sigma2")):
        assert tuple(sorted(bad)) not in got


def test_normal_inverse_identified_without_knowledge():
    assert _agreement("normal_inverse", lambda case: ((),)) >= 18


def test_binary_singletons():
    expected = lambda case: (("a",), ("b",), ("eta_x",))
    assert _agreement("binary", expected) >= 18


def test_bernoulli_normal_pairs():
    expected = lambda case: _pairs_with(case.param_names, ("a", "eta"))
    assert _agreement("bernoulli_normal", expected) >= 18
    got = minimal_sets(case_study("bernoulli_normal"),
                       {"a": 0.5, "b": 1.0, "phi": 1.0, "eta": 0.2}, (0.0, 1.0))
    assert ("a", "b") in got
    assert ("b", "phi") not in got


def test_poisson_and_exponential_normal_singletons():
    assert _agreement("poisson_normal", lambda c: (("a",), ("eta_x",))) >= 18
    assert _agreement("exponential_normal", lambda c: (("a",), ("lambda_x",))) >= 18


def test_exponential_exponential_no_knowledge_needed():
    assert _agreement("exponential_exponential", lambda c: ((),)) >= 18


def test_multivariate_normal_alpha_is_sufficient():
    case = case_study("multivariate_normal")
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(20):
        got = minimal_sets(case, case.random_theta(rng), mvn_support(rng),
                           max_size=1)
        if ("alpha",) in got:
            hits += 1
    assert hits >= 18


def test_multinomial_alpha_plus_one_more():
    # the count vectors sum to the trial number, which ties the alpha and
    # beta columns together; knowledge sets therefore come in pairs
    case = case_study("multinomial")
    rng = np.random.default_rng(32)
    hits = 0
    for _ in range(20):
        got = minimal_sets(case, case.random_theta(rng), multinomial_support(),
                           max_size=2)
        if got and all(len(s) == 2 for s in got) and ("alpha", "eta_1") in got:
            hits += 1
    assert hits >= 18


def test_every_reported_set_restores_full_rank():
    case = case_study("bivariate_normal")
    report = case.build(SECTION61_THETA, None)
    report = cc.sufficient_knowledge_search(report, 2)
    names = list(report.param_names)
    for s in report.sufficient_sets:
        keep = [i for i, n in enumerate(names) if n not in s]
        sub = report.j_matrix[:, keep]
        assert cc.numerical_rank(sub) == sub.shape[1]


# ------------------------------------------------------------------ #
# full-law verdicts
# ------------------------------------------------------------------ #

def test_full_law_verdicts():
    yes = ("bivariate_normal", "binary", "bernoulli_normal", "poisson_normal",
           "exponential_normal", "multivariate_normal", "multinomial")
    for name in yes:
        v = cc.full_law_verdict(case_study(name).spec)
        assert v.exp_family_conditional and v.completeness_holds == "yes"
    for name in ("normal_inverse", "exponential_exponential"):
        v = cc.full_law_verdict(case_study(name).spec)
        assert not v.exp_family_conditional and v.completeness_holds == "unknown"


def test_full_law_verdict_from_spec():
    v = cc.full_law_verdict(cc.ExpFamilySpec(Family.NORMAL, Family.NORMAL,
                                             Link.INVERSE))
    assert (v.exp_family_conditional, v.completeness_holds) == (False, "unknown")
    with pytest.raises(cc.ConfigError):
        cc.full_law_verdict(cc.ExpFamilySpec(Family.POISSON, Family.BERNOULLI,
                                             Link.CANONICAL))


def test_verdict_consistency_enforced():
    with pytest.raises(cc.DomainError):
        cc.FullLawVerdict(exp_family_conditional=True, completeness_holds="unknown")


def test_case_registry_lists_all_configurations():
    assert set(CASE_STUDIES) == {
        "bivariate_normal", "normal_inverse", "binary", "bernoulli_normal",
        "poisson_normal", "exponential_normal", "exponential_exponential",
        "multivariate_normal", "multinomial",
    }
    with pytest.raises(cc.ConfigError):
        case_study("no_such_case")
