import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crisscross as cc
from crisscross.families import Family, Link, family_table, link_table


def test_eval_q_reference_scenario():
    # theta = 0.9 / 8.19 at unit pair contrast
    kernel = cc.PairKernel(0.9 / 8.19)
    q = cc.eval_q(kernel, (1.0, 1.0), (0.0, 0.0))
    assert q == pytest.approx(math.exp(-0.9 / 8.19), rel=1e-12)
    assert q == pytest.approx(0.8960, abs=1e-4)
    # Q is the inverse odds ratio
    assert q * math.exp((0.9 / 8.19) * 1.0) == pytest.approx(1.0, abs=1e-15)


def test_eval_q_trivial_cases():
    assert cc.eval_q(cc.PairKernel(3.7), (2.0, 1.0), (2.0, 5.0)) == 1.0
    assert cc.eval_q(cc.PairKernel(0.0), (2.0, 1.0), (-1.0, 5.0)) == 1.0


def test_eval_q_rejects_nonfinite():
    with pytest.raises(cc.DomainError):
        cc.eval_q(cc.PairKernel(1.0), (math.inf, 0.0), (0.0, 0.0))


@given(theta=st.floats(-3, 3), xi=st.floats(-5, 5), yi=st.floats(-5, 5),
       xk=st.floats(-5, 5), yk=st.floats(-5, 5))
def test_q_symmetry_and_inverse_or(theta, xi, yi, xk, yk):
    kernel = cc.PairKernel(theta)
    q = cc.eval_q(kernel, (xi, yi), (xk, yk))
    assert q > 0
    assert q == cc.eval_q(kernel, (xk, yk), (xi, yi))
    assert q * math.exp(theta * (xi - xk) * (yi - yk)) == pytest.approx(1.0, rel=1e-9)


def test_derive_conditional_reference_values():
    alpha, beta, s2 = cc.derive_conditional(2, 0.4, 1, 3, 0.3)
    assert abs(alpha - (-1.4)) <= 1e-12
    assert abs(beta - 0.9) <= 1e-12
    assert abs(s2 - 8.19) <= 1e-12


def test_derive_conditional_independence_and_textbook():
    assert cc.derive_conditional(2, 0.4, 1, 3, 0.0) == pytest.approx((0.4, 0.0, 9.0))
    assert cc.derive_conditional(0, 0, 1, 1, 0.5) == pytest.approx((0.0, 0.5, 0.75))


def test_derive_conditional_monte_carlo_regression():
    # regress simulated X on Y and recover the conditional coefficients
    rng = np.random.default_rng(5)
    n = 1_000_000
    y = rng.normal(0.0, 1.0, n)
    x = 0.5 * y + rng.normal(0.0, math.sqrt(0.75), n)
    beta_hat = np.cov(x, y)[0, 1] / np.var(y)
    assert beta_hat == pytest.approx(0.5, abs=0.005)


def test_derive_conditional_domain_errors():
    with pytest.raises(cc.DomainError):
        cc.derive_conditional(0, 0, -1, 1, 0.2)
    with pytest.raises(cc.DomainError):
        cc.derive_conditional(0, 0, 1, 1, 1.0)
    # non-finite inputs, and finite ones whose conditional law overflows
    for args in ((0, 0, math.inf, 1, 0.2), (math.nan, 0, 1, 1, 0.2),
                 (0, 0, 1, 1e300, 0.2), (0, 0, 5e-324, 1, 0.2)):
        with pytest.raises(cc.DomainError):
            cc.derive_conditional(*args)


@given(mu1=st.floats(-3, 3), mu2=st.floats(-3, 3),
       s1=st.floats(0.2, 4), s2=st.floats(0.2, 4), rho=st.floats(-0.95, 0.95))
def test_conditional_variance_decomposition(mu1, mu2, s1, s2, rho):
    _, beta, s2cond = cc.derive_conditional(mu1, mu2, s1, s2, rho)
    assert beta ** 2 * s1 ** 2 + s2cond == pytest.approx(s2 ** 2, rel=1e-12)


def test_or_from_theta_examples():
    point, se = cc.or_from_theta(0.10989, 0.0, 1.0)
    assert round(point, 4) == 1.1162
    assert se == 0.0
    point, se = cc.or_from_theta(0.0, 0.3, 2.0)
    assert point == 1.0
    assert se == pytest.approx(0.3 * 2.0)
    point, se = cc.or_from_theta(0.5, 0.2, 2.0)
    assert point == pytest.approx(math.e)
    assert se == pytest.approx(2 * math.e * 0.2)


def test_or_from_theta_rejects_negative_se():
    with pytest.raises(cc.DomainError):
        cc.or_from_theta(0.1, -1.0, 1.0)


@pytest.mark.parametrize("theta, se", [(800.0, 0.0), (1.0, math.inf),
                                       (math.nan, 0.0), (0.1, math.nan)])
def test_or_from_theta_rejects_non_finite_results(theta, se):
    with pytest.raises(cc.NumericalError, match="not finite"):
        cc.or_from_theta(theta, se)


# ------------------------------------------------------------------ #
# exponential-family function tables
# ------------------------------------------------------------------ #

_INTERIOR = {
    (Family.NORMAL, Link.CANONICAL): (-3.0, 3.0),
    (Family.BERNOULLI, Link.CANONICAL): (-3.0, 3.0),
    (Family.POISSON, Link.CANONICAL): (-2.0, 2.0),
    (Family.EXPONENTIAL, Link.CANONICAL): (-4.0, -0.3),
    (Family.NORMAL, Link.INVERSE): (0.4, 4.0),
    (Family.BERNOULLI, Link.INVERSE): (1.5, 8.0),
    (Family.POISSON, Link.INVERSE): (0.4, 4.0),
    (Family.EXPONENTIAL, Link.INVERSE): (0.4, 4.0),
}


def _central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("family,link", sorted(_INTERIOR, key=str))
def test_function_tables_match_finite_differences(family, link):
    lo, hi = _INTERIOR[(family, link)]
    table = link_table(family, link)
    fam = family_table(family)
    rng = np.random.default_rng(hash((family, link)) % 2 ** 32)
    m = rng.uniform(lo, hi, 100)
    h = 1e-6 * np.maximum(1.0, np.abs(m))
    fd_phi = _central_diff(table.phi, m, h)
    fd_zeta = _central_diff(table.zeta, m, h)
    assert np.allclose(table.phi_prime(m), fd_phi, rtol=1e-6, atol=1e-9)
    assert np.allclose(table.zeta_prime(m), fd_zeta, rtol=1e-6, atol=1e-9)
    # b' is the mean function
    eta = table.phi(m)
    fd_b = _central_diff(fam.b, eta, 1e-6 * np.maximum(1.0, np.abs(eta)))
    assert np.allclose(fam.b_prime(eta), fd_b, rtol=1e-6, atol=1e-9)


def test_canonical_link_is_identity():
    for family in (Family.NORMAL, Family.BERNOULLI, Family.POISSON,
                   Family.EXPONENTIAL):
        table = link_table(family, Link.CANONICAL)
        m = np.array([-0.7, -0.3]) if family is Family.EXPONENTIAL \
            else np.array([-0.7, 0.3])
        assert np.allclose(table.phi(m), m)


def test_dispersion_validation():
    with pytest.raises(cc.DomainError):
        cc.TargetLawParams(alpha=0.0, beta=[1.0], phi=-1.0, eta_x=[0.0])
    with pytest.raises(cc.DomainError):
        cc.TargetLawParams(alpha=0.0, beta=[1.0], phi=1.0, eta_x=[0.0], phi_x=0.0)


def test_mechanism_validation_and_reduction():
    with pytest.raises(cc.DomainError):
        cc.MissingnessMechanism((0.1,), (0.0, 0.0, 0.0))
    with pytest.raises(cc.DomainError):
        cc.MissingnessMechanism((0.1, math.nan), (0.0, 0.0, 0.0))
    quad = cc.MissingnessMechanism((-0.5, 1.0, 0.0), (2.0, -1.0, 0.7, 0.0))
    lin = cc.MissingnessMechanism((-0.5, 1.0), (2.0, -1.0, 0.7))
    y = np.linspace(-3, 3, 11)
    x = np.linspace(-5, 5, 11)
    assert np.array_equal(quad.p_rx(y), lin.p_rx(y))
    assert np.array_equal(quad.p_ry(x, 1), lin.p_ry(x, 1))
    probs = np.concatenate([lin.p_rx(y), lin.p_ry(x, 0), lin.p_ry(x, 1)])
    assert np.all((probs > 0) & (probs < 1))


def test_dataset_coarsening_enforced():
    with pytest.raises(cc.DataError):
        cc.ObservedDataset(np.array([1.0]), np.array([np.nan]),
                           np.array([1]), np.array([1]))
    with pytest.raises(cc.DataError):
        cc.ObservedDataset(np.array([np.nan]), np.array([2.0]),
                           np.array([1]), np.array([1]))


def test_dataset_present_values_must_be_finite():
    # rejected here, naming the data, not later as a fit that cannot converge
    for x, y in ((np.inf, 1.0), (1.0, -np.inf)):
        with pytest.raises(cc.DataError, match="present values must be finite"):
            cc.ObservedDataset(np.array([x, 0.5]), np.array([y, 2.0]),
                               np.array([1, 1]), np.array([1, 1]))


def test_newton_keeps_iterating_while_a_step_is_pending(monkeypatch):
    # merit -(5 - t)^2 / 2 scaled by 1e-12: its score 1e-12 (5 - t) passes
    # the score test everywhere near its maximizer t = 5
    from crisscross.model import newton
    calls = []

    def evaluate(t):
        calls.append(t)
        return -0.5e-12 * (5.0 - t) ** 2, 1e-12 * (5.0 - t), -1e-12
    theta, it, _ = newton(evaluate, 0.0, 1, 1e-8, "test")
    assert it == 2 and calls == [0.0, theta]
    assert theta == pytest.approx(5.0, rel=1e-15)
    # capped at one iteration, the fit stops with its step to t = 5 taken
    # but not yet checked
    monkeypatch.setattr(cc.model, "NEWTON_MAX_ITER", 1)
    with pytest.raises(cc.NumericalError,
                       match=r"^test did not converge \(theta = 5 after 1 iterations\)$"):
        newton(evaluate, 0.0, 1, 1e-8, "test")


def _expit_masked(t):
    """Inverse logit by boolean masks, 1 / (1 + e^-t) where t >= 0 and
    e^t / (1 + e^t) elsewhere (oracle)."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


EXPIT_SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308,
     -2.2e-308, 709.78, -709.78, 745.13, -745.13, 1e308, -1e308]
    + list(np.array([0x7FF8000000000001, 0xFFF8000000000002],
                    dtype=np.uint64).view(float)))     # NaNs with payloads


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-10, 1e-3, 1.0, 30.0, 1e3, 1e5])
@pytest.mark.parametrize("n", [1, 7, 100_003])
def test_expit_is_bitwise_the_masked_formula(scale, n):
    t = np.random.default_rng(n).standard_normal(n) * scale
    t = np.concatenate([t, EXPIT_SPECIAL]) if n == 7 else t
    assert cc.expit(t).tobytes() == _expit_masked(t).tobytes()


def test_expit_keeps_the_masked_formula_on_special_values():
    assert cc.expit(EXPIT_SPECIAL).tobytes() == _expit_masked(EXPIT_SPECIAL).tobytes()
    for t in (0.3, -0.0, -745.13, np.float64(2.0), np.array(-1.0)):
        value = cc.expit(t)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(_expit_masked(t)).tobytes()
