"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (written to the real stdout so it is visible under capture).

Every tolerance below is fixed by the criterion it implements; the
Monte Carlo criteria run 100 replicates on fixed seeds.
"""

import itertools
import math
import sys

import numpy as np
import pytest

import crisscross as cc
from crisscross.identify import case_study

from conftest import complete_dataset, make_dataset, pair_loglik

TABLE1_SEED = 109
RHO_SEED = 83


def _report(criterion: str, ok: bool, detail: str):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ------------------------------------------------------------------ #
# shared experiment runs
# ------------------------------------------------------------------ #

@pytest.fixture(scope="module")
def table1_summary():
    config = cc.ExperimentConfig(sweep="sample_size",
                                 values=(500, 1000, 2000, 4000),
                                 methods=("gee_nonoptimal", "gee_optimal"),
                                 replicates=100, base_seed=TABLE1_SEED)
    return cc.run_experiment(config)


@pytest.fixture(scope="module")
def pl4000_summary():
    config = cc.ExperimentConfig(sweep="sample_size", values=(4000,),
                                 methods=("pseudolik",), replicates=100,
                                 base_seed=TABLE1_SEED)
    return cc.run_experiment(config)


@pytest.fixture(scope="module")
def rho_summary():
    config = cc.ExperimentConfig(sweep="rho", values=(0.9, -0.1), n_total=1000,
                                 replicates=100, base_seed=RHO_SEED,
                                 known={"alpha": "truth"})
    return cc.run_experiment(config)


@pytest.fixture(scope="module")
def misspec_summary():
    config = cc.ExperimentConfig(sweep="misspecification", values=(4000,),
                                 replicates=100, base_seed=TABLE1_SEED)
    return cc.run_experiment(config)


@pytest.fixture(scope="module")
def calibration_summary():
    config = cc.ExperimentConfig(sweep="sample_size", values=(1000,),
                                 methods=("pseudolik", "gee_nonoptimal"),
                                 replicates=100, base_seed=TABLE1_SEED)
    return cc.run_experiment(config)


# ------------------------------------------------------------------ #
# criteria
# ------------------------------------------------------------------ #

def test_criterion_1_conditional_derivation():
    alpha, beta, s2 = cc.derive_conditional(2, 0.4, 1, 3, 0.3)
    errs = (abs(alpha + 1.4), abs(beta - 0.9), abs(s2 - 8.19))
    _report("1", max(errs) <= 1e-12,
            f"derive_conditional -> ({alpha}, {beta}, {s2}), max err {max(errs):.2e}")


def test_criterion_2_missingness_patterns():
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               100_000, seed=42)
    freqs = cc.missingness_summary(cc.simulate_dataset(config).observed).frequencies
    expected = np.array([0.05, 0.16, 0.25, 0.54])
    dev = np.max(np.abs(freqs - expected))
    _report("2", dev <= 0.02,
            f"patterns {np.round(freqs, 4).tolist()} vs {expected.tolist()}, "
            f"max dev {dev:.4f} (tol 0.02)")


def _minimal_sets(case, theta, support, max_size):
    report = case.build(theta, support)
    return cc.sufficient_knowledge_search(report, max_size).sufficient_sets


def _pairs_with(names, members):
    return tuple(sorted(c for c in itertools.combinations(sorted(names), 2)
                        if any(m in c for m in members)))


def test_criterion_3_identifiability_golden_table():
    expectations = {
        "bivariate_normal": (2, lambda c: _pairs_with(c.param_names,
                                                      ("mu1", "mu2"))),
        "normal_inverse": (2, lambda c: ((),)),
        "bernoulli_normal": (2, lambda c: _pairs_with(c.param_names,
                                                      ("a", "eta"))),
        "poisson_normal": (1, lambda c: (("a",), ("eta_x",))),
        "exponential_normal": (1, lambda c: (("a",), ("lambda_x",))),
        "exponential_exponential": (1, lambda c: ((),)),
    }
    details = []
    all_ok = True
    for name, (max_size, expected_fn) in expectations.items():
        case = case_study(name)
        rng = np.random.default_rng(abs(hash("golden-" + name)) % 2 ** 32)
        hits = 0
        for _ in range(20):
            got = _minimal_sets(case, case.random_theta(rng),
                                case.default_support, max_size)
            if tuple(got) == tuple(expected_fn(case)):
                hits += 1
        details.append(f"{name}:{hits}/20")
        all_ok = all_ok and hits >= 18
    # the reference-point bivariate table must be the exact 7-vs-3 split
    got = _minimal_sets(case_study("bivariate_normal"),
                        {"mu1": 2.0, "mu2": 0.4, "sigma1": 1.0, "sigma2": 3.0,
                         "rho": 0.3}, None, 2)
    split_ok = (len(got) == 7 and all("mu1" in s or "mu2" in s for s in got))
    all_ok = all_ok and split_ok
    _report("3", all_ok, "agreement " + ", ".join(details)
            + f"; bivariate 7-pair split {'ok' if split_ok else 'wrong'}")


def test_criterion_4_counterexample():
    report = cc.verify_counterexample()
    worst = max(report.max_abs_discrepancy.values())
    v1, v2 = report.target_law_variances
    ok = worst < 1e-6 and abs(v1 - 1.0) < 1e-6 and abs(v2 - 1.2) < 1e-6
    _report("4", ok, f"max observed-law discrepancy {worst:.2e} (tol 1e-6); "
            f"target Y-variances ({v1:.8f}, {v2:.8f})")


def test_criterion_5_table1_replication(table1_summary):
    s = table1_summary
    bias_a = s.stat("N=4000", "gee_optimal", "alpha", "bias")
    bias_b = s.stat("N=4000", "gee_optimal", "beta", "bias")
    sd_opt = s.stat("N=4000", "gee_optimal", "beta", "sd")
    sd_non = s.stat("N=4000", "gee_nonoptimal", "beta", "sd")
    a_ok = abs(bias_a - (-0.0242)) <= 0.15
    b_ok = abs(bias_b - 0.0097) <= 0.06
    sd_ok = abs(sd_opt / 0.1795 - 1) <= 0.35 and abs(sd_non / 0.2249 - 1) <= 0.35
    order_ok = all(
        s.stat(f"N={n}", "gee_optimal", "beta", "sd")
        <= s.stat(f"N={n}", "gee_nonoptimal", "beta", "sd")
        for n in (500, 1000, 2000, 4000))
    _report("5", a_ok and b_ok and sd_ok and order_ok,
            f"(a) bias(alpha)={bias_a:+.4f} vs -0.0242 (tol 0.15), "
            f"bias(beta)={bias_b:+.4f} vs 0.0097 (tol 0.06); "
            f"(b) SD(beta) opt {sd_opt:.4f} / 0.1795, non {sd_non:.4f} / 0.2249 "
            f"(tol 35%); (c) opt<=non at every N: {order_ok}")


def test_criterion_6_pseudolik_consistency(pl4000_summary):
    s = pl4000_summary
    bias = s.stat("N=4000", "pseudolik", "theta", "bias")
    or_bias = s.stat("N=4000", "pseudolik", "or", "bias")
    ok = abs(bias) <= 0.02 and abs(or_bias) <= 0.02
    _report("6", ok, f"mean theta - 0.10989 = {bias:+.5f} (tol 0.02); "
            f"OR bias at unit contrast {or_bias:+.5f}")


def test_criterion_7_efficiency_crossover(rho_summary):
    s = rho_summary
    hi = (s.stat("rho=0.9", "gee_optimal", "beta", "sd"),
          s.stat("rho=0.9", "gee_nonoptimal", "beta", "sd"),
          s.stat("rho=0.9", "pseudolik", "theta", "sd"))
    lo = (s.stat("rho=-0.1", "gee_optimal", "beta", "sd"),
          s.stat("rho=-0.1", "gee_nonoptimal", "beta", "sd"),
          s.stat("rho=-0.1", "pseudolik", "theta", "sd"))
    hi_ok = hi[0] < hi[1] < hi[2]
    lo_ok = lo[2] < min(lo[0], lo[1])
    _report("7", hi_ok and lo_ok,
            f"rho=0.9 SDs (opt,non,pl) = {tuple(round(v, 4) for v in hi)} "
            f"ordering ok {hi_ok}; rho=-0.1 SDs = "
            f"{tuple(round(v, 4) for v in lo)} pl smallest {lo_ok}")


def test_criterion_8_misspecification(misspec_summary):
    s = misspec_summary
    ba_non = s.stat("N=4000", "gee_nonoptimal", "alpha", "bias")
    ba_opt = s.stat("N=4000", "gee_optimal", "alpha", "bias")
    bt = s.stat("N=4000", "pseudolik", "theta", "bias")
    ok = abs(ba_non) >= 0.3 and abs(ba_opt) >= 0.3 and abs(bt) <= 0.03
    _report("8", ok, f"bias(alpha) non={ba_non:+.4f}, opt={ba_opt:+.4f} "
            f"(both |.|>=0.3); pseudolik theta bias {bt:+.5f} (tol 0.03)")


def test_criterion_9_property_suite():
    checks = []
    rng = np.random.default_rng(90)

    # pairwise and groupwise gradients vs central differences
    data = complete_dataset(rng.normal(size=40), rng.normal(size=40))
    design = cc.build_pairs(data)
    ok = True
    for theta in rng.uniform(-1, 1, 8):
        h = 1e-6
        fd = (pair_loglik(design.u, design.v, theta + h)
              - pair_loglik(design.u, design.v, theta - h)) / (2 * h)
        p = cc.expit(theta * design.v)
        analytic = float(np.sum(design.v * (design.u - p)))
        ok &= abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd))
        fd3 = (cc.groupwise_loglik(data, theta + h, 3)
               - cc.groupwise_loglik(data, theta - h, 3)) / (2 * h)
        from crisscross.pseudolik import _group_deltas, _groupwise_score_hess
        xc, yc = data.complete_xy()
        _, score3, _, _ = _groupwise_score_hess(lambda: _group_deltas(xc, yc, 3),
                                                theta)
        ok &= abs(score3 - fd3) <= 1e-6 * max(1.0, abs(fd3))
    checks.append(("gradients vs FD <= 1e-6", ok))

    # groupwise g=2 equals the pairwise objective
    vals = [abs(cc.groupwise_loglik(data, t, 2)
                - pair_loglik(design.u, design.v, t)) for t in (-0.4, 0.0, 0.6)]
    checks.append(("g=2 == pairwise <= 1e-12",
                   max(vals) <= 1e-12 * abs(pair_loglik(design.u, design.v, 0.6))))

    # g=3 on n=3 equals the 3!-permutation conditional likelihood
    xs = np.array([0.3, -1.2, 2.0])
    ys = np.array([1.1, 0.4, -0.6])
    tiny = complete_dataset(xs, ys)
    s_id = float(np.sum(xs * ys))
    theta = 0.37
    denom = sum(math.exp(theta * (float(np.sum(xs[list(p)] * ys)) - s_id))
                for p in itertools.permutations(range(3)))
    checks.append(("g=3 on n=3 == brute force <= 1e-10",
                   abs(cc.groupwise_loglik(tiny, theta, 3) + math.log(denom))
                   <= 1e-10))

    # Jacobian entries vs finite differences (inverse-link normal case)
    from crisscross.families import Family, Link
    from crisscross.identify import equation_stack
    spec = cc.ExpFamilySpec(Family.NORMAL, Family.NORMAL, Link.INVERSE)
    params = cc.TargetLawParams(alpha=1.1, beta=[0.6], phi=0.9, eta_x=[0.2],
                                phi_x=1.4)
    stack = equation_stack(spec, params, (0.5, 1.0, 1.8, 2.5, 3.3))
    j = stack.jacobian(stack.theta0)
    fd_cols = []
    for jdx in range(len(stack.theta0)):
        h = 1e-6 * max(1.0, abs(stack.theta0[jdx]))
        tp, tm = stack.theta0.copy(), stack.theta0.copy()
        tp[jdx] += h
        tm[jdx] -= h
        fd_cols.append((stack.equations(tp) - stack.equations(tm)) / (2 * h))
    fd = np.column_stack(fd_cols)
    checks.append(("Jacobian vs FD <= 1e-6",
                   bool(np.allclose(j, fd, rtol=1e-6,
                                    atol=1e-7 * np.max(np.abs(j))))))

    # GEE root invariance under invertible rescaling of f
    sim = cc.simulate_dataset(cc.ScenarioConfig(cc.SECTION61_TARGET,
                                                cc.SECTION61_MECHANISM, 1200, 77))
    pi = cc.fit_propensity(sim.observed)
    model = cc.NormalLinear()
    base = cc.solve_gee(sim.observed, model, pi, cc.NonOptimalF())

    class TransformedF:
        def values(self, y, model):
            return cc.NonOptimalF().values(y, model) @ np.array(
                [[1.5, 0.2], [-0.4, 0.9]]).T

    scaled = cc.solve_gee(sim.observed, model, pi, TransformedF())
    checks.append(("GEE root invariant under invertible f rescaling",
                   np.max(np.abs(scaled.theta_hat - base.theta_hat)) <= 1e-8))

    # sandwich matrices symmetric PSD
    checks.append(("sandwich symmetric PSD",
                   bool(np.allclose(base.sandwich_cov, base.sandwich_cov.T)
                        and np.all(np.linalg.eigvalsh(base.d_hat) >= -1e-10)
                        and np.all(np.linalg.eigvalsh(base.sandwich_cov) >= -1e-10))))

    # Q-kernel symmetry and translation invariance
    kernel = cc.PairKernel(0.7)
    q_ok = all(
        cc.eval_q(kernel, (a, b), (c, d)) == cc.eval_q(kernel, (c, d), (a, b))
        and abs(cc.eval_q(kernel, (a + 3, b), (c + 3, d))
                - cc.eval_q(kernel, (a, b), (c, d))) <= 1e-12
        for a, b, c, d in rng.normal(size=(20, 4)))
    checks.append(("Q symmetry and translation invariance", q_ok))

    # complete-case gating: permuting incomplete rows is bit-identical
    x = rng.normal(size=60)
    y = 0.4 * x + rng.normal(size=60)
    rx = np.ones(60, dtype=np.int8)
    ry = np.ones(60, dtype=np.int8)
    rx[::4] = 0
    ry[1::5] = 0
    dat = make_dataset(np.where(rx == 1, x, np.nan), np.where(ry == 1, y, np.nan),
                       rx, ry)
    t0 = cc.fit_pairwise(cc.build_pairs(dat)).theta_hat
    idx = np.arange(60)
    inc = np.where(~dat.complete_mask)[0]
    idx[inc] = rng.permutation(inc)
    perm = make_dataset(dat.x[idx], dat.y[idx], dat.r_x[idx], dat.r_y[idx])
    g0 = cc.gee_residual(dat, model, cc.PropensityModel.known((50.0, 0.0)),
                         cc.NonOptimalF(), np.zeros(2))
    g1 = cc.gee_residual(perm, model, cc.PropensityModel.known((50.0, 0.0)),
                         cc.NonOptimalF(), np.zeros(2))
    checks.append(("complete-case gating bit-identical",
                   cc.fit_pairwise(cc.build_pairs(perm)).theta_hat == t0
                   and np.array_equal(g0, g1)))

    failed = [name for name, ok in checks if not ok]
    _report("9", not failed,
            f"{len(checks)} property checks" + (f"; failed: {failed}" if failed
                                                else " all hold"))


def test_criterion_10_variance_calibration(calibration_summary):
    s = calibration_summary
    r_pl = (s.stat("N=1000", "pseudolik", "theta", "mean_se")
            / s.stat("N=1000", "pseudolik", "theta", "sd"))
    r_gee = (s.stat("N=1000", "gee_nonoptimal", "beta", "mean_se")
             / s.stat("N=1000", "gee_nonoptimal", "beta", "sd"))
    ok = abs(r_pl - 1) <= 0.25 and abs(r_gee - 1) <= 0.25
    _report("10", ok, f"mean SE / MC SD: pseudolik {r_pl:.3f}, "
            f"GEE {r_gee:.3f} (tol +/-25%)")
