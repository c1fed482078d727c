import math

import numpy as np
import pytest

import crisscross as cc

from conftest import complete_dataset, make_dataset

PI_ONE = cc.PropensityModel.known((50.0, 0.0))   # expit(50) == 1.0 in floats


def _ols(x, y):
    X = np.column_stack([np.ones(len(y)), y])
    coef, *_ = np.linalg.lstsq(X, x, rcond=None)
    return X, coef


# ------------------------------------------------------------------ #
# propensity
# ------------------------------------------------------------------ #

def test_fit_propensity_recovers_mechanism():
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               100_000, seed=21)
    data = cc.simulate_dataset(config).observed
    model = cc.fit_propensity(data)
    assert model.converged and not model.separation_flag
    assert model.coefficients[0] == pytest.approx(1.0, abs=0.05)
    assert model.coefficients[1] == pytest.approx(0.7, abs=0.05)


def test_fit_propensity_separation_flag():
    # r_y = 1 on every r_x = 1 row: the intercept runs off to +inf
    data = make_dataset([0.1, 0.9, 1.4], [1.0, 2.0, 3.0], [1, 1, 1], [1, 1, 1])
    with pytest.raises(cc.SeparationError, match="r_y is 1") as exc:
        cc.fit_propensity(data)
    assert exc.value.direction == 1
    # and r_y = 0 on all of them, to -inf
    data = make_dataset([0.1, 0.9, np.nan], [np.nan, np.nan, 3.0], [1, 1, 0], [0, 0, 1])
    with pytest.raises(cc.SeparationError, match="r_y is 0") as exc:
        cc.fit_propensity(data)
    assert exc.value.direction == -1


def test_fit_propensity_constant_x_saturated_null():
    rng = np.random.default_rng(3)
    ry = (rng.random(500) < 0.73).astype(np.int8)
    y = np.where(ry == 1, rng.normal(size=500), np.nan)
    data = make_dataset(np.full(500, 2.5), y, np.ones(500, dtype=np.int8), ry)
    model = cc.fit_propensity(data)
    rate = ry.mean()
    assert model.coefficients[0] == pytest.approx(math.log(rate / (1 - rate)))
    assert model.coefficients[1] == 0.0


def test_fit_propensity_needs_rx_rows():
    with pytest.raises(cc.DataError):
        cc.fit_propensity(make_dataset([np.nan], [1.0], [0], [1]))


# ------------------------------------------------------------------ #
# residual and solver
# ------------------------------------------------------------------ #

def test_residual_vanishes_at_ols_when_fully_observed():
    rng = np.random.default_rng(5)
    y = rng.normal(2, 1, 400)
    x = -1.4 + 0.9 * y + rng.normal(0, 2.8, 400)
    data = complete_dataset(x, y)
    _, coef = _ols(x, y)
    resid = cc.gee_residual(data, cc.NormalLinear(), PI_ONE, cc.NonOptimalF(), coef)
    assert np.linalg.norm(resid) < 1e-10


def test_residual_small_at_truth_with_true_propensity(section61_large):
    data = section61_large.observed
    pi_true = cc.PropensityModel.known((1.0, 0.7))   # mechanism at r_x = 1
    resid = cc.gee_residual(data, cc.NormalLinear(), pi_true, cc.NonOptimalF(),
                            np.array([-1.4, 0.9]))
    assert np.linalg.norm(resid) <= 0.01


def test_residual_requires_complete_cases():
    data = make_dataset([np.nan, 1.0], [2.0, np.nan], [0, 1], [1, 0])
    with pytest.raises(cc.DataError):
        cc.gee_residual(data, cc.NormalLinear(), PI_ONE, cc.NonOptimalF(),
                        np.zeros(2))


def test_propensity_floor_identifies_record():
    data = complete_dataset([-2.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    low = cc.PropensityModel.known((-5.0, 5.0))   # pi(-2) = expit(-15) tiny
    with pytest.raises(cc.NumericalError) as exc:
        cc.gee_residual(data, cc.NormalLinear(), low, cc.NonOptimalF(), np.zeros(2))
    assert "record 0" in str(exc.value)


def test_solve_matches_closed_form_least_squares():
    rng = np.random.default_rng(6)
    y = rng.normal(2, 1, 300)
    x = -1.4 + 0.9 * y + rng.normal(0, 2.8, 300)
    data = complete_dataset(x, y)
    res = cc.solve_gee(data, cc.NormalLinear(), PI_ONE, cc.NonOptimalF())
    _, coef = _ols(x, y)
    assert np.max(np.abs(res.theta_hat - coef)) < 1e-10


def test_solve_toy_dataset_matches_grid_oracle():
    data = complete_dataset([0.4, 1.1, -0.3], [1.0, 2.0, 0.5])
    pi = cc.PropensityModel.known((0.5, 0.3))
    # alpha fixed, single unknown beta: grid search on the residual norm
    model = cc.NormalLinear(known={"alpha": 0.1})
    r = [abs(cc.gee_residual(data, model, pi, cc.NonOptimalF(), [b])[0])
         for b in np.arange(-2.0, 2.0, 1e-3)]
    coarse = np.arange(-2.0, 2.0, 1e-3)[int(np.argmin(r))]
    res = cc.solve_gee(data, model, pi, cc.NonOptimalF())
    assert abs(res.theta_hat[0] - coarse) <= 1e-3
    assert np.linalg.norm(
        cc.gee_residual(data, model, pi, cc.NonOptimalF(), res.theta_hat)) < 1e-12


def test_complete_case_gating_bit_identical():
    rng = np.random.default_rng(8)
    y = rng.normal(2, 1, 120)
    x = -1.4 + 0.9 * y + rng.normal(0, 2.8, 120)
    rx = np.ones(120, dtype=np.int8)
    ry = np.ones(120, dtype=np.int8)
    rx[::5] = 0
    ry[1::7] = 0
    data = make_dataset(np.where(rx == 1, x, np.nan), np.where(ry == 1, y, np.nan),
                        rx, ry)
    base = cc.solve_gee(data, cc.NormalLinear(), PI_ONE, cc.NonOptimalF())
    idx = np.arange(120)
    inc = np.where(~data.complete_mask)[0]
    idx[inc] = rng.permutation(inc)
    perm = make_dataset(data.x[idx], data.y[idx], data.r_x[idx], data.r_y[idx])
    res = cc.solve_gee(perm, cc.NormalLinear(), PI_ONE, cc.NonOptimalF())
    assert np.array_equal(res.theta_hat, base.theta_hat)


def test_root_invariant_under_invertible_rescaling_of_f():
    class TransformedF:
        def __init__(self, matrix, inner):
            self.matrix = matrix
            self.inner = inner

        def values(self, y, model):
            return self.inner.values(y, model) @ self.matrix.T

    rng = np.random.default_rng(9)
    sim = cc.simulate_dataset(cc.ScenarioConfig(cc.SECTION61_TARGET,
                                                cc.SECTION61_MECHANISM, 1500, 31))
    data = sim.observed
    pi = cc.fit_propensity(data)
    model = cc.NormalLinear()
    base = cc.solve_gee(data, model, pi, cc.NonOptimalF())
    M = np.array([[2.0, -0.7], [0.3, 1.1]])
    res = cc.solve_gee(data, model, pi, TransformedF(M, cc.NonOptimalF()))
    assert np.max(np.abs(res.theta_hat - base.theta_hat)) < 1e-8


def test_f_of_other_width_than_theta_rejected():
    class QuadraticF:
        def values(self, y, model):
            return np.column_stack([np.ones_like(y), y, y ** 2])

    y = np.random.default_rng(10).normal(2, 1, 500)
    args = (complete_dataset(-1.4 + 0.9 * y, y), cc.NormalLinear(), PI_ONE, QuadraticF())
    for run in (lambda: cc.solve_gee(*args),
                lambda: cc.gee_residual(*args, np.zeros(2)),
                lambda: cc.sandwich_gee(*args, np.zeros(2))):
        with pytest.raises(cc.DomainError, match=r"dim\(theta\)"):
            run()


# ------------------------------------------------------------------ #
# optimal weight
# ------------------------------------------------------------------ #

def test_optimal_weight_constant_inner_expectation_matches_nonoptimal_root():
    rng = np.random.default_rng(11)
    y = rng.normal(2, 1, 800)
    x = -1.4 + 0.9 * y + rng.normal(0, 2.8, 800)
    data = complete_dataset(x, y)
    model = cc.NormalLinear(sigma2=8.19)
    base = cc.solve_gee(data, model, PI_ONE, cc.NonOptimalF())
    fopt = cc.optimal_f(PI_ONE, base.theta_hat)
    vals = fopt.values(y[:50], model)
    plain = cc.NonOptimalF().values(y[:50], model)
    # with pi = 1 the inner expectation is the constant sigma^2
    assert np.allclose(vals * 8.19, plain, rtol=1e-6)
    res = cc.solve_gee(data, model, PI_ONE, fopt)
    assert np.max(np.abs(res.theta_hat - base.theta_hat)) < 1e-8


def test_optimal_weight_binary_two_point_sum_matches_enumeration():
    model = cc.Binary2x2(0.25)
    theta = np.array([0.3, 0.6])         # p(X = 2 | Y = 1), p(X = 2 | Y = 2)
    fopt = cc.OptimalF(pi_model=PI_ONE, theta_pilot=theta)
    y = np.array([1.0, 2.0])
    vals = fopt.values(y, model)
    for row, p2 in enumerate(theta):
        h = 1.0 + p2
        inner = (1.0 - p2) * (1.0 - h) ** 2 + p2 * (2.0 - h) ** 2
        expected = np.eye(2)[row] / inner
        assert np.allclose(vals[row], expected, rtol=1e-10)


def test_optimal_weight_requires_sigma2():
    data = complete_dataset([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    fopt = cc.optimal_f(PI_ONE, np.zeros(2))
    with pytest.raises(cc.DomainError):
        fopt.values(np.array([1.0]), cc.NormalLinear())


@pytest.mark.parametrize("c0", [-800.0, -708.0])
def test_optimal_weight_rejects_an_underflowing_propensity(c0):
    # pi = expit(c0) at every node: 0 at -800, and at -708 so small that
    # (x - h)^2 / pi overflows
    fopt = cc.optimal_f(cc.PropensityModel.known((c0, 0.0)), np.zeros(2))
    with pytest.raises(cc.NumericalError, match="underflows"):
        fopt.values(np.array([0.0, 1.0]), cc.NormalLinear(sigma2=8.19))


PI_SLOPED = cc.PropensityModel.known((0.5, -0.3))


@pytest.mark.parametrize("model, theta, y", [
    (cc.NormalLinear(sigma2=8.19), [-1.4, 0.9], np.random.default_rng(3).normal(2, 1, 100)),
    (cc.Binary2x2(0.25), [0.3, 0.6], np.random.default_rng(4).integers(1, 3, 100) * 1.0),
])
def test_optimal_weight_does_not_depend_on_the_block_size(model, theta, y, monkeypatch):
    fopt = cc.optimal_f(PI_SLOPED, theta)
    monkeypatch.setattr(cc.gee, "_QUAD_ROWS", len(y))
    one_block = fopt.values(y, model)
    monkeypatch.setattr(cc.gee, "_QUAD_ROWS", 7)
    assert np.array_equal(fopt.values(y, model), one_block)


def test_optimal_weight_underflow_in_the_last_block_raises(monkeypatch):
    # pi = expit(5 x): the nodes of y = -200 lie near x = -200, where pi
    # is 0 in floats; those of y = 0 lie within 15 of 0
    monkeypatch.setattr(cc.gee, "_QUAD_ROWS", 7)
    fopt = cc.optimal_f(cc.PropensityModel.known((0.0, 5.0)), [0.0, 1.0])
    model = cc.NormalLinear(sigma2=1.0)
    y = np.zeros(20)
    assert np.all(np.isfinite(fopt.values(y, model)))
    y[-1] = -200.0
    with pytest.raises(cc.NumericalError, match="underflows"):
        fopt.values(y, model)


def test_optimal_weight_memory_is_bounded_by_a_block():
    import tracemalloc
    y = np.random.default_rng(5).normal(2, 1, 50_000)
    fopt = cc.optimal_f(PI_SLOPED, [-1.4, 0.9])
    tracemalloc.start()
    try:
        fopt.values(y, cc.NormalLinear(sigma2=8.19))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the weights and the inner expectations are 1.2 MB; one (50000, 64)
    # array of nodes would be 24 MB
    assert peak < 8 * 2 ** 20


# ------------------------------------------------------------------ #
# sandwich
# ------------------------------------------------------------------ #

def test_sandwich_equals_classical_heteroskedastic_ols():
    rng = np.random.default_rng(12)
    y = rng.normal(2, 1, 600)
    x = -1.4 + 0.9 * y + rng.normal(0, 2.8, 600) * (1 + 0.2 * np.abs(y))
    data = complete_dataset(x, y)
    res = cc.solve_gee(data, cc.NormalLinear(), PI_ONE, cc.NonOptimalF())
    X, coef = _ols(x, y)
    e = x - X @ coef
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (X.T @ (X * (e ** 2)[:, None])) @ bread
    assert np.allclose(res.sandwich_cov / len(y), hc0, rtol=1e-8)


def test_sandwich_rejects_a_zero_variance():
    # x = 0 is fitted exactly at the starting point, so every residual is 0
    y = np.array([0.0, 1.0, 2.0, 3.0])
    data = complete_dataset(np.zeros(4), y)
    with pytest.raises(cc.NumericalError, match="positive and finite"):
        cc.sandwich_gee(data, cc.NormalLinear(), PI_ONE, cc.NonOptimalF(), np.zeros(2))
    res = cc.solve_gee(data, cc.NormalLinear(), PI_ONE, cc.NonOptimalF())
    assert res.sandwich_cov is None
    with pytest.raises(cc.NumericalError):
        res.se()


def test_sandwich_matrices_are_psd(section61_small):
    data = section61_small.observed
    pi = cc.fit_propensity(data)
    res = cc.solve_gee(data, cc.NormalLinear(), pi, cc.NonOptimalF())
    assert np.all(np.linalg.eigvalsh(res.d_hat) >= -1e-10)
    assert np.all(np.linalg.eigvalsh(res.sandwich_cov) >= -1e-10)
    assert np.allclose(res.sandwich_cov, res.sandwich_cov.T)
    assert np.all(np.isfinite(res.c_hat))


class SquareF:
    """A caller's own weight f(y) = (1, y^2), for which C is not symmetric."""

    def values(self, y, model):
        return np.column_stack([np.ones_like(y), y ** 2])


def test_sandwich_matches_a_finite_difference_jacobian():
    # Var(theta_hat) = J^{-1} D J^{-T} / N with J the residual's Jacobian;
    # the residual is linear in theta, so central differences give J
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               4000, seed=3)
    data = cc.simulate_dataset(config).observed
    pi = cc.fit_propensity(data)
    model = cc.NormalLinear()
    res = cc.solve_gee(data, model, pi, SquareF())
    jac = np.column_stack([
        (cc.gee_residual(data, model, pi, SquareF(), res.theta_hat + step)
         - cc.gee_residual(data, model, pi, SquareF(), res.theta_hat - step)) / 2e-5
        for step in 1e-5 * np.eye(2)])
    x, y = data.complete_xy()
    terms = SquareF().values(y, model) * ((x - model.h(y, res.theta_hat)) / pi.pi(x))[:, None]
    j_inv = np.linalg.inv(jac)
    cov = j_inv @ (terms.T @ terms / data.n_total) @ j_inv.T
    assert np.allclose(res.sandwich_cov, cov, rtol=1e-6, atol=0)


class CountingF:
    """Wraps a weight and counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def values(self, y, model):
        self.calls += 1
        return self.inner.values(y, model)


@pytest.mark.parametrize("optimal, theta, cov", [
    (False, [-1.8857064574330296, 1.0430769561603916],
     [[1413.138586723546, -450.9268649766594], [-450.9268649766594, 152.69887244292408]]),
    (True, [-1.831656545295389, 1.025244579788895],
     [[1252.2890118087078, -392.9774757808212], [-392.9774757808212, 131.7673062696271]]),
])
def test_solve_evaluates_the_weight_once_per_fit(optimal, theta, cov):
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               2000, seed=31)
    data = cc.simulate_dataset(config).observed
    pi = cc.fit_propensity(data)
    model = cc.NormalLinear(sigma2=8.19)
    f = CountingF(cc.optimal_f(pi, [-1.4, 0.9]) if optimal else cc.NonOptimalF())
    res = cc.solve_gee(data, model, pi, f)
    assert f.calls == 1
    assert res.iterations == 2
    # values recorded when every residual, Jacobian and sandwich
    # evaluation recomputed the weights (five calls per fit)
    assert np.allclose(res.theta_hat, theta, rtol=1e-13, atol=0)
    assert np.allclose(res.sandwich_cov, cov, rtol=1e-13, atol=0)
    assert np.array_equal(res.sandwich_cov,
                          cc.sandwich_gee(data, model, pi, f, res.theta_hat)[2])


class WrongSignA(cc.NormalLinear):
    """dh/dtheta with the wrong sign: every Newton step points uphill in
    the residual norm."""

    def a(self, y, theta):
        return -super().a(y, theta)


def test_solve_stops_when_no_step_lowers_the_residual(monkeypatch):
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               2000, seed=31)
    data = cc.simulate_dataset(config).observed
    pi = cc.fit_propensity(data)
    calls = []
    residual = cc.gee._residual
    monkeypatch.setattr(cc.gee, "_residual",
                        lambda *args: calls.append(1) or residual(*args))
    # theta never moved from the start
    with pytest.raises(cc.NumericalError, match=r"^GEE fit did not converge "
                       r"\(theta = 0, 0 after 1 iterations\)$"):
        cc.solve_gee(data, WrongSignA(), pi, cc.NonOptimalF())
    # the start, then the full step and its 50 halvings
    assert len(calls) == 1 + 51


# ------------------------------------------------------------------ #
# binary 2x2 workflow
# ------------------------------------------------------------------ #

BINARY_TRUTH = cc.Binary2x2Model(0.723, 0.081, 0.078, 0.118)
BINARY_MECH = cc.MissingnessMechanism((0.2, 0.4), (1.5, -1.0, 0.5))


def test_binary_estimate_recovers_log_odds_ratio():
    sim = cc.simulate_binary(BINARY_TRUTH, BINARY_MECH, 5000, 7)
    pi = cc.fit_propensity(sim.observed)
    res = cc.estimate_binary_2x2(sim.observed, 0.723, pi)
    assert res.log_odds_ratio == pytest.approx(BINARY_TRUTH.log_odds_ratio(),
                                               abs=0.3)
    assert res.log_odds_ratio_se is not None and res.log_odds_ratio_se > 0


@pytest.mark.parametrize("n, seed", [(5000, 7), (200, 11), (100_000, 42)])
def test_binary_log_or_se_is_the_exact_delta_method(n, seed):
    data = cc.simulate_binary(BINARY_TRUTH, BINARY_MECH, n, seed).observed
    res = cc.estimate_binary_2x2(data, 0.723, cc.fit_propensity(data))
    th12, th21, th22 = res.cells
    # log OR = logit(p22) - logit(p21), with the shares p(X = 2 | Y = y)
    p21, p22 = th21 / (0.723 + th21), th22 / (th12 + th22)
    grad = np.array([-1.0 / (p21 * (1 - p21)), 1.0 / (p22 * (1 - p22))])
    se = math.sqrt(grad @ res.gee.sandwich_cov @ grad / data.n_total)
    assert res.log_odds_ratio_se == pytest.approx(se, rel=1e-12)


@pytest.mark.parametrize("n, seed", [(5000, 7), (200, 11)])
def test_binary_log_or_se_is_the_influence_function_se(n, seed):
    # each share is a Hajek mean of x - 1 within one y, weighted by 1 / pi;
    # with pi held fixed a record's influence on it is its weighted residual
    # over that y's weight total, carried to the log OR by d logit(p) / dp
    data = cc.simulate_binary(BINARY_TRUTH, BINARY_MECH, n, seed).observed
    pi_model = cc.fit_propensity(data)
    res = cc.estimate_binary_2x2(data, 0.723, pi_model)
    x, y = data.complete_xy()
    w = 1.0 / pi_model.pi(x)
    influence = np.zeros(len(x))
    for level, sign in ((1.0, -1.0), (2.0, 1.0)):
        m = y == level
        p = np.sum(w[m] * (x[m] - 1)) / np.sum(w[m])
        influence[m] = sign * w[m] * (x[m] - 1 - p) / (np.sum(w[m]) * p * (1 - p))
    se = math.sqrt(np.sum(influence ** 2))
    assert res.log_odds_ratio_se == pytest.approx(se, rel=1e-10)


def test_binary_no_missingness_matches_renormalized_frequencies():
    mech = cc.MissingnessMechanism((50.0, 0.0), (50.0, 0.0, 0.0))
    sim = cc.simulate_binary(BINARY_TRUTH, mech, 20_000, 3)
    data = sim.observed
    res = cc.estimate_binary_2x2(data, 0.723, PI_ONE)
    # empirical conditional shares of X = 2 given each Y determine the
    # free cells once theta_11 is pinned
    n = np.array([[np.mean((data.x == i) & (data.y == j)) for j in (1.0, 2.0)]
                  for i in (1.0, 2.0)])
    r1 = n[1, 0] / (n[0, 0] + n[1, 0])
    r2 = n[1, 1] / (n[0, 1] + n[1, 1])
    th21 = 0.723 * r1 / (1 - r1)
    rest = 1.0 - 0.723 - th21
    th22 = r2 * rest
    th12 = (1 - r2) * rest
    assert np.allclose(res.cells, [th12, th21, th22], atol=1e-8)


def test_binary_matches_grid_oracle_small_sample():
    sim = cc.simulate_binary(BINARY_TRUTH, BINARY_MECH, 200, 11)
    pi = cc.fit_propensity(sim.observed)
    res = cc.estimate_binary_2x2(sim.observed, 0.723, pi)
    model = cc.Binary2x2(0.723)

    def norm(t):
        return np.linalg.norm(cc.gee_residual(sim.observed, model, pi,
                                              cc.NonOptimalF(), np.asarray(t)))

    # staged grid refinement around the coarse minimum of the residual
    # norm, a cone over the shares since the residual is linear in them
    t1 = t2 = np.arange(-4.0, 4.0, 0.05)
    best = min(((a, b) for a in t1 for b in t2), key=norm)
    fine = 0.05
    for _ in range(4):
        fine /= 10
        t1 = np.arange(best[0] - fine * 40, best[0] + fine * 40, fine)
        t2 = np.arange(best[1] - fine * 40, best[1] + fine * 40, fine)
        best = min(((a, b) for a in t1 for b in t2), key=norm)
    oracle_cells = model.cells(np.asarray(best))
    assert np.max(np.abs(res.cells - oracle_cells)) <= 1e-4


def test_binary_requires_coding_in_one_two():
    data = complete_dataset([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(cc.DataError):
        cc.estimate_binary_2x2(data, 0.5, PI_ONE)


def test_binary_diverging_fit_raises():
    # three complete cases, all with x = 2: both shares are 1, which
    # leaves no room for theta_12 + theta_22
    nan = np.nan
    data = make_dataset([2, nan, 1, 2, 2, nan, 2, nan, nan, 2, nan, nan, nan, nan],
                        [1, nan, nan, 2, nan, nan, nan, nan, 1, 2, 2, nan, 1, nan],
                        [1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0],
                        [1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0])
    with pytest.raises(cc.NumericalError, match=r"left \(0, 1\)"):
        cc.estimate_binary_2x2(data, 0.4, cc.fit_propensity(data))


@pytest.mark.parametrize("known", [{}, {"alpha": -1.4}])
def test_linear_model_converges_after_one_step(known, monkeypatch):
    # the residual is linear in theta: the first step lands on the root,
    # where the pending step is rounding, so the start and that step are
    # the only residual evaluations
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               2000, seed=31)
    data = cc.simulate_dataset(config).observed
    pi = cc.fit_propensity(data)
    calls = []
    residual = cc.gee._residual
    monkeypatch.setattr(cc.gee, "_residual",
                        lambda *args: calls.append(1) or residual(*args))
    res = cc.solve_gee(data, cc.NormalLinear(known=known), pi, cc.NonOptimalF())
    assert res.iterations == 2 and len(calls) == 2
    assert res.sandwich_cov is not None


def _pairwise(data):
    return cc.fit_pairwise(cc.build_pairs(data))


def _groupwise_three(data):
    return cc.fit_groupwise(data, 3)


def _plain_gee(data):
    return cc.solve_gee(data, cc.NormalLinear(), cc.fit_propensity(data), cc.NonOptimalF())


def _binary(data):
    return cc.estimate_binary_2x2(data, 0.723, cc.fit_propensity(data)).gee


@pytest.mark.parametrize("fit, data", [
    (_pairwise, "normal"), (_groupwise_three, "normal"), (_plain_gee, "normal"),
    (_binary, "binary")])
def test_each_front_end_raises_when_its_fit_stops_unconverged(fit, data, monkeypatch):
    # each of these fits converges in more than one iteration
    if data == "normal":
        data = cc.simulate_dataset(cc.ScenarioConfig(
            cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 60, seed=3)).observed
    else:
        data = cc.simulate_binary(BINARY_TRUTH, BINARY_MECH, 200, 11).observed
    assert fit(data).iterations > 1
    monkeypatch.setattr(cc.model, "NEWTON_MAX_ITER", 1)
    with pytest.raises(cc.NumericalError,
                       match=r"did not converge \(theta = [^)]+ after 1 iterations\)$"):
        fit(data)
