import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crisscross as cc

from conftest import (NEAR_SEPARATED, UNDERFLOWED, complete_dataset, groupwise_contrasts,
                      groupwise_oracle, make_dataset, pair_loglik)


# ------------------------------------------------------------------ #
# pair construction
# ------------------------------------------------------------------ #

def test_build_pairs_single_pair():
    d = cc.build_pairs(complete_dataset([1.0, 0.0], [2.0, 1.0]))
    assert d.u.tolist() == [1.0]
    assert d.v.tolist() == [1.0]
    assert d.ties_dropped == 0


def test_build_pairs_drops_ties():
    with pytest.raises(cc.DataError):
        cc.build_pairs(complete_dataset([0.0, 1.0], [1.0, 1.0]))
    d = cc.build_pairs(complete_dataset([0.0, 1.0, 2.0], [1.0, 1.0, 3.0]))
    assert d.ties_dropped == 1
    assert len(d.u) == 2


def test_build_pairs_three_points_brute_force():
    xs, ys = [2.0, 1.0, 0.0], [3.0, 1.0, 2.0]
    d = cc.build_pairs(complete_dataset(xs, ys))
    expected = []
    for i, k in itertools.combinations(range(3), 2):
        dy = ys[i] - ys[k]
        expected.append((1.0 if dy > 0 else 0.0, (xs[i] - xs[k]) * abs(dy)))
    assert list(zip(d.u.tolist(), d.v.tolist())) == expected
    assert d.v.tolist() == [2.0, 2.0, 1.0]


def test_build_pairs_needs_two_complete_cases():
    with pytest.raises(cc.DataError):
        cc.build_pairs(make_dataset([1.0, np.nan], [2.0, 3.0], [1, 0], [1, 1]))


# ------------------------------------------------------------------ #
# pairwise fitting
# ------------------------------------------------------------------ #

def test_fit_pairwise_null_association():
    rng = np.random.default_rng(2)
    n = 600
    x = rng.normal(size=n)
    y = rng.normal(size=n)          # independent: theta0 = 0
    res = cc.fit_pairwise(cc.build_pairs(complete_dataset(x, y)))
    assert abs(res.theta_hat) < 0.05


def test_fit_pairwise_separation_detected():
    with pytest.raises(cc.SeparationError) as exc:
        cc.fit_pairwise(cc.build_pairs(complete_dataset([0.0, 1.0, 2.0],
                                                        [0.0, 1.0, 2.0])))
    assert exc.value.direction == +1
    with pytest.raises(cc.SeparationError) as exc:
        cc.fit_pairwise(cc.build_pairs(complete_dataset([2.0, 1.0, 0.0],
                                                        [0.0, 1.0, 2.0])))
    assert exc.value.direction == -1


def test_fit_pairwise_rejects_zero_covariate():
    with pytest.raises(cc.DomainError):
        cc.fit_pairwise(cc.build_pairs(complete_dataset([1.0, 1.0, 1.0],
                                                        [0.0, 1.0, 2.0])))


@given(theta=st.floats(-1.5, 1.5))
@settings(max_examples=20, deadline=None)
def test_pairwise_score_matches_finite_difference(theta):
    rng = np.random.default_rng(4)
    d = cc.build_pairs(complete_dataset(rng.normal(size=60), rng.normal(size=60)))
    h = 1e-6
    fd = (pair_loglik(d.u, d.v, theta + h) - pair_loglik(d.u, d.v, theta - h)) / (2 * h)
    p = cc.expit(theta * d.v)
    analytic = float(np.sum(d.v * (d.u - p)))
    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-4)
    hess = -float(np.sum(d.v ** 2 * p * (1 - p)))
    assert hess <= 0.0


def test_pairwise_translation_invariance_bit_identical():
    # dyadic values keep the pair differences exact under translation
    rng = np.random.default_rng(6)
    x = rng.integers(-8, 8, size=80) * 0.25
    y = rng.integers(-8, 8, size=80) * 0.25
    base = cc.fit_pairwise(cc.build_pairs(complete_dataset(x, y))).theta_hat
    shifted_x = cc.fit_pairwise(cc.build_pairs(complete_dataset(x + 5.0, y))).theta_hat
    shifted_y = cc.fit_pairwise(cc.build_pairs(complete_dataset(x, y + 3.0))).theta_hat
    assert base == shifted_x == shifted_y


def test_propensity_free_contract_incomplete_rows_ignored():
    rng = np.random.default_rng(7)
    x = rng.normal(size=50)
    y = rng.normal(size=50) + 0.3 * x
    base = cc.fit_pairwise(cc.build_pairs(complete_dataset(x, y))).theta_hat

    # interleave incomplete rows at assorted positions, preserving the
    # relative order of the complete ones
    xs, ys, rx, ry = [], [], [], []
    for i in range(50):
        if i % 7 == 0:
            xs += [np.nan, rng.normal()]
            ys += [rng.normal(), np.nan]
            rx += [0, 1]
            ry += [1, 0]
        xs.append(x[i])
        ys.append(y[i])
        rx.append(1)
        ry.append(1)
    noisy = make_dataset(xs, ys, rx, ry)
    assert cc.fit_pairwise(cc.build_pairs(noisy)).theta_hat == base

    # permuting the incomplete rows among themselves changes nothing
    idx = np.arange(noisy.n_total)
    inc = np.where(~noisy.complete_mask)[0]
    idx[inc] = rng.permutation(inc)
    perm = make_dataset(np.array(xs)[idx], np.array(ys)[idx],
                        np.array(rx)[idx], np.array(ry)[idx])
    assert cc.fit_pairwise(cc.build_pairs(perm)).theta_hat == base


# ------------------------------------------------------------------ #
# groupwise objective
# ------------------------------------------------------------------ #

def test_groupwise_equals_pairwise_objective():
    rng = np.random.default_rng(11)
    data = complete_dataset(rng.normal(size=40), rng.normal(size=40))
    d = cc.build_pairs(data)
    for theta in (-0.7, 0.0, 0.42):
        assert cc.groupwise_loglik(data, theta, 2) == pytest.approx(
            pair_loglik(d.u, d.v, theta), rel=1e-12, abs=1e-12)


def test_groupwise_with_ties_differs_by_constant():
    data = complete_dataset([0.0, 1.0, 2.0], [1.0, 1.0, 3.0])
    d = cc.build_pairs(data)
    for theta in (0.0, 0.5):
        diff = pair_loglik(d.u, d.v, theta) - cc.groupwise_loglik(data, theta, 2)
        assert diff == pytest.approx(d.ties_dropped * math.log(2.0), rel=1e-12)


def test_groupwise_null_value():
    rng = np.random.default_rng(12)
    data = complete_dataset(rng.normal(size=12), rng.normal(size=12))
    for g in (2, 3, 4):
        expected = math.comb(12, g) * math.log(1.0 / math.factorial(g))
        assert cc.groupwise_loglik(data, 0.0, g) == pytest.approx(expected, rel=1e-12)


def test_groupwise_three_equals_permutation_enumeration():
    xs = np.array([0.3, -1.2, 2.0])
    ys = np.array([1.1, 0.4, -0.6])
    data = complete_dataset(xs, ys)
    theta = 0.37
    # brute force over all 3! permutations of the x labels
    s_id = float(np.sum(xs * ys))
    denom = sum(math.exp(theta * (float(np.sum(xs[list(p)] * ys)) - s_id))
                for p in itertools.permutations(range(3)))
    assert cc.groupwise_loglik(data, theta, 3) == pytest.approx(
        -math.log(denom), abs=1e-10)


def test_groupwise_fit_matches_grid_oracle_on_three_points():
    xs = np.array([0.3, -1.2, 2.0])
    ys = np.array([1.1, 0.4, -0.6])
    data = complete_dataset(xs, ys)
    grid = np.arange(-2.0, 2.0 + 1e-9, 1e-4)
    vals = [cc.groupwise_loglik(data, t, 3) for t in grid]
    oracle = grid[int(np.argmax(vals))]
    res = cc.fit_groupwise(data, 3)
    assert abs(res.theta_hat - oracle) <= 1e-4


def test_groupwise_two_identical_to_pairwise():
    rng = np.random.default_rng(13)
    x = rng.normal(size=60)
    y = 0.4 * x + rng.normal(size=60)
    data = complete_dataset(x, y)
    assert cc.fit_groupwise(data, 2).theta_hat == pytest.approx(
        cc.fit_pairwise(cc.build_pairs(data)).theta_hat, abs=1e-10)


def test_groupwise_rejects_bad_sizes():
    data = complete_dataset([0.0, 1.0], [0.0, 2.0])
    with pytest.raises(cc.DomainError):
        cc.groupwise_loglik(data, 0.1, 5)
    with pytest.raises(cc.DataError):
        cc.fit_groupwise(data, 3)


def test_groupwise_score_matches_finite_difference():
    from crisscross.pseudolik import _group_deltas, _groupwise_score_hess
    rng = np.random.default_rng(14)
    data = complete_dataset(rng.normal(size=15), rng.normal(size=15))
    xc, yc = data.complete_xy()
    blocks = lambda: _group_deltas(xc, yc, 3)
    for theta in rng.uniform(-1.0, 1.0, size=20):
        _, score, _, _ = _groupwise_score_hess(blocks, theta)
        h = 1e-6
        fd = (cc.groupwise_loglik(data, theta + h, 3)
              - cc.groupwise_loglik(data, theta - h, 3)) / (2 * h)
        assert score == pytest.approx(fd, rel=1e-6, abs=1e-5)


@pytest.mark.parametrize("group_size, n", [(3, 20), (4, 11)])
@pytest.mark.parametrize("theta", [0.0, 0.3, -0.3, 5.0, -5.0, 200.0, -200.0])
def test_groupwise_kernel_matches_logsumexp_oracle(group_size, n, theta):
    from crisscross.pseudolik import _group_deltas, _groupwise_score_hess
    rng = np.random.default_rng(53 + group_size)
    y = rng.normal(2, 1, n)
    xc, yc = -1.4 + 0.9 * y + rng.normal(0, 2.8, n), y
    blocks = lambda: _group_deltas(xc, yc, group_size)
    with np.errstate(over="raise", invalid="raise"):
        got = _groupwise_score_hess(blocks, theta)
    assert got[3] == math.comb(n, group_size)
    assert all(math.isfinite(v) for v in got[:3])
    assert got[:3] == pytest.approx(groupwise_oracle(xc, yc, group_size, theta), rel=1e-12)


def _pair_terms(xc, yc, theta):
    """Per-pair -softplus(-theta d), d sigma and -d^2 sigma (1 - sigma) over
    the untied pairs, each from np.logaddexp (oracle)."""
    i, k = np.triu_indices(len(xc), 1)
    d = (xc[i] - xc[k]) * (yc[i] - yc[k])
    d = d[yc[i] != yc[k]]
    lo, hi = np.logaddexp(0.0, theta * d), np.logaddexp(0.0, -theta * d)
    return -hi, d * np.exp(-lo), -d * d * np.exp(-lo - hi)


def _pending_step(xc, yc, group_size, theta):
    """-score / Hessian at theta, from per-pair expit terms (g = 2) or the
    groupwise oracle."""
    if group_size > 2:
        _, score, hess = groupwise_oracle(xc, yc, group_size, theta)
    else:
        _, score, hess = (np.sum(t) for t in _pair_terms(xc, yc, theta))
    return -score / hess


@pytest.mark.parametrize("theta", [16906.94, 16906.544])
def test_pair_kernel_keeps_its_digits_near_separation(theta):
    # the score's terms, of size 1e-9, cancel to 1e-13 or less: it may be
    # off by 64 eps of their magnitudes' sum, the oracle's own rounding.
    # The objective's d = 0 padding cells add and take back log 2 each
    from crisscross.pseudolik import _cells, _pass, _Workspace
    xc, yc = map(np.array, NEAR_SEPARATED)
    sums = _pass(_Workspace(*_cells(xc, yc)), theta)
    loglik, score, hess = _pair_terms(xc, yc, theta)
    assert abs(sums.score - np.sum(score)) <= 64 * np.finfo(float).eps * np.sum(np.abs(score))
    assert sums.loglik == pytest.approx(np.sum(loglik), rel=1e-12)
    assert sums.hess == pytest.approx(np.sum(hess), rel=1e-12)


@pytest.mark.parametrize("group_size", [2, 3, 4])
def test_fit_is_converged_only_at_its_maximizer(group_size):
    xc, yc = map(np.array, NEAR_SEPARATED)
    res = cc.fit_groupwise(complete_dataset(xc, yc), group_size)
    # every kernel places the maximizer to 1e-6
    assert abs(_pending_step(xc, yc, group_size, res.theta_hat)) <= 1e-6 * res.theta_hat
    with pytest.raises(cc.NumericalError, match="pseudo-likelihood fit did not "
                       r"converge \(theta = \S+ after \d+ iterations\)") as exc:
        cc.fit_groupwise(complete_dataset(*UNDERFLOWED), group_size)
    assert float(re.search(r"theta = (\S+) ", str(exc.value)).group(1)) < -5.0


@pytest.mark.parametrize("group_size", [2, 3, 4])
def test_combinations_are_lexicographic(group_size):
    from crisscross.pseudolik import _combinations
    for n in range(group_size, 13):
        want = list(itertools.combinations(range(n), group_size))
        for chunk in (1, 5, len(want), 10 ** 6):
            blocks = list(_combinations(n, group_size, chunk))
            assert all(b.shape[1] == chunk for b in blocks[:-1])
            assert 0 < blocks[-1].shape[1] <= chunk
            assert list(map(tuple, np.hstack(blocks).T.tolist())) == want


@pytest.mark.parametrize("group_size, n", [(3, 9), (4, 7)])
def test_contrast_rows_are_the_permutation_contrasts(group_size, n, monkeypatch):
    from crisscross.pseudolik import _group_deltas
    monkeypatch.setattr(cc.pseudolik, "_BLOCK", 50)   # several blocks, a partial last
    rng = np.random.default_rng(61)
    xc, yc = rng.normal(size=(2, n))
    got = np.hstack(list(_group_deltas(xc, yc, group_size)))
    want = groupwise_contrasts(xc, yc, group_size)
    assert got.shape == (math.factorial(group_size) - 1, math.comb(n, group_size))
    assert np.allclose(got, want[:, 1:].T, rtol=0, atol=1e-14)
    assert not want[:, 0].any()      # the identity, which is not stored


@pytest.mark.parametrize("group_size, n, block", [(3, 30, 4000), (4, 16, 500)])
def test_groupwise_fit_does_not_depend_on_the_block_size(group_size, n, block, monkeypatch):
    # 4000 // 5 = 800 groups per block leaves 4060 = 5 * 800 + 60 (g = 3);
    # 500 // 23 = 21 leaves 1820 = 86 * 21 + 14 (g = 4)
    rng = np.random.default_rng(71 + group_size)
    y = rng.normal(2, 1, n)
    data = complete_dataset(-1.4 + 0.9 * y + rng.normal(0, 2.8, n), y)
    default = cc.fit_groupwise(data, group_size)
    monkeypatch.setattr(cc.pseudolik, "_BLOCK", block)
    assert math.comb(n, group_size) % (block // (math.factorial(group_size) - 1)) != 0
    small = cc.fit_groupwise(data, group_size)
    assert small.theta_hat == pytest.approx(default.theta_hat, rel=1e-12)


def test_groupwise_three_no_less_efficient_than_pairwise():
    # paired replicates from the reference scenario at modest size
    r2, r3 = [], []
    for rep in range(40):
        sim = cc.simulate_dataset(
            cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 300,
                              seed=(555, rep)))
        r2.append(cc.fit_groupwise(sim.observed, 2).theta_hat)
        r3.append(cc.fit_groupwise(sim.observed, 3).theta_hat)
    ratio = np.std(r3, ddof=1) / np.std(r2, ddof=1)
    assert ratio <= 1.02


# ------------------------------------------------------------------ #
# U-statistic variance
# ------------------------------------------------------------------ #

def brute_force_ab(xc, yc, theta):
    n = len(xc)
    zeta = np.zeros((n, n))
    dzeta = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            d = (xc[i] - xc[k]) * (yc[i] - yc[k])
            sig = 1.0 / (1.0 + math.exp(theta * d))
            zeta[i, k] = -d * sig
            dzeta[i, k] = d * d * sig * (1.0 - sig)
    a = dzeta.sum() / (n * (n - 1))
    b_sum = 0.0
    for i in range(n):
        for k in range(n):
            for l in range(n):
                if len({i, k, l}) == 3:
                    b_sum += zeta[i, k] * zeta[i, l]
    b = 4.0 * b_sum / (n * (n - 1) * (n - 2))
    return a, b


def test_variance_ustat_matches_cubic_brute_force():
    rng = np.random.default_rng(15)
    x = rng.normal(size=20)
    y = 0.3 * x + rng.normal(size=20)
    data = complete_dataset(x, y)
    theta = 0.21
    a_hat, b_hat, var = cc.variance_ustat(data, theta)
    a_bf, b_bf = brute_force_ab(x, y, theta)
    assert a_hat == pytest.approx(a_bf, rel=1e-12)
    assert b_hat == pytest.approx(b_bf, rel=1e-12)
    assert var == pytest.approx(b_bf / a_bf ** 2, rel=1e-12)


def test_variance_ustat_degenerate_flagged():
    data = complete_dataset([1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(cc.NumericalError):
        cc.variance_ustat(data, 0.5)


def test_variance_ustat_requires_finite_theta():
    data = complete_dataset([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    with pytest.raises(cc.DomainError):
        cc.variance_ustat(data, math.inf)


def test_fit_with_variance_populates_sandwich(section61_small):
    res = cc.fit_pairwise_with_variance(section61_small.observed)
    assert res.sandwich_var > 0
    assert res.se == pytest.approx(
        math.sqrt(res.sandwich_var / res.n_complete))
    assert res.n_total == 2000


# ------------------------------------------------------------------ #
# streaming kernel against the materialized pair design
# ------------------------------------------------------------------ #

def oracle_fit(data):
    """Newton fit and sandwich (a, b) over the materialized u/v design and
    the full n x n zeta matrix, the formulation the block kernel replaces."""
    d = cc.build_pairs(data)
    u, v = d.u, d.v
    informative = v != 0
    if not np.any(informative):
        raise cc.DomainError("pair covariate v is identically zero")
    if np.all(u[informative] == (v[informative] > 0)):
        raise cc.SeparationError("+", direction=+1)
    if np.all(u[informative] == (v[informative] < 0)):
        raise cc.SeparationError("-", direction=-1)
    theta, obj = 0.0, pair_loglik(u, v, 0.0)
    for _ in range(cc.model.NEWTON_MAX_ITER):
        p = cc.expit(theta * v)
        score = float(np.sum(v * (u - p)))
        if abs(score) / len(u) <= cc.pseudolik.SCORE_TOL:
            break
        step = score / float(np.sum(v * v * p * (1.0 - p)))
        scale = 1.0
        while pair_loglik(u, v, theta + scale * step) < obj - 1e-12 * max(1.0, abs(obj)):
            scale *= 0.5
        theta += scale * step
        obj = max(obj, pair_loglik(u, v, theta))
    xc, yc = data.complete_xy()
    n = len(xc)
    dm = np.subtract.outer(xc, xc) * np.subtract.outer(yc, yc)
    sig = cc.expit(-theta * dm)
    zeta = -dm * sig
    a = float(np.sum(dm * dm * sig * (1.0 - sig))) / (n * (n - 1))
    rows = zeta.sum(axis=1)
    b = 4.0 * float(np.sum(rows ** 2 - np.sum(zeta ** 2, axis=1))) / (n * (n - 1) * (n - 2))
    return theta, a, b, d.ties_dropped


def _kernel_cases():
    rng = np.random.default_rng(31)
    x = rng.normal(size=90)
    y = 0.5 * x + rng.normal(size=90)
    yield "continuous", complete_dataset(x, y)
    yield "ties in x and y", complete_dataset(np.round(x), np.round(y, 1))
    x = rng.integers(0, 4, size=70).astype(float)
    yield "heavy ties", complete_dataset(x, x + rng.integers(0, 3, size=70))
    x = rng.normal(size=53)
    yield "negative theta", complete_dataset(x, -0.8 * x + rng.normal(size=53))


@pytest.mark.parametrize("block", [None, 530, 64])
def test_kernel_matches_materialized_oracle(block, monkeypatch):
    # 530 cells = 10 rows per block at n = 53 (partial last block of 3
    # rows); 64 cells = one row per block
    if block is not None:
        monkeypatch.setattr(cc.pseudolik, "_BLOCK", block)
    for name, data in _kernel_cases():
        theta, a, b, ties = oracle_fit(data)
        res = cc.fit_pairwise_with_variance(data)
        assert res.theta_hat == pytest.approx(theta, rel=1e-10), name
        assert res.a_hat == pytest.approx(a, rel=1e-10), name
        assert res.b_hat == pytest.approx(b, rel=1e-10), name
        assert res.ties_dropped == ties, name
        assert cc.fit_groupwise(data, 2) == cc.fit_pairwise(cc.build_pairs(data))


@pytest.mark.parametrize("block", [None, 6])
def test_kernel_errors_match_oracle(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(cc.pseudolik, "_BLOCK", block)
    cases = [
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 5.0], cc.SeparationError, +1),
        ([3.0, 1.0, 2.0, 0.0], [0.0, 1.0, 1.0, 5.0], cc.SeparationError, -1),
        ([1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0], cc.DomainError, None),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], cc.DataError, None),
    ]
    for xs, ys, err, direction in cases:
        data = complete_dataset(xs, ys)
        with pytest.raises(err) as want:
            oracle_fit(data)
        with pytest.raises(err) as got:
            cc.fit_pairwise(cc.build_pairs(data))
        assert type(got.value) is type(want.value)
        if direction is not None:
            assert got.value.direction == want.value.direction == direction
        for g in (3, 4):
            with pytest.raises(err) as got_g:
                cc.fit_groupwise(data, g)
            assert type(got_g.value) is type(want.value)
            assert str(got_g.value) == str(got.value)
            if direction is not None:
                assert got_g.value.direction == direction


def test_degenerate_data_check_matches_the_pair_signs():
    # small draws with many ties in x and y, against the signs of every d_ik
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        x, y = rng.integers(-2, 3, size=(2, n)).astype(float)
        d = np.subtract.outer(x, x) * np.subtract.outer(y, y)
        pos, neg = bool(np.any(d > 0)), bool(np.any(d < 0))
        if np.all(y == y[0]):
            continue
        design = cc.build_pairs(complete_dataset(x, y))
        if pos and neg:
            cc.fit_pairwise(design)
            continue
        with pytest.raises((cc.DomainError, cc.SeparationError)) as got:
            cc.fit_pairwise(design)
        if pos or neg:
            assert got.value.direction == (1 if pos else -1)
        else:
            assert type(got.value) is cc.DomainError


def test_one_workspace_per_fit(monkeypatch):
    calls = []
    make = cc.pseudolik._Workspace
    monkeypatch.setattr(cc.pseudolik, "_Workspace",
                        lambda x, y, w: calls.append(len(x)) or make(x, y, w))
    data = next(_kernel_cases())[1]
    res = cc.fit_pairwise(cc.build_pairs(data))
    assert res.iterations > 2 and calls == [90]
    cc.variance_ustat(data, res.theta_hat)
    assert calls == [90, 90]
    cc.groupwise_loglik(data, 0.3, 2)
    assert calls == [90, 90, 90]
    # 576 binary complete cases are 4 distinct (x, y) cells: each pass walks
    # 4, and the with-variance fit's variance pass shares its workspace
    _, x, y = next(_repeated_cases())
    cc.fit_pairwise_with_variance(complete_dataset(x, y))
    assert calls == [90, 90, 90, 4]


def _repeated_cases():
    """(name, x, y) draws whose complete cases repeat, and one that does not."""
    rng = np.random.default_rng(81)
    x = rng.integers(0, 2, size=576).astype(float)
    yield "binary", x, (rng.random(576) < 0.35 + 0.3 * x).astype(float)
    y = np.round(rng.normal(size=400), 1)
    yield "poisson x", rng.poisson(np.exp(0.5 - 0.4 * y)).astype(float), y
    x = rng.normal(size=400)
    y = 0.4 * x + rng.normal(size=400)
    idx = rng.integers(0, 400, size=400)
    yield "bootstrap resample", x[idx], y[idx]
    yield "all distinct", x, y


def _expanded_oracle(xc, yc):
    """Over every complete-case row: theta_hat from model.newton on the
    per-pair oracle terms, a and b at it from the full n x n zeta matrix,
    and the g = 2 objective (tied pairs log 2 each) as a function."""
    n = len(xc)
    dm = np.subtract.outer(xc, xc) * np.subtract.outer(yc, yc)
    untied = int(np.sum(np.triu(np.subtract.outer(yc, yc) != 0, 1)))
    evaluate = lambda t: tuple(float(np.sum(v)) for v in _pair_terms(xc, yc, t))
    theta, _, _ = cc.model.newton(evaluate, 0.0, untied, cc.pseudolik.SCORE_TOL, "oracle")
    lo, hi = np.logaddexp(0.0, theta * dm), np.logaddexp(0.0, -theta * dm)
    zeta = -dm * np.exp(-lo)
    a = float(np.sum(dm * dm * np.exp(-lo - hi))) / (n * (n - 1))
    b = 4.0 * float(np.sum(zeta.sum(axis=1) ** 2) - np.sum(zeta ** 2)) / (n * (n - 1) * (n - 2))
    upper = dm[np.triu_indices(n, 1)]
    loglik = lambda t: -float(np.sum(np.logaddexp(0.0, -t * upper)))
    return theta, a, b, loglik


@pytest.mark.parametrize("case", range(4))
def test_cell_kernel_matches_the_expanded_rows(case):
    name, x, y = list(_repeated_cases())[case]
    data = complete_dataset(x, y)
    theta, a, b, loglik = _expanded_oracle(x, y)
    res = cc.fit_pairwise_with_variance(data)
    assert res.theta_hat == pytest.approx(theta, rel=1e-12), name
    assert res.a_hat == pytest.approx(a, rel=1e-12), name
    assert res.b_hat == pytest.approx(b, rel=1e-12), name
    for t in (res.theta_hat, -0.3, 0.0):
        assert cc.groupwise_loglik(data, t, 2) == pytest.approx(loglik(t), rel=1e-12), name


def test_section61_fit_is_pinned():
    # n_c = 2251 distinct cases give 29 rows per block and a last block of
    # 18 rows; the values are the per-cell kernel's, summed over the cases
    # sorted by y.  A long-double Newton root is 0.0959666651954621,
    # 1.08e-11 relative above theta_hat: the stop tolerance, not rounding
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 4100, seed=7)
    data = cc.simulate_dataset(config).observed
    res = cc.fit_pairwise_with_variance(data)
    assert data.n_complete == 2251
    assert res.theta_hat == 0.09596666519442344
    assert res.a_hat == 3.984213835849157
    assert res.b_hat == 3.794594893538064


def _with_variance_cases():
    """(name, data): the kernel and repeated-case draws, and a bootstrap
    resample of a Section 6.1 draw."""
    yield from _kernel_cases()
    for name, x, y in _repeated_cases():
        yield name, complete_dataset(x, y)
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 1200, seed=12)
    xc, yc = cc.simulate_dataset(config).observed.complete_xy()
    idx = np.random.default_rng(12).integers(0, len(xc), size=len(xc))
    yield "section 6.1 resample", complete_dataset(xc[idx], yc[idx])


def _spy_passes(monkeypatch):
    """Record (theta, rows) of every kernel pass."""
    passes = []
    kernel = cc.pseudolik._pass

    def spy(ws, theta, ties=0, rows=False):
        passes.append((theta, rows))
        return kernel(ws, theta, ties, rows)
    monkeypatch.setattr(cc.pseudolik, "_pass", spy)
    return passes


def test_fit_with_variance_equals_the_variance_pass_at_theta_hat():
    for name, data in _with_variance_cases():
        res = cc.fit_pairwise_with_variance(data)
        assert (res.a_hat, res.b_hat, res.sandwich_var) == cc.variance_ustat(
            data, res.theta_hat), name
        assert res.theta_hat == cc.fit_pairwise(cc.build_pairs(data)).theta_hat, name


def test_fit_with_variance_takes_its_variance_from_newtons_last_pass(monkeypatch):
    passes = _spy_passes(monkeypatch)
    for name, data in _with_variance_cases():
        passes.clear()
        res = cc.fit_pairwise_with_variance(data)
        assert len(passes) == res.iterations, name
        assert passes[-1][0] == res.theta_hat and passes[-1][1], name


@pytest.mark.parametrize("rows_step", [0.0, math.inf])
def test_fit_with_variance_does_not_depend_on_the_rows_step(rows_step, monkeypatch):
    # 0 never sums rows before theta_hat, inf sums them on every pass after
    # the first: either way every value is the default's, bit for bit
    default = [cc.fit_pairwise_with_variance(data) for _, data in _with_variance_cases()]
    monkeypatch.setattr(cc.pseudolik, "_ROWS_STEP", rows_step)
    passes = _spy_passes(monkeypatch)
    for (name, data), want in zip(_with_variance_cases(), default):
        passes.clear()
        assert cc.fit_pairwise_with_variance(data) == want, name
        rows = [r for _, r in passes]
        if rows_step == 0.0:
            assert not any(rows[:-1]) and rows[-1] and len(rows) == want.iterations + 1, name
        else:
            assert not rows[0] and all(rows[1:]) and len(rows) == want.iterations, name


@pytest.mark.parametrize("group_size", [2, 3])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_groupwise_loglik_rejects_a_non_finite_theta(group_size, theta):
    data = next(_kernel_cases())[1]
    with pytest.raises(cc.DomainError, match="theta must be finite"):
        cc.groupwise_loglik(data, theta, group_size)


@pytest.mark.parametrize("group_size", [2, 3])
@pytest.mark.parametrize("theta", [1e308, -1e308, 1e306])
def test_groupwise_loglik_that_overflows_is_a_numerical_error(group_size, theta):
    # some pairs are concordant and some discordant, so theta d overflows
    # on one side whatever theta's sign; the warnings are errors in tests
    rng = np.random.default_rng(23)
    x = rng.normal(size=30)
    data = complete_dataset(x, 0.3 * x + rng.normal(size=30))
    with pytest.raises(cc.NumericalError, match="overflows"):
        cc.groupwise_loglik(data, theta, group_size)


@pytest.mark.parametrize("theta, message", [(1e308, "curvature"), (-1e308, "curvature"),
                                            (1e6, "sandwich variance")])
def test_variance_pass_out_of_range_is_a_numerical_error(theta, message):
    # at +-1e308 theta |d| overflows and every Hessian term is 0; at 1e6
    # a_hat is about 4e-183, so a_hat ** 2 underflows to 0 and
    # b_hat / a_hat ** 2 would divide by zero
    rng = np.random.default_rng(1)
    x = rng.normal(size=30)
    data = complete_dataset(x, 0.3 * x + rng.normal(size=30))
    with pytest.raises(cc.NumericalError, match=message):
        cc.variance_ustat(data, theta)


def test_ties_counted_from_runs_of_equal_y():
    data = complete_dataset([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    design = cc.build_pairs(data)
    assert design.ties_dropped == 3 + 1
    assert len(design.u) == 15 - design.ties_dropped


def test_nonpositive_b_hat_raises_numerical_error():
    data = complete_dataset([-0.218792, -1.245911, -0.732267, -0.544259, -0.3163],
                            [0.302235, 0.419558, -0.494668, 1.094334, -0.823345])
    cc.fit_pairwise(cc.build_pairs(data))
    with pytest.raises(cc.NumericalError, match="b_hat"):
        cc.fit_pairwise_with_variance(data)


def test_fit_with_variance_memory_is_bounded_by_a_block():
    import tracemalloc
    rng = np.random.default_rng(41)
    x = rng.normal(size=3000)
    y = 0.3 * x + rng.normal(size=3000)
    idx = rng.integers(0, 3000, size=3000)
    # all distinct, and a bootstrap resample of them (about 1900 cells)
    for data in (complete_dataset(x, y), complete_dataset(x[idx], y[idx])):
        tracemalloc.start()
        try:
            cc.fit_pairwise_with_variance(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 4.5M pairs would take 36 MB per float64 array
        assert peak < 32 * 2 ** 20


def test_groupwise_memory_is_bounded_by_a_block():
    import tracemalloc
    rng = np.random.default_rng(43)
    y = rng.normal(2, 1, 36)
    data = complete_dataset(-1.4 + 0.9 * y + rng.normal(0, 2.8, 36), y)
    tracemalloc.start()
    try:
        cc.fit_groupwise(data, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (58905, 24) contrasts are kept (11 MB); one chunk of all the
    # groups at once would add about 60 MB of temporaries
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("group_size, n", [(3, 30), (4, 16)])
def test_groupwise_fit_raises_above_the_contrast_budget(group_size, n, monkeypatch):
    rng = np.random.default_rng(47 + group_size)
    y = rng.normal(2, 1, n)
    data = complete_dataset(-1.4 + 0.9 * y + rng.normal(0, 2.8, n), y)
    budget = math.comb(n, group_size) * (math.factorial(group_size) - 1)
    monkeypatch.setattr(cc.pseudolik, "_CACHED_CONTRASTS", budget)
    cc.fit_groupwise(data, group_size)
    monkeypatch.setattr(cc.pseudolik, "_CACHED_CONTRASTS", budget - 1)
    with pytest.raises(cc.DomainError, match="budget"):
        cc.fit_groupwise(data, group_size)


# ------------------------------------------------------------------ #
# the kernel against the one it replaced, bit for bit
# ------------------------------------------------------------------ #

# The pair kernel as it was before its workspace held sum w w c per sign,
# and before its theta = 0 pass skipped exp and log1p, copied unchanged:
# every later pass must return the same bits.
_BLOCK = cc.pseudolik._BLOCK
_LOG2 = math.log(2.0)
_PairSums = cc.pseudolik._PairSums


def _workspace(n):
    """(rows per block, lower-triangle mask of a full block, a buffer of five
    rows of at least rows n cells for the block temporaries), for n cells.
    A fit makes one and every block of every pass writes into it, so a fit
    faults its block memory in once, not once per block."""
    rows = min(n, max(1, _BLOCK // n))
    # each buffer row starts on a 64-byte cache line (np.empty aligns to 16
    # bytes only): a vector load that straddles two lines is slower
    width = -(-rows * n // 8) * 8
    raw = np.empty(5 * width + 8)
    start = -raw.ctypes.data % 64 // 8
    return rows, np.tri(rows, dtype=bool), raw[start:start + 5 * width].reshape(5, width)


def _pass(x, y, w, theta, ws, ties=0, rows=False) -> _PairSums:
    """One kernel pass at theta over the cells (x, y, w) of ``_cells`` in the
    workspace ws, by the module docstring's per-cell identity; ties counts
    the pairs tied in y, which drop out.  A block is rows r0 .. r0 + m by
    the columns from r0 on, five (m, n - r0) views of the workspace buffer.
    Its d[a, b] = d_ik for i = r0 + a, k = r0 + b, zero on and below the
    diagonal, is clipped in place to c = s m = min(d, 0) (max(d, 0) for
    theta < 0), so softplus(-theta d) = log1p(e) - theta c and d sigma
    = s r e + c = -zeta.  Each block sum is wr @ (B @ wc) over the rows'
    and the columns' counts."""
    a, s = abs(theta), (-1.0 if theta < 0 else 1.0)
    clip = np.minimum if s > 0 else np.maximum
    sum_c = sum_log = sum_re = sum_h = zeta_sq = cells = 0.0
    n = len(x)
    step, lower, buf = ws
    zeta_rows = np.zeros(n) if rows else None
    for r0 in range(0, n - 1, step):
        m = min(step, n - r0)
        # r first holds the y differences and log1p(e), and c overwrites d,
        # so a pass without row sums keeps four block arrays in cache, not five
        d, r, ad, e, zeta = (b[:m * (n - r0)].reshape(m, n - r0) for b in buf)
        np.subtract.outer(x[r0:r0 + m], x[r0:], out=d)
        np.subtract.outer(y[r0:r0 + m], y[r0:], out=r)
        d *= r
        d[:, :m][lower[:m, :m]] = 0.0
        wr, wc = w[r0:r0 + m], w[r0:]
        cells += wr.sum() * wc.sum()
        np.abs(d, out=ad)
        c = clip(d, 0.0, out=d)
        sum_c += wr @ (c @ wc)
        np.multiply(ad, -a, out=e)
        np.exp(e, out=e)
        sum_log += wr @ (np.log1p(e, out=r) @ wc)
        np.add(e, 1.0, out=r)
        np.divide(ad, r, out=r)                     # r = |d| / (1 + e)
        re = np.multiply(r, e, out=e)
        sum_re += wr @ (re @ wc)
        if rows:        # zeta = -(s r e + c)
            np.multiply(re, -s, out=zeta)
            zeta -= c
            zeta_rows[r0:r0 + m] += zeta @ wc
            zeta_rows[r0:] += wr @ zeta
            zeta *= zeta
            zeta_sq += wr @ (zeta @ wc)
        sum_h += wr @ (np.multiply(r, re, out=r) @ wc)
    # d = 0 cells count log 2 each: the diagonal and lower triangle of each
    # block, beyond the (total^2 - sq) / 2 pairs of distinct cells, and the
    # pairs tied in y, beyond the (sq - total) / 2 inside the cells
    total, sq = w.sum(), w @ w
    padding = cells - (total * total - sq) / 2 + ties - (sq - total) / 2
    loglik = theta * sum_c - sum_log + padding * _LOG2
    triples = w @ zeta_rows ** 2 - 2.0 * zeta_sq if rows else 0.0
    return _PairSums(float(loglik), float(s * sum_re + sum_c), float(-sum_h),
                     float(triples))


def _set_block(monkeypatch, block):
    """Set the block size of the kernel and of its oracle above."""
    monkeypatch.setattr(cc.pseudolik, "_BLOCK", block)
    monkeypatch.setitem(globals(), "_BLOCK", block)


def _oracle_kernel(monkeypatch):
    """Run every fit and kernel entry point on the oracle kernel above."""
    monkeypatch.setattr(cc.pseudolik, "_Workspace",
                        lambda x, y, w: (x, y, w, _workspace(len(x))))
    monkeypatch.setattr(cc.pseudolik, "_pass", lambda ws, theta, ties=0, rows=False:
                        _pass(*ws[:3], theta, ws[3], ties, rows))


def _oracle_cases():
    """(name, x, y): the kernel, repeated-case and near-separated draws."""
    for name, data in _kernel_cases():
        yield (name, *data.complete_xy())
    yield from _repeated_cases()
    yield ("near separated", *map(np.array, NEAR_SEPARATED))


# each sign's first pass sums c; later ones reuse it, with and without rows
ORACLE_THETAS = [0.0, -0.0, 1e-9, 0.3, -0.7, 2.5, 16906.94]


@pytest.mark.parametrize("block", [None, 2000, 530])
def test_kernel_passes_equal_the_oracle_bit_for_bit(block, monkeypatch):
    # 2000 and 530 cells make several blocks on the draws of 53 cells or
    # more, the last one partial on some of them
    from crisscross.pseudolik import _cells, _pass as kernel, _Workspace
    if block is not None:
        _set_block(monkeypatch, block)
    for name, xc, yc in _oracle_cases():
        x, y, w = _cells(xc, yc)
        ws, oracle_ws = _Workspace(x, y, w), _workspace(len(x))
        for theta in ORACLE_THETAS:
            for rows in (False, True):
                got = kernel(ws, theta, 3, rows)
                want = _pass(x, y, w, theta, oracle_ws, 3, rows)
                # == and the same bits, signed zeros included
                assert got == want and np.array(got).tobytes() == np.array(want).tobytes(), (
                    name, theta, rows)
        assert set(ws.sum_c) == {1.0, -1.0}, name


def _oracle_fit_cases():
    """(name, data): Section 6.1 and misspecified draws and a bootstrap
    resample of the first."""
    for seed in (3, 4):
        config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 1000, seed)
        yield f"section 6.1, seed {seed}", cc.simulate_dataset(config).observed
        config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.MISSPECIFIED_MECHANISM, 1000, seed)
        yield f"misspecified, seed {seed}", cc.simulate_dataset(config).observed
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 1000, 3)
    xc, yc = cc.simulate_dataset(config).observed.complete_xy()
    idx = np.random.default_rng(3).integers(0, len(xc), size=len(xc))
    yield "bootstrap resample", complete_dataset(xc[idx], yc[idx])


def _kernel_results(data):
    res = cc.fit_pairwise(cc.build_pairs(data))
    return (res, cc.fit_pairwise_with_variance(data),
            cc.variance_ustat(data, res.theta_hat),
            [cc.groupwise_loglik(data, t, 2) for t in (0.0, res.theta_hat, -0.4)])


def test_fits_equal_the_oracle_kernels_fits(monkeypatch):
    new = [_kernel_results(data) for _, data in _oracle_fit_cases()]
    _oracle_kernel(monkeypatch)
    for (name, data), got in zip(_oracle_fit_cases(), new):
        assert got == _kernel_results(data), name


class _CountingNumpy:
    """numpy for the pseudolik module, counting its exp, log1p and clip
    (minimum or maximum) calls."""

    def __init__(self):
        self.counts = dict.fromkeys(("exp", "log1p", "clip"), 0)

    def __getattr__(self, name):
        fn = getattr(np, name)
        key = {"minimum": "clip", "maximum": "clip"}.get(name, name)
        if key not in self.counts:
            return fn

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def test_a_pass_skips_work_it_already_has(monkeypatch):
    # a fit's theta = 0 pass makes no exp and no log1p; only the first pass
    # of each sign of theta, and a pass with row sums, clip d to c
    counting = _CountingNumpy()
    monkeypatch.setattr(cc.pseudolik, "np", counting)
    passes = []
    kernel = cc.pseudolik._pass

    def spy(ws, theta, ties=0, rows=False):
        before = dict(counting.counts)
        sums = kernel(ws, theta, ties, rows)
        passes.append((theta, rows, {k: v - before[k] for k, v in counting.counts.items()}))
        return sums
    monkeypatch.setattr(cc.pseudolik, "_pass", spy)
    for name, data in list(_kernel_cases())[::3]:   # theta_hat > 0, and < 0
        for fit in (lambda d: cc.fit_pairwise(cc.build_pairs(d)), cc.fit_pairwise_with_variance):
            passes.clear()
            fit(data)
            assert passes[0][0] == 0.0 and len(passes) > 2, name
            assert passes[0][2]["exp"] == passes[0][2]["log1p"] == 0, name
            signs = set()
            for theta, rows, calls in passes:
                sign = -1 if theta < 0 else 1
                assert (calls["clip"] > 0) == (rows or sign not in signs), (name, theta, rows)
                signs.add(sign)
                if theta != 0:
                    assert calls["exp"] > 0 and calls["log1p"] > 0, (name, theta)
            assert signs == ({1, -1} if name == "negative theta" else {1}), name
