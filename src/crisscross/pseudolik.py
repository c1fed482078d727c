"""Odds-ratio estimation from complete cases via order-statistics
conditional likelihood.

Conditioning the complete-case likelihood on the multiset of observed x
values cancels every selection-probability factor, so the resulting
estimator of the pairwise log odds-ratio parameter theta never touches
the missingness mechanism.  The pairwise approximation multiplies
1 / (1 + Q_ik) over all complete pairs with
Q_ik = exp(-theta (x_i - x_k)(y_i - y_k)); maximizing it is exactly an
intercept-free logistic regression of u = 1{y_i - y_k > 0} on
v = (x_i - x_k) |y_i - y_k|.  With d = (x_i - x_k)(y_i - y_k) and
sigma = expit(-theta d), the objective is -sum softplus(-theta d), the
score sum d sigma and the Hessian H = -sum d^2 sigma (1 - sigma).  Each
pair's terms come from one identity: with a = |theta|, s = sign(theta),
e = exp(-a |d|), r = |d| / (1 + e) and m = min(s d, 0),
softplus(-theta d) = log1p(e) - a m, d sigma = s (r e + m) and
d^2 sigma (1 - sigma) = r^2 e.  No term is a difference of sums of |d|,
so the score keeps its digits near separation.  One kernel pass gives
all three sums, streaming the upper triangle of the d matrix
in row blocks of about ``_BLOCK`` cells: memory is bounded by a block,
not by the n_c^2 pairs.  The kernel runs over the K distinct (x, y)
complete cases with their counts w: a pair of them (a, b) stands for
w_a w_b pairs with the same d, and the pairs inside one are tied in y and
drop out, so each sum is the w_a w_b-weighted sum over K^2 / 2 cells
(w = 1 when the cases are all distinct).  Bootstrap resamples and binary
or count data repeat cases, and cost K^2 cells, not n_c^2.  Each fit
makes one workspace, which holds what no theta changes: the block
temporaries, allocated once, that every block of every pass writes into,
the weighted count of the blocks' cells, and, once a pass has summed it,
sum w_a w_b c for each sign of theta, as c = min(d, 0)
(max(d, 0) for theta < 0) depends on the sign alone; later passes of that
sign reuse it and clip d to c only when they sum rows.  At theta = 0 (or
-0.0), e = 1 exactly, so log1p(e) = log 2, r = |d| / 2 = r e and
r^2 e = r^2, bit for bit what exp, log1p and the divide give; Newton's
first pass makes none of them.  Groupwise variants replace pairs by index
groups of size g in {2, 3, 4}, normalizing each group by the sum over the g!
permutations of its x values; g = 2 recovers the pairwise objective.  For g = 3 and 4 the
contrasts S_P - S_id of a block of groups are one matmul of a fixed +-1
matrix with the groups' outer products x_a y_b, stored permutation-major
as (g! - 1, m): the identity's contrast is always 0, so it has no row.

Asymptotics: with zeta_ik = d log(1 + Q_ik) / d theta = -d sigma,
sqrt(N) (theta_hat - theta_0) -> N(0, B / A^2) where A and B average
d zeta / d theta over pairs and 4 zeta_12 zeta_13 over triples (observed
ones).  d zeta / d theta is the Hessian term, so a_hat = -2 H / (n (n-1)),
and with zeta row sums R_i, b_hat = 4 (sum R_i^2 - sum_{i != k} zeta_ik^2)
/ (n (n-1) (n-2)), from one pass at theta_hat: in a fit, Newton's last,
which sums the rows as well (``_fit``).  Over the cells, R_i is
its cell's sum_b w_b zeta_ab, sum_i R_i^2 = sum_a w_a R_a^2 and
sum_{i != k} zeta_ik^2 = sum_{a != b} w_a w_b zeta_ab^2.  Var(theta_hat) ~=
(b_hat / a_hat^2) / n_complete; n and N are both in the result.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, DomainError, NumericalError, SeparationError
from .model import ObservedDataset, newton

SCORE_TOL = 1e-8
_BLOCK = 1 << 16        # d-matrix cells (or group contrasts) per kernel block
_CACHED_CONTRASTS = 3e7  # most contrasts (g! - 1 per group) a groupwise fit
                         # keeps; a fit with more raises DomainError
_ROWS_STEP = 1e-4       # a with-variance fit sums the rows of every Newton
                        # evaluation this close, relative, to the one before
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class PairDesign:
    """Complete cases of a pairwise fit; pairs tied in y are dropped.

    ``u`` = 1{y_i > y_k} and ``v`` = (x_i - x_k) |y_i - y_k| over the untied
    pairs are built, in O(n_c^2) memory, on each read; no fit reads them.
    """

    xc: np.ndarray
    yc: np.ndarray
    ties_dropped: int
    n_complete: int
    n_total: int
    u = property(lambda self: self._logistic_design()[0])
    v = property(lambda self: self._logistic_design()[1])

    def _logistic_design(self):
        i, k = np.triu_indices(self.n_complete, 1)
        dy = self.yc[i] - self.yc[k]
        keep = dy != 0
        dy = dy[keep]
        return (dy > 0).astype(float), (self.xc[i[keep]] - self.xc[k[keep]]) * np.abs(dy)


@dataclass(frozen=True)
class PseudoLikResult:
    theta_hat: float
    n_complete: int
    n_total: int
    iterations: int
    group_size: int = 2
    a_hat: float | None = None
    b_hat: float | None = None
    sandwich_var: float | None = None
    ties_dropped: int | None = None

    @property
    def se(self) -> float | None:
        if self.sandwich_var is None:
            return None
        return math.sqrt(self.sandwich_var / self.n_complete)


def build_pairs(data: ObservedDataset) -> PairDesign:
    xc, yc = data.complete_xy()
    n = len(xc)
    if n < 2:
        raise DataError("need at least 2 complete cases")
    runs = np.unique(yc, return_counts=True)[1]     # runs of equal y
    ties = int(np.sum(runs * (runs - 1) // 2))
    if ties == n * (n - 1) // 2:
        raise DataError("all complete-case pairs are tied in y")
    return PairDesign(xc=xc, yc=yc, ties_dropped=ties, n_complete=n,
                      n_total=data.n_total)


def _cells(xc, yc):
    """(x, y, w): the K distinct (x, y) complete cases, sorted by y and then
    by x, and the number of complete cases each stands for, as floats."""
    order = np.lexsort((xc, yc))
    xs, ys = xc[order], yc[order]
    starts = np.flatnonzero(np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])])
    return xs[starts], ys[starts], np.diff(np.r_[starts, len(xs)]).astype(float)


class _Workspace:
    """What every kernel pass of one fit shares, none of it theta's: the
    cells (x, y, w) of ``_cells``, a buffer of five rows of at least rows n
    cells for the block temporaries, the weighted count of the blocks'
    cells and sum w w c for each sign of theta once a pass has summed it.
    Every block of every pass writes into the one buffer, so a fit faults
    its block memory in once, not once per block."""

    def __init__(self, x, y, w):
        n = len(x)
        self.x, self.y, self.w = x, y, w
        self.rows = rows = min(n, max(1, _BLOCK // n))
        # each buffer row starts on a 64-byte cache line (np.empty aligns to
        # 16 bytes only): a vector load that straddles two lines is slower
        width = -(-rows * n // 8) * 8
        raw = np.empty(5 * width + 8)
        start = -raw.ctypes.data % 64 // 8
        self.buf = raw[start:start + 5 * width].reshape(5, width)
        self.lower = np.tri(rows, dtype=bool)
        self.cells = 0.0
        for r0 in range(0, n - 1, rows):
            self.cells += w[r0:r0 + rows].sum() * w[r0:].sum()
        self.sum_c = {}     # sign of theta -> sum w w c

    def blocks(self):
        """Yield each block, rows r0 .. r0 + m by the columns from r0 on:
        (r0, m, five (m, n - r0) views of the buffer, the first's (m, m)
        leading square and its lower-triangle mask, x[r0:r0 + m, None],
        x[r0:], the same of y, w[r0:r0 + m], w[r0:])."""
        n, step, x, y, w = len(self.x), self.rows, self.x, self.y, self.w
        for r0 in range(0, n - 1, step):
            m = min(step, n - r0)
            views = self.buf[:, :m * (n - r0)].reshape(5, m, n - r0)
            yield (r0, m, *views, views[0, :, :m], self.lower[:m, :m],
                   x[r0:r0 + m, None], x[r0:], y[r0:r0 + m, None], y[r0:],
                   w[r0:r0 + m], w[r0:])


class _PairSums(NamedTuple):
    loglik: float       # -sum softplus(-theta d), + log 2 per tied pair
    score: float        # sum d sigma
    hess: float         # -sum d^2 sigma (1 - sigma)
    triples: float      # sum_{i, k != l} zeta_ik zeta_il (rows=True)


def _pass(ws, theta, ties=0, rows=False) -> _PairSums:
    """One kernel pass at theta over the cells of the workspace ws, block by
    block, by the module docstring's per-cell identity; ties
    counts the pairs tied in y, which drop out.  A block's d[a, b] = d_ik
    for i = r0 + a, k = r0 + b, zero on and below the diagonal, is clipped
    in place to c = s m = min(d, 0) (max(d, 0) for theta < 0), so
    softplus(-theta d) = log1p(e) - theta c and d sigma = s r e + c = -zeta.
    Only a pass of a sign whose sum w w c the workspace lacks sums c; a
    later one clips d only for the row sums, which need c.  At theta = 0
    a pass makes no exp, log1p or divide (module docstring).  Each block
    sum is wr @ (B @ wk) over the rows' and the columns' counts."""
    a, s = abs(theta), (-1.0 if theta < 0 else 1.0)
    known_c = ws.sum_c.get(s)
    clip = np.minimum if s > 0 else np.maximum
    sum_c = sum_log = sum_re = sum_h = zeta_sq = 0.0
    zeta_rows = np.zeros(len(ws.x)) if rows else None
    for r0, m, d, r, ad, e, zeta, square, lower, xr, xk, yr, yk, wr, wk in ws.blocks():
        # r first holds the y differences and log1p(e), and c overwrites d,
        # so a pass without row sums keeps four block arrays in cache, not five
        np.copyto(d, xr)
        np.subtract(d, xk, out=d)
        np.copyto(r, yr)
        np.subtract(r, yk, out=r)
        d *= r
        square[lower] = 0.0
        np.abs(d, out=ad)
        if rows or known_c is None:
            c = clip(d, 0.0, out=d)
            if known_c is None:
                sum_c += wr @ (c @ wk)
        if a:
            np.multiply(ad, -a, out=e)
            np.exp(e, out=e)
            sum_log += wr @ (np.log1p(e, out=r) @ wk)
            np.add(e, 1.0, out=r)
            np.divide(ad, r, out=r)                 # r = |d| / (1 + e)
            re = np.multiply(r, e, out=e)
        else:           # e = 1: log1p(e) = log 2 and r = r e = |d| / 2
            r.fill(_LOG2)
            sum_log += wr @ (r @ wk)
            re = r = np.multiply(ad, 0.5, out=e)
        sum_re += wr @ (re @ wk)
        if rows:        # zeta = -(s r e + c)
            np.multiply(re, -s, out=zeta)
            zeta -= c
            zeta_rows[r0:r0 + m] += zeta @ wk
            zeta_rows[r0:] += wr @ zeta
            zeta *= zeta
            zeta_sq += wr @ (zeta @ wk)
        sum_h += wr @ (np.multiply(r, re, out=r) @ wk)
    if known_c is None:
        known_c = ws.sum_c[s] = sum_c
    # d = 0 cells count log 2 each: the diagonal and lower triangle of each
    # block, beyond the (total^2 - sq) / 2 pairs of distinct cells, and the
    # pairs tied in y, beyond the (sq - total) / 2 inside the cells
    w = ws.w
    total, sq = w.sum(), w @ w
    padding = ws.cells - (total * total - sq) / 2 + ties - (sq - total) / 2
    loglik = theta * known_c - sum_log + padding * _LOG2
    triples = w @ zeta_rows ** 2 - 2.0 * zeta_sq if rows else 0.0
    return _PairSums(float(loglik), float(s * sum_re + known_c), float(-sum_h),
                     float(triples))


def fit_pairwise(design: PairDesign) -> PseudoLikResult:
    """Newton maximization of the pairwise objective (the logistic
    log-likelihood over untied pairs) from theta = 0."""
    return _fit(design, 2)


def _with_first(tail, n):
    """Yield, for each first index i, the combinations (i, t) over the
    columns t of tail (the k-combinations of range(n), lexicographic) drawn
    from range(i + 1, n): tail's last C(n - i - 1, k) columns."""
    k, count = tail.shape
    for i in range(n - k):
        cols = tail[:, count - math.comb(n - i - 1, k):]
        yield np.vstack([np.full(cols.shape[1], i), cols])


def _combinations(n, group_size, chunk):
    """Yield (g, m) arrays, m = chunk but for the last, whose columns are
    the size-g index combinations of range(n) in lexicographic order.  No
    Python tuple is made per group; the (g - 1)-combinations, O(n^2) for
    g = 3, are the only index array larger than a block."""
    tail = np.arange(n)[None]
    for _ in range(group_size - 2):
        tail = np.hstack(list(_with_first(tail, n)))
    pending, size = [], 0
    for cols in _with_first(tail, n):
        pending.append(cols)
        size += cols.shape[1]
        if size >= chunk:
            cols = np.hstack(pending)
            full = size - size % chunk
            yield from (cols[:, start:start + chunk] for start in range(0, full, chunk))
            pending, size = [cols[:, full:]], size - full
    if size:
        yield np.hstack(pending)


def _group_deltas(xc, yc, group_size):
    """Yield permutation-major (g! - 1, m) arrays of the contrasts
    S_P - S_id over m index combinations, at most _BLOCK contrasts per
    array.  Row k is permutation k + 1 of itertools.permutations; the
    identity's contrast is always 0 and is not stored."""
    g = group_size
    eye = np.eye(g)
    # row P maps the outer products x_a y_b, flattened to a g + b, to
    # S_P - S_id = sum_b (x_P(b) - x_b) y_b
    contrast = np.array([(eye[list(p)].T - eye).ravel()
                         for p in itertools.permutations(range(g))][1:])
    for idx in _combinations(len(xc), g, max(1, _BLOCK // len(contrast))):
        yield contrast @ (xc[idx][:, None] * yc[idx][None]).reshape(g * g, -1)


def _group_cases(data: ObservedDataset, group_size: int):
    if group_size not in (2, 3, 4):
        raise DomainError("group_size must be 2, 3, or 4")
    xc, yc = data.complete_xy()
    if len(xc) < group_size:
        raise DataError(f"need at least {group_size} complete cases")
    return xc, yc


def groupwise_loglik(data: ObservedDataset, theta: float, group_size: int) -> float:
    """Sum over size-g groups of -log sum_P exp(theta (S_P - S_id)).  A
    value that overflows raises NumericalError: an exp(-theta |d|) that
    underflows to 0 is exact to rounding, so a finite sum is the objective."""
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    xc, yc = _group_cases(data, group_size)
    with np.errstate(over="ignore", invalid="ignore"):
        if group_size == 2:     # the swap contrast is -d: the pair kernel's sum
            value = _pass(_Workspace(*_cells(xc, yc)), theta).loglik
        else:
            value = _groupwise_score_hess(lambda: _group_deltas(xc, yc, group_size),
                                          theta)[0]
    if not math.isfinite(value):
        raise NumericalError(f"the g = {group_size} objective overflows at theta = {theta:g}")
    return value


def _groupwise_score_hess(delta_blocks, theta):
    """(objective, score, Hessian, groups) at theta.  Per group, with
    z = theta (S_P - S_id) over the stored contrasts and top = max(0, max z)
    (the identity's z is 0), log sum exp z = top + log(exp(-top)
    + sum exp(z - top)), and the sum is at least 1, so no exp can overflow.
    The Hessian is the weighted variance of the contrasts about their mean,
    the identity adding its weight times mean^2, which keeps its digits
    when one permutation carries nearly all the weight."""
    obj = score = hess = 0.0
    n_groups = 0
    for deltas in delta_blocks():
        w = theta * deltas
        top = np.maximum(w.max(axis=0), 0.0)
        w -= top
        np.exp(w, out=w)
        base = np.exp(-top)                         # the identity's term
        total = w.sum(axis=0)
        total += base
        mean_d = np.einsum("km,km->m", w, deltas)
        mean_d /= total
        dev = deltas - mean_d
        dev *= dev
        spread = np.einsum("km,km->m", w, dev)
        spread += base * mean_d * mean_d
        obj -= float(np.sum(top)) + float(np.sum(np.log(total)))
        score -= float(np.sum(mean_d))
        hess -= float(np.sum(spread / total))
        n_groups += deltas.shape[1]
    return obj, score, hess, n_groups


def fit_groupwise(data: ObservedDataset, group_size: int) -> PseudoLikResult:
    """Newton maximization of the groupwise objective from theta = 0
    (g = 2 is the pairwise fit)."""
    _group_cases(data, group_size)
    design = build_pairs(data)
    return fit_pairwise(design) if group_size == 2 else _fit(design, group_size)


def _fit(design: PairDesign, group_size: int, variance: bool = False) -> PseudoLikResult:
    """Newton maximization from theta = 0 of the pairwise (g = 2) or the
    groupwise objective.  Either has a finite maximizer iff some pair of
    complete cases is concordant (d > 0) and some pair discordant (d < 0).
    Over the distinct y values in increasing order, some pair is concordant
    iff the largest x at some y value is above the smallest x at the one
    before it: otherwise each y value's x range lies at or below the one
    before, so no two y values make a concordant pair (likewise for
    discordant pairs).  The cells are sorted by y and then by x, so a y
    value's smallest and largest x are the first and last of its run.  A
    groupwise fit keeps its permutation contrasts, C(n, g) (g! - 1) of them,
    and raises DomainError before it builds any index or contrast when they
    number more than _CACHED_CONTRASTS (g = 3 reaches n = 331, g = 4 n = 76).

    With ``variance`` (g = 2 only) the result carries the U-statistic
    sandwich.  A pass with row sums returns the same loglik, score and
    Hessian as one without, so each evaluation within _ROWS_STEP
    max(1, |theta|) of the one before, where quadratic convergence puts
    Newton's last, sums the rows too; the variance reads such a pass at
    theta_hat, or makes one there if there was none."""
    xc, yc, n, ties = design.xc, design.yc, design.n_complete, design.ties_dropped
    x, y, w = _cells(xc, yc)
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    lo, hi = x[starts], x[np.r_[starts[1:], len(x)] - 1]
    concordant = bool(np.any(hi[1:] > lo[:-1]))
    discordant = bool(np.any(lo[1:] < hi[:-1]))
    if not (concordant or discordant):
        raise DomainError("pair covariate v is identically zero")
    if not (concordant and discordant):
        direction = 1 if concordant else -1
        raise SeparationError("complete separation: estimate diverges to "
                              f"{'+' if direction > 0 else '-'}inf", direction=direction)
    if group_size == 2:
        ws = _Workspace(x, y, w)
        last = None     # (theta, sums, rows) of the last evaluation

        def kernel(t):
            nonlocal last
            rows = variance and last is not None and (
                abs(t - last[0]) <= _ROWS_STEP * max(1.0, abs(last[0])))
            last = t, _pass(ws, t, ties, rows), rows
            return last[1][:3]
        n_terms = n * (n - 1) // 2 - ties
    else:
        n_terms = math.comb(n, group_size)
        contrasts = n_terms * (math.factorial(group_size) - 1)
        if contrasts > _CACHED_CONTRASTS:
            raise DomainError(f"groupwise fit with g = {group_size} on {n} complete cases "
                              f"needs {contrasts:.3g} permutation contrasts, above the "
                              f"budget of {_CACHED_CONTRASTS:.3g}")
        kernel = lambda t: _groupwise_score_hess(lambda: cached, t)[:3]

    def evaluate(t):
        sums = kernel(t)
        if t == 0 and not all(map(math.isfinite, sums)):
            raise NumericalError(f"the g = {group_size} objective overflows at theta = 0")
        return sums
    # a product of the data that overflows makes the theta = 0 evaluation
    # non-finite, and the check above reports it in place of numpy's
    # warnings; at any other theta a merit that is not finite halves the step
    with np.errstate(over="ignore", invalid="ignore"):
        if group_size != 2:
            cached = list(_group_deltas(xc, yc, group_size))
        theta, it, _ = newton(evaluate, 0.0, n_terms, SCORE_TOL, "pseudo-likelihood fit")
        if variance and n >= 3 and not (last[2] and last[0] == theta):
            last = theta, _pass(ws, theta, ties, rows=True), True
    res = PseudoLikResult(theta_hat=float(theta), n_complete=n, n_total=design.n_total,
                          iterations=it, group_size=group_size,
                          ties_dropped=ties if group_size == 2 else None)
    if not variance:
        return res
    if n < 3:
        raise DataError("need at least 3 complete cases for the triple average")
    a_hat, b_hat, var = _sandwich(last[1], n)
    return dataclasses.replace(res, a_hat=a_hat, b_hat=b_hat, sandwich_var=var)


def _sandwich(sums: _PairSums, n: int) -> tuple[float, float, float]:
    """(a_hat, b_hat, b_hat / a_hat^2) from a pass with row sums over n
    complete cases; a value that is not positive and finite raises
    NumericalError."""
    a_hat = -2.0 * sums.hess / (n * (n - 1))
    b_hat = 4.0 * sums.triples / (n * (n - 1) * (n - 2))
    if a_hat <= 0 or not math.isfinite(a_hat):
        raise NumericalError("degenerate curvature: a_hat is not positive")
    if b_hat <= 0 or not math.isfinite(b_hat):
        raise NumericalError("degenerate score variance: b_hat is not positive")
    # a_hat ** 2 raises OverflowError where a_hat * a_hat is inf, and is 0
    # where it underflows
    var = b_hat / a_hat ** 2 if 0.0 < a_hat * a_hat < math.inf else math.nan
    if not 0.0 < var < math.inf:
        raise NumericalError(f"sandwich variance out of range (a_hat = {a_hat:g}, "
                             f"b_hat = {b_hat:g})")
    return a_hat, b_hat, var


def variance_ustat(data: ObservedDataset, theta_hat: float
                   ) -> tuple[float, float, float]:
    """(a_hat, b_hat, sandwich_var) at theta_hat from one kernel pass:
    a_hat averages d zeta_ik / d theta over ordered complete pairs, b_hat is
    4 times the average of zeta_ik zeta_il over ordered distinct triples."""
    if not math.isfinite(theta_hat):
        raise DomainError("theta_hat must be finite")
    xc, yc = data.complete_xy()
    n = len(xc)
    if n < 3:
        raise DataError("need at least 3 complete cases for the triple average")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _pass(_Workspace(*_cells(xc, yc)), theta_hat, rows=True)
    return _sandwich(sums, n)


def fit_pairwise_with_variance(data: ObservedDataset) -> PseudoLikResult:
    """The pairwise fit with its U-statistic sandwich (module docstring)."""
    return _fit(build_pairs(data), 2, variance=True)
