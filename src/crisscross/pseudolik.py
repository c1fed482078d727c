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
allocates the block temporaries once, as a workspace that every block of
every pass writes into.  Groupwise variants replace pairs by index groups
of size g in {2, 3, 4}, normalizing each group by the sum over the g!
permutations of its x values; g = 2 recovers the pairwise objective.  For g = 3 and 4 the
contrasts S_P - S_id of a block of groups are one matmul of a fixed +-1
matrix with the groups' outer products x_a y_b, stored permutation-major
as (g! - 1, m): the identity's contrast is always 0, so it has no row.

Asymptotics: with zeta_ik = d log(1 + Q_ik) / d theta = -d sigma,
sqrt(N) (theta_hat - theta_0) -> N(0, B / A^2) where A and B average
d zeta / d theta over pairs and 4 zeta_12 zeta_13 over triples (observed
ones).  d zeta / d theta is the Hessian term, so a_hat = -2 H / (n (n-1)),
and with zeta row sums R_i, b_hat = 4 (sum R_i^2 - sum_{i != k} zeta_ik^2)
/ (n (n-1) (n-2)), from one pass at theta_hat.  Over the cells, R_i is
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
_CACHED_CONTRASTS = 3e7  # groupwise fits regenerate contrasts above this count
                         # (g! - 1 per group)
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


class _PairSums(NamedTuple):
    loglik: float       # -sum softplus(-theta d), + log 2 per tied pair
    score: float        # sum d sigma
    hess: float         # -sum d^2 sigma (1 - sigma)
    triples: float      # sum_{i, k != l} zeta_ik zeta_il (rows=True)


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
    """Sum over size-g groups of -log sum_P exp(theta (S_P - S_id))."""
    xc, yc = _group_cases(data, group_size)
    if group_size == 2:     # the swap contrast is -d: the pair kernel's sum
        x, y, w = _cells(xc, yc)
        return _pass(x, y, w, theta, _workspace(len(x))).loglik
    return _groupwise_score_hess(lambda: _group_deltas(xc, yc, group_size), theta)[0]


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


def _fit(design: PairDesign, group_size: int) -> PseudoLikResult:
    """Newton maximization from theta = 0 of the pairwise (g = 2) or the
    groupwise objective.  Either has a finite maximizer iff some pair of
    complete cases is concordant (d > 0) and some pair discordant (d < 0).
    Over the distinct y values in increasing order, some pair is concordant
    iff the largest x at some y value is above the smallest x at the one
    before it: otherwise each y value's x range lies at or below the one
    before, so no two y values make a concordant pair (likewise for
    discordant pairs).  The cells are sorted by y and then by x, so a y
    value's smallest and largest x are the first and last of its run.  The
    groupwise permutation contrasts are kept when they fit in memory and
    regenerated per evaluation otherwise."""
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
        ws = _workspace(len(x))
        evaluate = lambda t: _pass(x, y, w, t, ws, ties)[:3]
        n_terms = n * (n - 1) // 2 - ties
    else:
        n_terms = math.comb(n, group_size)
        if n_terms * (math.factorial(group_size) - 1) <= _CACHED_CONTRASTS:
            cached = list(_group_deltas(xc, yc, group_size))
            delta_blocks = lambda: cached
        else:
            delta_blocks = lambda: _group_deltas(xc, yc, group_size)
        evaluate = lambda t: _groupwise_score_hess(delta_blocks, t)[:3]
    theta, it, _ = newton(evaluate, 0.0, n_terms, SCORE_TOL, "pseudo-likelihood fit")
    return PseudoLikResult(theta_hat=float(theta), n_complete=n, n_total=design.n_total,
                           iterations=it, group_size=group_size,
                           ties_dropped=ties if group_size == 2 else None)


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
    x, y, w = _cells(xc, yc)
    sums = _pass(x, y, w, theta_hat, _workspace(len(x)), rows=True)
    a_hat = -2.0 * sums.hess / (n * (n - 1))
    b_hat = 4.0 * sums.triples / (n * (n - 1) * (n - 2))
    if a_hat <= 0 or not math.isfinite(a_hat):
        raise NumericalError("degenerate curvature: a_hat is not positive")
    if b_hat <= 0 or not math.isfinite(b_hat):
        raise NumericalError("degenerate score variance: b_hat is not positive")
    return a_hat, b_hat, b_hat / a_hat ** 2


def fit_pairwise_with_variance(data: ObservedDataset) -> PseudoLikResult:
    res = fit_pairwise(build_pairs(data))
    a_hat, b_hat, var = variance_ustat(data, res.theta_hat)
    return dataclasses.replace(res, a_hat=a_hat, b_hat=b_hat, sandwich_var=var)
