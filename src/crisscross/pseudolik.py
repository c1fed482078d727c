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
score sum d sigma and the Hessian H = -sum d^2 sigma (1 - sigma).  One
kernel pass gives all three, streaming the upper triangle of the d matrix
in row blocks of about ``_BLOCK`` cells: memory is bounded by a block,
not by the n_c^2 pairs.  Each fit allocates the block temporaries once,
as a workspace that every block of every pass writes into.  Groupwise
variants replace pairs by index groups of size g in {2, 3, 4},
normalizing each group by the sum over the g! permutations of its x
values; g = 2 recovers the pairwise objective.

Asymptotics: with zeta_ik = d log(1 + Q_ik) / d theta = -d sigma,
sqrt(N) (theta_hat - theta_0) -> N(0, B / A^2) where A and B average
d zeta / d theta over pairs and 4 zeta_12 zeta_13 over triples (observed
ones).  d zeta / d theta is the Hessian term, so a_hat = -2 H / (n (n-1)),
and with zeta row sums R_i, b_hat = 4 (sum R_i^2 - sum_{i != k} zeta_ik^2)
/ (n (n-1) (n-2)), from one pass at theta_hat.  Var(theta_hat) ~=
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
from .model import ObservedDataset

SCORE_TOL = 1e-8
MAX_ITER = 100
_BLOCK = 1 << 16        # d-matrix cells (or group contrasts) per kernel block
_CACHED_CONTRASTS = 3e7  # groupwise fits regenerate contrasts above this count
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
    converged: bool
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


def _workspace(n):
    """(rows per block, lower-triangle mask of a full block, a buffer of six
    rows of at least rows n cells for the block temporaries).  A fit makes
    one and every block of every pass writes into it, so a fit faults its
    block memory in once, not once per block."""
    rows = min(n, max(1, _BLOCK // n))
    # each buffer row starts on a 64-byte cache line (np.empty aligns to 16
    # bytes only): a vector load that straddles two lines is slower
    width = -(-rows * n // 8) * 8
    raw = np.empty(6 * width + 8)
    start = -raw.ctypes.data % 64 // 8
    return rows, np.tri(rows, dtype=bool), raw[start:start + 6 * width].reshape(6, width)


def _blocks(xc, yc, ws):
    """Yield (r0, views): six (m, n - r0) views of the workspace buffer.
    The first is d[a, b] = d_ik for i = r0 + a, k = r0 + b, a block of rows
    by the columns from r0 on, zero on and below the diagonal; the other
    five are scratch for the pass."""
    n = len(xc)
    rows, lower, buf = ws
    for r0 in range(0, n - 1, rows):
        m = min(rows, n - r0)
        views = [b[:m * (n - r0)].reshape(m, n - r0) for b in buf]
        d, dy = views[:2]
        np.subtract.outer(xc[r0:r0 + m], xc[r0:], out=d)
        np.subtract.outer(yc[r0:r0 + m], yc[r0:], out=dy)
        d *= dy
        d[:, :m][lower[:m, :m]] = 0.0
        yield r0, views


class _PairSums(NamedTuple):
    loglik: float       # -sum softplus(-theta d), + log 2 per tied pair
    score: float        # sum d sigma
    hess: float         # -sum d^2 sigma (1 - sigma)
    n_pos: int          # pairs with d > 0 / d < 0 (signs=True)
    n_neg: int
    triples: float      # sum_{i, k != l} zeta_ik zeta_il (rows=True)


def _pass(xc, yc, theta, ws, ties=0, signs=False, rows=False) -> _PairSums:
    """One kernel pass at theta in the workspace ws.  With a = |theta|,
    s = sign(theta), e = exp(-a |d|) and q = 1 / (1 + e): softplus(-theta d)
    = max(-theta d, 0) + log1p(e), d sigma = (d + s |d|) / 2 - s |d| q and
    sigma (1 - sigma) = e q^2, so sums of d and |d| carry the sign parts."""
    n = len(xc)
    a, s = abs(theta), (-1.0 if theta < 0 else 1.0)
    sum_d = sum_ad = sum_log = sum_r = sum_h = zeta_sq = 0.0
    cells = n_pos = n_neg = 0
    zeta_rows = np.zeros(n) if rows else None
    # r first holds the y differences and log1p(e), so a pass without row
    # sums keeps four block arrays in cache, not six
    for r0, (d, r, ad, e, zeta, tmp) in _blocks(xc, yc, ws):
        cells += d.size
        if signs:
            n_pos += int(np.count_nonzero(d > 0))
            n_neg += int(np.count_nonzero(d < 0))
        np.abs(d, out=ad)
        sum_d += float(d.sum())
        sum_ad += float(ad.sum())
        np.multiply(ad, -a, out=e)
        np.exp(e, out=e)
        sum_log += float(np.log1p(e, out=r).sum())
        np.add(e, 1.0, out=r)
        np.divide(ad, r, out=r)                     # r = |d| q
        sum_r += float(r.sum())
        if rows:        # zeta = 0.5 ((2 s) r - s |d| - d)
            np.multiply(r, 2.0 * s, out=zeta)
            zeta -= np.multiply(ad, s, out=tmp)
            zeta -= d
            zeta *= 0.5
            zeta_rows[r0:r0 + len(d)] += zeta.sum(axis=1)
            zeta_rows[r0:] += zeta.sum(axis=0)
            zeta_sq += float(np.einsum("ij,ij->", zeta, zeta))
        r *= r
        sum_h += float(np.einsum("ij,ij->", r, e))
    padding = cells - n * (n - 1) // 2 + ties     # d = 0 cells: log 2 each
    loglik = (theta * sum_d - a * sum_ad) / 2.0 - sum_log + padding * _LOG2
    score = (sum_d + s * sum_ad) / 2.0 - s * sum_r
    triples = float(np.sum(zeta_rows ** 2)) - 2.0 * zeta_sq if rows else 0.0
    return _PairSums(loglik, score, -sum_h, n_pos, n_neg, triples)


def _newton(evaluate, start, n_terms, label):
    """Damped Newton ascent from theta = 0 with start = evaluate(0) =
    (objective, score, Hessian); returns (theta, iterations, converged).
    Stops at |score| / n_terms <= SCORE_TOL (the raw sum sits at roundoff
    long before that for large n).  An accepted candidate's evaluation
    supplies the next score and Hessian."""
    theta, it, converged = 0.0, 0, False
    obj, score, hess = start
    for it in range(1, MAX_ITER + 1):
        if abs(score) / n_terms <= SCORE_TOL:
            converged = True
            break
        if hess >= 0:
            raise NumericalError(f"{label} Hessian not negative definite")
        step = -score / hess
        scale = 1.0
        for _ in range(50):
            obj_new, score_new, hess_new = evaluate(theta + scale * step)
            if obj_new >= obj - 1e-12 * max(1.0, abs(obj)):
                break
            scale *= 0.5
        else:       # halvings exhausted: the next theta is not yet evaluated
            _, score_new, hess_new = evaluate(theta + scale * step)
        if abs(scale * step) <= 1e-15 * max(1.0, abs(theta)):
            break
        theta += scale * step
        obj = max(obj, obj_new)
        score, hess = score_new, hess_new
    return theta, it, converged


def fit_pairwise(design: PairDesign) -> PseudoLikResult:
    """Newton maximization of the pairwise objective (the logistic
    log-likelihood over untied pairs) from theta = 0; the theta = 0 pass
    also checks for a zero covariate and for separation."""
    xc, yc, n, ties = design.xc, design.yc, design.n_complete, design.ties_dropped
    ws = _workspace(n)
    start = _pass(xc, yc, 0.0, ws, ties, signs=True)
    if start.n_pos + start.n_neg == 0:
        raise DomainError("pair covariate v is identically zero")
    if start.n_neg == 0 or start.n_pos == 0:
        direction = 1 if start.n_neg == 0 else -1
        raise SeparationError("complete separation: estimate diverges to "
                              f"{'+' if direction > 0 else '-'}inf", direction=direction)
    theta, it, converged = _newton(lambda t: _pass(xc, yc, t, ws, ties)[:3], start[:3],
                                   n * (n - 1) // 2 - ties, "pairwise")
    return PseudoLikResult(theta_hat=theta, n_complete=n, n_total=design.n_total,
                           iterations=it, converged=converged,
                           ties_dropped=design.ties_dropped)


def _index_blocks(n, group_size, chunk):
    """Yield (m, g) integer arrays covering all size-g index combinations."""
    if group_size == 3:
        for i in range(n - 2):
            j, k = np.triu_indices(n - i - 1, 1)
            idx = np.column_stack([np.full(j.size, i), j + i + 1, k + i + 1])
            for start in range(0, len(idx), chunk):
                yield idx[start:start + chunk]
        return
    combos = itertools.combinations(range(n), group_size)
    while block := list(itertools.islice(combos, chunk)):
        yield np.array(block)


def _group_deltas(xc, yc, group_size):
    """Yield (m, g!) arrays of S_P - S_id over index combinations, at most
    _BLOCK contrasts per array."""
    perms = list(itertools.permutations(range(group_size)))
    for idx in _index_blocks(len(xc), group_size, _BLOCK // len(perms)):
        xg, yg = xc[idx], yc[idx]                   # (m, g)
        s_id = np.sum(xg * yg, axis=1)
        deltas = np.empty((len(idx), len(perms)))
        for j, perm in enumerate(perms):
            deltas[:, j] = np.sum(xg[:, perm] * yg, axis=1) - s_id
        yield deltas


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
        return _pass(xc, yc, theta, _workspace(len(xc))).loglik
    return _groupwise_score_hess(lambda: _group_deltas(xc, yc, group_size), theta)[0]


def _groupwise_score_hess(delta_blocks, theta):
    """(objective, score, Hessian, groups) at theta.  Per group, with
    z = theta (S_P - S_id) and its row maximum top >= 0 (the identity
    contrast is 0), log sum exp z = top + log sum exp(z - top), and the sum
    is at least 1, so one exp per contrast cannot overflow.  The Hessian is
    the weighted variance of the contrasts about their mean, which keeps its
    digits when one permutation carries nearly all the weight."""
    obj = score = hess = 0.0
    n_groups = 0
    for deltas in delta_blocks():
        w = theta * deltas
        top = w.max(axis=1)
        w -= top[:, None]
        np.exp(w, out=w)
        total = w.sum(axis=1)
        w /= total[:, None]
        mean_d = np.einsum("ij,ij->i", w, deltas)
        dev = deltas - mean_d[:, None]
        dev *= dev
        obj -= float(np.sum(top + np.log(total)))
        score -= float(np.sum(mean_d))
        hess -= float(np.einsum("ij,ij->", w, dev))
        n_groups += len(deltas)
    return obj, score, hess, n_groups


def fit_groupwise(data: ObservedDataset, group_size: int) -> PseudoLikResult:
    """Newton maximization of the groupwise objective from theta = 0
    (g = 2 is the pairwise fit).  The permutation contrasts are kept when
    they fit in memory and regenerated per evaluation otherwise."""
    xc, yc = _group_cases(data, group_size)
    if group_size == 2:
        return fit_pairwise(build_pairs(data))

    n = len(xc)
    total = math.comb(n, group_size) * math.factorial(group_size)
    if total <= _CACHED_CONTRASTS:
        cached = list(_group_deltas(xc, yc, group_size))
        delta_blocks = lambda: cached
    else:
        delta_blocks = lambda: _group_deltas(xc, yc, group_size)
    start = _groupwise_score_hess(delta_blocks, 0.0)
    theta, it, converged = _newton(lambda t: _groupwise_score_hess(delta_blocks, t)[:3],
                                   start[:3], start[3], "groupwise")
    return PseudoLikResult(theta_hat=theta, n_complete=n,
                           n_total=data.n_total, iterations=it,
                           converged=converged, group_size=group_size)


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
    sums = _pass(xc, yc, theta_hat, _workspace(n), rows=True)
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
