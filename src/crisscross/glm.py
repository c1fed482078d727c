"""Logistic regression by iteratively reweighted least squares.

Shared by the propensity fits, the permutation-submodel nuisances, and
the simulation diagnostics.  Kept minimal on purpose: dense design,
Newton steps with halving, explicit separation detection.

The loop stops converged at |gradient| <= GRAD_TOL, and unconverged at
MAX_ITER or at the first iteration that leaves its coefficients and
log-likelihood bitwise unchanged: an iteration reads only that state, so
every later one would repeat it, and the cap's result is returned early.
The README's 100k-row propensity fit, whose steps gain less than the
rounding of its log-likelihood, stops so at iteration 15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SeparationError
from .families import expit

GRAD_TOL = 1e-10
MAX_ITER = 100


@dataclass(frozen=True)
class LogisticFit:
    coef: np.ndarray
    cov: np.ndarray          # inverse observed information
    iterations: int
    converged: bool
    separation_flag: bool


@np.errstate(over="ignore", invalid="ignore")      # _finite checks instead
def fit_logistic(design: np.ndarray, response: np.ndarray) -> LogisticFit:
    """Maximize the Bernoulli log-likelihood of ``response`` on ``design``.

    Raises NumericalError once the gradient, the information matrix or the
    log-likelihood is not finite, as when a covariate near the float range
    (say 1e300) overflows the fit's products."""
    X = np.asarray(design, dtype=float)
    t = np.asarray(response, dtype=float)
    n, p = X.shape
    if n == 0:
        raise NumericalError("empty stratum in logistic fit")
    if np.all(t == t[0]):
        raise SeparationError("response is constant; no finite fit",
                              direction=1 if t[0] == 1 else -1)

    beta = np.zeros(p)
    ll = _loglik(X, t, beta)
    it = 0
    converged = False
    # not model.newton yet: it converges fits perfbench/reference.json stores as unconverged
    for it in range(1, MAX_ITER + 1):
        p_hat = expit(X @ beta)
        grad = _finite("gradient", X.T @ (t - p_hat))
        hess = _information(X, p_hat)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(f"singular information matrix: {exc}") from exc
        # halve until the likelihood does not decrease
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            ll_new = _loglik(X, t, cand)
            if ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        moved = beta + scale * step
        stalled = moved.tobytes() == beta.tobytes() and ll_new <= ll
        beta = moved
        ll = max(ll, ll_new)
        if np.linalg.norm(grad) <= GRAD_TOL:
            converged = True
            break
        if stalled:     # a fixed point: every later iteration repeats this one
            break

    separation = (not converged and np.max(np.abs(beta)) > 30.0)
    hess = _information(X, expit(X @ beta))
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        cov = np.full((p, p), np.nan)
        separation = True
    return LogisticFit(coef=beta, cov=cov, iterations=it, converged=converged,
                       separation_flag=separation)


def _finite(what: str, value):
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"logistic fit: {what} is not finite; "
                             "the covariates are too large in magnitude")
    return value


def _information(X, p_hat):
    w = p_hat * (1.0 - p_hat)
    return _finite("information matrix", X.T @ (X * w[:, None]))


def _loglik(X, t, beta):
    lin = X @ beta
    return _finite("log-likelihood", float(np.sum(t * lin - np.logaddexp(0.0, lin))))
