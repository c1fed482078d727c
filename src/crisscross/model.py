"""Core model types: target-law parameters, missingness mechanism,
observed datasets, the pairwise odds-ratio kernel, and the damped-Newton
solver shared by the pseudo-likelihood and GEE fits, which either stops at
a maximizer or root or raises NumericalError, and ``ESTIMATORS``, the one
table of estimation methods that the CLI and the studies both run.

The data model is a pair (X, Y) with missingness indicators (R_x, R_y)
obeying the criss-cross restrictions R_x _||_ X | Y and
R_y _||_ Y | X, R_x.  Only the coarsened values are observable: a value
is present exactly when its indicator is 1.

The pairwise kernel Q is the inverse odds ratio between two complete
records,

    Q(x_i, y_i; x_k, y_k; theta) = exp(-theta * (x_i - x_k) * (y_i - y_k)),

and is all the structure the pseudo-likelihood estimators ever need: for
X | Y normal theta = beta / sigma^2, for binary data theta = log OR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DomainError, NumericalError
from .families import Family, Link, expit

NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class ExpFamilySpec:
    """Declares the parametric families of X and Y | X and the link."""

    family_x: Family
    family_y_given_x: Family
    link: Link = Link.CANONICAL
    known_nuisance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "family_x", Family(self.family_x))
        object.__setattr__(self, "family_y_given_x", Family(self.family_y_given_x))
        object.__setattr__(self, "link", Link(self.link))
        if self.family_y_given_x in (Family.MULTIVARIATE_NORMAL, Family.MULTINOMIAL):
            raise DomainError("Y | X must be a univariate family")


@dataclass(frozen=True)
class TargetLawParams:
    """Parameters of p(X) and p(Y | X): (alpha, beta, Phi, eta_x, Phi_x).

    ``beta`` and ``eta_x`` are vectors (length 1 in univariate mode).
    ``mu_x`` / ``sigma_x`` are used only by the multivariate-normal X
    extension, where ``sigma_x`` is the known covariance.
    """

    alpha: float
    beta: np.ndarray
    phi: float
    eta_x: np.ndarray
    phi_x: float = 1.0
    mu_x: np.ndarray | None = None
    sigma_x: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "eta_x", np.atleast_1d(np.asarray(self.eta_x, dtype=float)))
        if not self.phi > 0:
            raise DomainError(f"dispersion phi must be positive, got {self.phi}")
        if not self.phi_x > 0:
            raise DomainError(f"dispersion phi_x must be positive, got {self.phi_x}")
        if self.mu_x is not None:
            object.__setattr__(self, "mu_x", np.atleast_1d(np.asarray(self.mu_x, dtype=float)))
        if self.sigma_x is not None:
            sig = np.atleast_2d(np.asarray(self.sigma_x, dtype=float))
            if not np.allclose(sig, sig.T):
                raise DomainError("sigma_x must be symmetric")
            if np.any(np.linalg.eigvalsh(sig) <= 0):
                raise DomainError("sigma_x must be positive definite")
            object.__setattr__(self, "sigma_x", sig)


@dataclass(frozen=True)
class MissingnessMechanism:
    """Expit-linear (optionally quadratic) selection models.

    ``rx_given_y``       -- (intercept, y, [y^2]) for p(R_x = 1 | Y)
    ``ry_given_x_rx``    -- (intercept, r_x, x, [x^2]) for p(R_y = 1 | X, R_x)
    """

    rx_given_y: tuple
    ry_given_x_rx: tuple

    def __post_init__(self):
        rx = tuple(float(v) for v in self.rx_given_y)
        ry = tuple(float(v) for v in self.ry_given_x_rx)
        if len(rx) not in (2, 3):
            raise DomainError("rx_given_y needs (intercept, y[, y^2]) coefficients")
        if len(ry) not in (3, 4):
            raise DomainError("ry_given_x_rx needs (intercept, r_x, x[, x^2]) coefficients")
        if not all(math.isfinite(v) for v in rx + ry):
            raise DomainError("mechanism coefficients must be finite")
        object.__setattr__(self, "rx_given_y", rx)
        object.__setattr__(self, "ry_given_x_rx", ry)

    def p_rx(self, y):
        c = self.rx_given_y
        t = c[0] + c[1] * np.asarray(y, dtype=float)
        if len(c) == 3:
            t = t + c[2] * np.asarray(y, dtype=float) ** 2
        return expit(t)

    def p_ry(self, x, r_x):
        c = self.ry_given_x_rx
        x = np.asarray(x, dtype=float)
        t = c[0] + c[1] * np.asarray(r_x, dtype=float) + c[2] * x
        if len(c) == 4:
            t = t + c[3] * x ** 2
        return expit(t)


@dataclass(frozen=True)
class ObservedDataset:
    """Coarsened records: x is NaN iff r_x = 0 and y is NaN iff r_y = 0, and
    every present value is finite."""

    x: np.ndarray
    y: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        r_x = np.asarray(self.r_x, dtype=np.int8)
        r_y = np.asarray(self.r_y, dtype=np.int8)
        if not (len(x) == len(y) == len(r_x) == len(r_y)):
            raise DataError("column lengths differ")
        if not np.all((r_x == 0) | (r_x == 1)) or not np.all((r_y == 0) | (r_y == 1)):
            raise DataError("missingness indicators must be 0/1")
        if np.any(np.isnan(x) != (r_x == 0)):
            raise DataError("coarsening violated: x present iff r_x = 1")
        if np.any(np.isnan(y) != (r_y == 0)):
            raise DataError("coarsening violated: y present iff r_y = 1")
        if np.any(np.isinf(x)) or np.any(np.isinf(y)):
            raise DataError("present values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "r_x", r_x)
        object.__setattr__(self, "r_y", r_y)

    @property
    def n_total(self) -> int:
        return len(self.x)

    @property
    def complete_mask(self) -> np.ndarray:
        return (self.r_x == 1) & (self.r_y == 1)

    @property
    def n_complete(self) -> int:
        return int(self.complete_mask.sum())

    def complete_xy(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.complete_mask
        return self.x[m], self.y[m]


@dataclass(frozen=True)
class PairKernel:
    """Inverse-odds-ratio kernel parameterized by a single scalar."""

    theta: float


def eval_q(kernel: PairKernel, pair_i: tuple, pair_k: tuple) -> float:
    """Inverse odds ratio exp(-theta * (x_i - x_k) * (y_i - y_k))."""
    x_i, y_i = pair_i
    x_k, y_k = pair_k
    if not all(math.isfinite(v) for v in (x_i, y_i, x_k, y_k)):
        raise DomainError("eval_q requires finite coordinates")
    return float(np.exp(-kernel.theta * (x_i - x_k) * (y_i - y_k)))


def derive_conditional(mu1: float, mu2: float, sigma1: float, sigma2: float,
                       rho: float) -> tuple[float, float, float]:
    """Conditional X | Y of a bivariate normal with Y first.

    Returns (alpha, beta, sigma2_cond) with E[X | Y=y] = alpha + beta*y and
    Var(X | Y) = sigma2_cond.
    """
    if not all(map(math.isfinite, (mu1, mu2, sigma1, sigma2))):
        raise DomainError("means and standard deviations must be finite")
    if not (sigma1 > 0 and sigma2 > 0):
        raise DomainError("standard deviations must be positive")
    if not abs(rho) < 1:
        raise DomainError("correlation must satisfy |rho| < 1")
    beta = rho * sigma2 / sigma1
    alpha = mu2 - beta * mu1
    try:
        sigma2_cond = (1.0 - rho ** 2) * sigma2 ** 2
    except OverflowError:
        sigma2_cond = math.inf
    if not (math.isfinite(alpha) and math.isfinite(beta) and 0 < sigma2_cond < math.inf):
        raise DomainError("the law of X | Y overflows or degenerates at these "
                          "means and standard deviations")
    return alpha, beta, sigma2_cond


def or_from_theta(theta_hat: float, theta_se: float, contrast: float = 1.0
                  ) -> tuple[float, float]:
    """Odds ratio and delta-method SE at a fixed pair contrast, from theta
    and its SE; both must be finite."""
    if theta_se < 0:
        raise DomainError("theta_se must be nonnegative")
    try:
        point = math.exp(theta_hat * contrast)
    except OverflowError:
        point = math.inf
    se = point * abs(contrast) * theta_se
    if not (math.isfinite(point) and math.isfinite(se)):
        raise NumericalError(f"odds ratio at log-odds {theta_hat * contrast!r} "
                             "or its SE is not finite")
    return point, se


def norm(v) -> float:
    """Euclidean norm; math.hypot scales where np.linalg.norm squares and overflows."""
    return math.hypot(*np.ravel(v))


def newton(evaluate, theta0, n_terms: int, tol: float, label: str):
    """Damped Newton iteration toward a root of g from theta0, where
    evaluate(theta) = (merit, g, J = dg/dtheta); returns (theta, iterations,
    g) at a maximizer or root, theta scalar if theta0 is, and raises
    NumericalError on any other stop: an estimate (and an SE) anywhere else
    means nothing.

    A step solves J step = -g.  The full step may lower the merit by
    roundoff, 1e-12 max(1, |merit|); a halved one (at most 50 halvings) may
    not, so a direction that only lowers it cannot creep on that slack.
    Converged at |g| / n_terms <= tol (a raw sum of n_terms terms sits at
    roundoff long before that for large n) with a pending step of at most
    1e-6 max(1, |theta|): near separation the score is tiny long before
    theta stops moving.  A step no halving keeps, one below
    1e-15 max(1, |theta|), or NEWTON_MAX_ITER iterations stop it unconverged."""
    theta, it = theta0, 0
    merit, g, J = evaluate(theta0)
    for it in range(1, NEWTON_MAX_ITER + 1):
        try:
            step = np.linalg.solve(np.atleast_2d(J), -np.atleast_1d(g))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{label}: singular Newton system: {exc}") from exc
        step = step.reshape(np.shape(theta))
        size = norm(theta)
        if norm(g) / n_terms <= tol and norm(step) <= 1e-6 * max(1.0, size):
            return theta, it, g
        scale, slack = 1.0, 1e-12 * max(1.0, abs(merit))
        for _ in range(51):
            cand = evaluate(theta + scale * step)
            if cand[0] >= merit - slack:
                break
            scale, slack = 0.5 * scale, 0.0
        else:
            break
        if norm(scale * step) <= 1e-15 * max(1.0, size):
            break
        theta = theta + scale * step
        merit, g, J = cand
    shown = ", ".join(f"{t:g}" for t in np.atleast_1d(theta))
    raise NumericalError(f"{label} did not converge (theta = {shown} "
                         f"after {it} iterations)")


# --------------------------------------------------------------------- #
# the estimator table
# --------------------------------------------------------------------- #

class Estimator(NamedTuple):
    """The CLI options a method reads, ``names(options)``, its estimates' keys,
    and ``fit(data, options, point_only=False)``, which imports its layer when
    it runs and returns (estimates, SEs, report): the estimates and SEs by
    name, with "log_or", the log odds ratio at unit pair contrast, where the
    method has one, and the report ``estimate`` prints.  ``point_only`` skips
    the variance pass and the report: a bootstrap resample needs neither."""
    options: frozenset
    names: Callable
    fit: Callable


def _or_unit(log_or: float, se: float | None) -> dict:
    point, or_se = or_from_theta(log_or, 0.0 if se is None else se)
    return {"point": point} if se is None else {"point": point, "se": or_se}


def _fit_pseudolik(data: ObservedDataset, options: dict, point_only=False) -> tuple:
    from . import pseudolik
    g = options.get("group_size", 2)
    res = (pseudolik.fit_groupwise(data, g) if g != 2 or point_only
           else pseudolik.fit_pairwise_with_variance(data))
    theta, se = res.theta_hat, res.se
    if point_only:
        payload = {}
    elif g == 2:
        payload = {"theta_hat": theta, "se": se, "a_hat": res.a_hat, "b_hat": res.b_hat,
                   "sandwich_var": res.sandwich_var, "iterations": res.iterations,
                   "converged": True, "ties_dropped": res.ties_dropped,
                   "or_unit_contrast": _or_unit(theta, se)}
    else:
        payload = {"theta_hat": theta, "group_size": g, "iterations": res.iterations,
                   "converged": True, "or_unit_contrast": _or_unit(theta, se)}
    return ({"theta": theta, "log_or": theta},
            {} if se is None else {"theta": se, "log_or": se}, payload)


def _gee_names(options: dict) -> tuple:
    """The free coefficients, and log_or = beta / sigma2 where beta is free
    and sigma2 given."""
    from .gee import NormalLinear
    names = NormalLinear(known=options.get("known", {})).free_names
    return names + ("log_or",) * ("beta" in names and options.get("sigma2") is not None)


def _fit_gee(data: ObservedDataset, options: dict, point_only=False, optimal=False
             ) -> tuple:
    """The optimal GEE's pilot is ``options["pilot"]`` or the plain-weight fit."""
    from .gee import NonOptimalF, NormalLinear, fit_propensity, optimal_f, solve_gee
    sigma2 = options.get("sigma2")
    if optimal and sigma2 is None:
        raise ConfigError("optimal GEE needs --sigma2")
    model = NormalLinear(known=options.get("known", {}), sigma2=sigma2)
    pi_model = fit_propensity(data)
    weight = NonOptimalF()
    if optimal:
        pilot = options.get("pilot")
        if pilot is None:
            pilot = solve_gee(data, model, pi_model, weight).theta_hat
        weight = optimal_f(pi_model, pilot)
    res = solve_gee(data, model, pi_model, weight)
    est = dict(zip(res.param_names, res.theta_hat.tolist()))
    ses = {} if res.sandwich_cov is None else dict(zip(res.param_names, res.se().tolist()))
    payload = {} if point_only else {
        "estimates": dict(est), "residual_norm": res.residual_norm,
        "iterations": res.iterations, "converged": True,
        "propensity": {"coefficients": pi_model.coefficients.tolist(),
                       "converged": pi_model.converged,
                       "separation": pi_model.separation_flag},
        **({"se": dict(ses), "sandwich_cov": res.sandwich_cov.tolist()} if ses else {})}
    if "log_or" in _gee_names(options):
        # Python floats: a tiny sigma2 overflows theta to inf without a warning
        est["log_or"] = est["beta"] / sigma2
        if ses:
            ses["log_or"] = ses["beta"] / sigma2
        if payload:
            payload["or_unit_contrast"] = _or_unit(est["log_or"], ses.get("log_or"))
    return est, ses, payload


def _fit_binary_2x2(data: ObservedDataset, options: dict, point_only=False) -> tuple:
    from .gee import estimate_binary_2x2, fit_propensity
    res = estimate_binary_2x2(data, options["theta11"], fit_propensity(data))
    log_or, se = res.log_odds_ratio, res.log_odds_ratio_se
    cells = dict(zip(("theta12", "theta21", "theta22"), res.cells))
    payload = {} if point_only else {
        "theta11": res.theta11, "cells": cells, "log_or": log_or, "log_or_se": se,
        "converged": True, "iterations": res.gee.iterations}
    return {"log_or": log_or, **cells}, {} if se is None else {"log_or": se}, payload


# The first three rows are the study methods.
ESTIMATORS = {
    "pseudolik": Estimator(frozenset({"group_size"}), lambda o: ("theta", "log_or"),
                           _fit_pseudolik),
    "gee_nonoptimal": Estimator(frozenset({"f", "known", "sigma2"}), _gee_names,
                                _fit_gee),
    "gee_optimal": Estimator(frozenset({"f", "known", "sigma2"}), _gee_names,
                             partial(_fit_gee, optimal=True)),
    "binary_2x2": Estimator(frozenset({"theta11"}),
                            lambda o: ("log_or", "theta12", "theta21", "theta22"),
                            _fit_binary_2x2),
}
