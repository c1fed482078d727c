"""Influence-function estimation under the permutation submodel.

Adding the restriction "p(R_y = 1 | R_x, X) does not depend on X when
R_x = 0" to the criss-cross assumptions gives a nonparametrically
identified model in which any mean beta_h = E[h(X, Y)] can be estimated.
The plain weighting estimator is

    beta_ipw = mean[ R_x R_y h(X, Y) / (w(Y) pi*(R_x, X*)) ],

with w(y) = p(R_x = 1 | Y = y) and pi*(r, x) = p(R_y = 1 | R_x = r, X* = x),
where X* carries the observed X when R_x = 1 and the "?" token
otherwise (encoded as the feature pair (R_x, X * R_x)).

The efficient estimator augments in two stages.  With
m_h(y) = E[h | R_x = 1, Y = y] define

    phi_i = R_xi / w(y_i) * (h_i - m_h(y_i)) + m_h(y_i),

which is computable whenever it is needed (rows with R_y = 1 have y
observed, and the first term vanishes when R_x = 0).  With
m_phi(r, x*) = E[phi | R_y = 1, R_x = r, X* = x*] the contribution of
record i is

    R_yi / pi*_i * (phi_i - m_phi_i) + m_phi_i,

and beta_eif is the sample mean of these values; its SE is the sample
standard deviation over sqrt(N).  The nuisance functions are supplied
by the caller (fitted models or exact conditionals in tests); a
parametric default fitter is provided for convenience.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError
from .families import expit
from .gee import check_floor
from .model import ObservedDataset

MISSING_TOKEN = 0.0   # X* feature value used when R_x = 0 (paired with R_x)


@dataclass(frozen=True)
class PermutationNuisance:
    """Nuisance functions for the permutation-submodel estimator.

    w(y)             -> p(R_x = 1 | Y = y)
    pi_star(r, xs)   -> p(R_y = 1 | R_x = r, X* = xs); xs is the
                        observed x when r = 1 and MISSING_TOKEN when r = 0
    m_h(y)           -> E[h(X, Y) | R_x = 1, Y = y]
    m_phi(r, xs)     -> E[phi | R_y = 1, R_x = r, X* = xs]
    """

    w: Callable
    pi_star: Callable
    m_h: Callable
    m_phi: Callable


@dataclass(frozen=True)
class AipwResult:
    beta_eif: float
    se_eif: float
    beta_ipw: float
    influence_values: np.ndarray
    n_total: int


def _first_stage(data: ObservedDataset, h_c: np.ndarray, w: Callable,
                 m_h: Callable) -> np.ndarray:
    """phi = R_x / w(y) (h - m_h(y)) + m_h(y) on the rows with R_y = 1,
    given h_c, the values of h at the complete cases; w is floored there."""
    ym = data.r_y == 1
    y = data.y[ym]
    phi = np.array(m_h(y), dtype=float)
    both = data.complete_mask[ym]
    if np.any(both):
        phi[both] += (h_c - phi[both]) / check_floor(w(y[both]), "w")
    return phi


def aipw_permutation(data: ObservedDataset, h_fn: Callable,
                     nuisance: PermutationNuisance) -> AipwResult:
    """Two-stage augmented estimator of E[h(X, Y)] plus the plain IPW one."""
    n = data.n_total
    if n == 0:
        raise DataError("empty dataset")
    rx = data.r_x.astype(float)
    ry = data.r_y.astype(float)
    x_star = np.where(data.r_x == 1, data.x, MISSING_TOKEN)
    pi_star = check_floor(nuisance.pi_star(data.r_x, x_star), "pi_star")

    # plain weighting estimator over complete cases
    cm = data.complete_mask
    w_c = check_floor(nuisance.w(data.y[cm]), "w")
    h_c = np.asarray(h_fn(data.x[cm], data.y[cm]), dtype=float)
    beta_ipw = float(np.sum(h_c / (w_c * pi_star[cm])) / n)

    # first-stage augmentation phi, defined wherever R_y = 1 needs it
    phi = np.zeros(n)
    phi[data.r_y == 1] = _first_stage(data, h_c, nuisance.w, nuisance.m_h)

    m_phi = np.asarray(nuisance.m_phi(data.r_x, x_star), dtype=float)
    contrib = ry / pi_star * (phi - m_phi) + m_phi
    beta_eif = float(np.mean(contrib))
    influence = contrib - beta_eif
    se = float(np.std(influence, ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return AipwResult(beta_eif=beta_eif, se_eif=se, beta_ipw=beta_ipw,
                      influence_values=influence, n_total=n)


def fit_permutation_nuisances(data: ObservedDataset, h_fn: Callable
                              ) -> PermutationNuisance:
    """Parametric default fits: logistic w and pi*, linear regressions for
    the conditional means.  Exact conditionals should be supplied instead
    whenever they are available."""
    ym = data.r_y == 1
    if not np.any(ym) or not np.any(data.r_x == 1):
        raise DataError("need observed rows in both margins")
    from .glm import fit_logistic   # read at call time, like a wrapper patched onto glm
    w_fit = fit_logistic(np.column_stack([np.ones(ym.sum()), data.y[ym]]),
                         data.r_x[ym].astype(float))
    x_star = np.where(data.r_x == 1, data.x, MISSING_TOKEN)
    pi_design = np.column_stack([np.ones(data.n_total), data.r_x, x_star * data.r_x])
    pi_fit = fit_logistic(pi_design, data.r_y.astype(float))

    cm = data.complete_mask
    h_c = np.asarray(h_fn(data.x[cm], data.y[cm]), dtype=float)
    Xy = np.column_stack([np.ones(cm.sum()), data.y[cm]])
    mh_coef, *_ = np.linalg.lstsq(Xy, h_c, rcond=None)

    def w(y):
        return expit(w_fit.coef[0] + w_fit.coef[1] * np.asarray(y, dtype=float))

    def pi_star(r, xs):
        r = np.asarray(r, dtype=float)
        xs = np.asarray(xs, dtype=float)
        return expit(pi_fit.coef[0] + pi_fit.coef[1] * r + pi_fit.coef[2] * xs * r)

    def m_h(y):
        return mh_coef[0] + mh_coef[1] * np.asarray(y, dtype=float)

    # regression of phi on (1, r_x, x* r_x) among rows with y observed
    d_phi = np.column_stack([np.ones(int(ym.sum())), data.r_x[ym],
                             x_star[ym] * data.r_x[ym]])
    mphi_coef, *_ = np.linalg.lstsq(d_phi, _first_stage(data, h_c, w, m_h), rcond=None)

    def m_phi(r, xs):
        r = np.asarray(r, dtype=float)
        xs = np.asarray(xs, dtype=float)
        return mphi_coef[0] + mphi_coef[1] * r + mphi_coef[2] * xs * r

    return PermutationNuisance(w=w, pi_star=pi_star, m_h=m_h, m_phi=m_phi)
