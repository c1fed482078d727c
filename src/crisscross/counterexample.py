"""Numerical witness that the target law is not identified.

Two full laws over (X, Y, R_x, R_y) share every observed-data object:

  Model 1: Y ~ N(1, 1)
  Model 2: Y ~ N(1, 6/5)

both with X | Y ~ N(y, 1) and selection probabilities built from scaled
normal densities,

  p_m(R_x = 1 | y):  sqrt(5/6) / D(y)   vs   exp(-(y-1)^2/12) / D(y),
  D(y) = sqrt(5/6) + exp(-(y-1)^2/12),

  p(R_y = 1 | x, R_x = 1) = N(x; 0, 1)   (same in both),
  p_1(R_y = 1 | x, R_x = 0) = N(x; 5, 5),
  p_2(R_y = 1 | x, R_x = 0) = exp(-8/9) * (2*sqrt(3)/5) * N(x; 7/3, 1).

Here N(.; mu, v) is the normal density, which is a valid probability
(its sup is below one for these variances).  The verification computes,
by quadrature, the observed-law objects of all four missingness
patterns and confirms they agree across models while the marginal
Y-variances (1 vs 6/5) do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

GRID_LO, GRID_HI = -8.0, 10.0
_SQ56 = math.sqrt(5.0 / 6.0)
_MODEL2_RY0_CONST = math.exp(-8.0 / 9.0) * 2.0 * math.sqrt(3.0) / 5.0


def _npdf(z, mu=0.0, var=1.0):
    return np.exp(-0.5 * (np.asarray(z, dtype=float) - mu) ** 2 / var) \
        / math.sqrt(2.0 * math.pi * var)


def _denom(y):
    return _SQ56 + np.exp(-((np.asarray(y, dtype=float) - 1.0) ** 2) / 12.0)


class _Model:
    def __init__(self, which: int):
        self.which = which
        self.y_var = 1.0 if which == 1 else 6.0 / 5.0

    def p_y(self, y):
        return _npdf(y, 1.0, self.y_var)

    def p_x_given_y(self, x, y):
        return _npdf(x, np.asarray(y, dtype=float), 1.0)

    def p_rx1(self, y):
        num = _SQ56 if self.which == 1 else np.exp(-((np.asarray(y) - 1.0) ** 2) / 12.0)
        return num / _denom(y)

    def p_ry1(self, x, rx: int):
        if rx == 1:
            return _npdf(x, 0.0, 1.0)
        if self.which == 1:
            return _npdf(x, 5.0, 5.0)
        return _MODEL2_RY0_CONST * _npdf(x, 7.0 / 3.0, 1.0)


MODEL1 = _Model(1)
MODEL2 = _Model(2)


@dataclass(frozen=True)
class CounterexampleReport:
    max_abs_discrepancy: dict       # per pattern "11", "10", "01", "00"
    target_law_variances: tuple     # (Var_1(Y), Var_2(Y))
    grid: tuple                     # (lo, hi, step)

    @property
    def observed_laws_match(self) -> bool:
        return max(self.max_abs_discrepancy.values()) < 1e-6


def _quad(f, a, b, tol):
    from scipy.integrate import quad    # deferred: no other command needs scipy
    val, err = quad(f, a, b, epsabs=tol, epsrel=1e-8, limit=200)
    if not math.isfinite(val) or err > max(1e3 * tol, 1e-6):
        raise NumericalError(f"quadrature did not converge (err={err!r})")
    return val


def verify_counterexample(step: float = 0.05, quad_tol: float = 1e-9
                          ) -> CounterexampleReport:
    """Max observed-law discrepancy between the two models, per pattern, on
    the grid [GRID_LO, GRID_HI] with spacing ``step``."""
    if not 0 < step <= 0.05:
        raise DomainError(f"grid step must lie in (0, 0.05], got {step!r}")
    if not 0 < quad_tol < math.inf:
        raise DomainError(f"quadrature tolerance must be finite and > 0: {quad_tol!r}")
    grid = np.arange(GRID_LO, GRID_HI + step / 2, step)
    # every density factor is a Gaussian centered inside the grid, so
    # integration can stop a dozen units past it (tail mass << quad_tol)
    int_lo, int_hi = GRID_LO - 12.0, GRID_HI + 12.0

    # pattern (1,1): joint density over the 2-d grid, closed form
    xg, yg = np.meshgrid(grid, grid)
    f1 = MODEL1.p_y(yg) * MODEL1.p_x_given_y(xg, yg) * MODEL1.p_rx1(yg) * MODEL1.p_ry1(xg, 1)
    f2 = MODEL2.p_y(yg) * MODEL2.p_x_given_y(xg, yg) * MODEL2.p_rx1(yg) * MODEL2.p_ry1(xg, 1)
    d11 = float(np.max(np.abs(f1 - f2)))

    # pattern (1,0): x observed, y integrated out
    def dens_10(model, x):
        return _quad(lambda y: model.p_y(y) * model.p_x_given_y(x, y)
                     * model.p_rx1(y) * (1.0 - model.p_ry1(x, 1)),
                     int_lo, int_hi, quad_tol)

    d10 = max(abs(dens_10(MODEL1, x) - dens_10(MODEL2, x)) for x in grid)

    # pattern (0,1): y observed, x integrated out
    def dens_01(model, y):
        inner = _quad(lambda x: model.p_x_given_y(x, y) * model.p_ry1(x, 0),
                      int_lo, int_hi, quad_tol)
        return model.p_y(y) * (1.0 - model.p_rx1(y)) * inner

    d01 = max(abs(dens_01(MODEL1, y) - dens_01(MODEL2, y)) for y in grid)

    # pattern (0,0): total mass, with the inner x-integral nested in y
    def mass_00(model):
        def inner(y):
            return _quad(lambda x: model.p_x_given_y(x, y)
                         * (1.0 - model.p_ry1(x, 0)), int_lo, int_hi, quad_tol)
        return _quad(lambda y: model.p_y(y) * (1.0 - model.p_rx1(y)) * inner(y),
                     int_lo, int_hi, math.sqrt(quad_tol))

    d00 = abs(mass_00(MODEL1) - mass_00(MODEL2))

    def y_variance(model):
        mean = _quad(lambda y: y * model.p_y(y), int_lo, int_hi, quad_tol)
        second = _quad(lambda y: y * y * model.p_y(y), int_lo, int_hi, quad_tol)
        return second - mean ** 2

    return CounterexampleReport(
        max_abs_discrepancy={"11": d11, "10": d10, "01": d01, "00": d00},
        target_law_variances=(y_variance(MODEL1), y_variance(MODEL2)),
        grid=(GRID_LO, GRID_HI, step),
    )
