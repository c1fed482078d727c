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
(its sup is below one for these variances).  The verification computes
the observed-law objects of all four missingness patterns and confirms
they agree across models while the marginal Y-variances (1 vs 6/5) do
not.  Pattern (1,1) is closed form.  The integrals of the other three
and of the Y-moments use one composite Gauss-Legendre rule, 20 nodes on
each unit panel of [GRID_LO - 12, GRID_HI + 12], built once per call.
Every integrated object is evaluated again on half-width panels, and a
difference larger than 1e-6 raises ``NumericalError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

GRID_LO, GRID_HI = -8.0, 10.0
# every density factor is a Gaussian centred inside the grid, so the
# integrals can stop a dozen units past it (each neglected tail < 1e-30)
_INT_LO, _INT_HI = GRID_LO - 12.0, GRID_HI + 12.0
_NODES_PER_PANEL = 20
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


def _rule(width):
    """Composite Gauss-Legendre nodes and weights on the integration range,
    ``_NODES_PER_PANEL`` nodes on each panel of ``width``."""
    t, w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    left = _INT_LO + width * np.arange(round((_INT_HI - _INT_LO) / width))
    nodes = (left[:, None] + 0.5 * width * (t + 1.0)).ravel()
    return nodes, np.tile(0.5 * width * w, len(left))


def _integrals(model, grid, nodes, weights):
    """Every integrated object of ``model`` under one rule: the (1,0) and
    (0,1) densities on ``grid``, the (0,0) mass and Var(Y)."""
    wy = weights * model.p_y(nodes)
    # pattern (1,0): x on the grid, y integrated out
    d10 = (model.p_x_given_y(grid[:, None], nodes[None, :])
           @ (wy * model.p_rx1(nodes))) * (1.0 - model.p_ry1(grid, 1))
    # pattern (0,1): y on the grid, x integrated out
    d01 = model.p_y(grid) * (1.0 - model.p_rx1(grid)) \
        * (model.p_x_given_y(nodes[None, :], grid[:, None])
           @ (weights * model.p_ry1(nodes, 0)))
    # pattern (0,0): y outer (rows), x inner (columns)
    inner = model.p_x_given_y(nodes[None, :], nodes[:, None]) \
        @ (weights * (1.0 - model.p_ry1(nodes, 0)))
    m00 = (wy * (1.0 - model.p_rx1(nodes))) @ inner
    return np.concatenate([d10, d01, [m00, wy @ nodes ** 2 - (wy @ nodes) ** 2]])


def verify_counterexample(step: float = 0.05) -> CounterexampleReport:
    """Max observed-law discrepancy between the two models, per pattern, on
    the grid [GRID_LO, GRID_HI] with spacing ``step``."""
    if not 0 < step <= 0.05:
        raise DomainError(f"grid step must lie in (0, 0.05], got {step!r}")
    grid = np.arange(GRID_LO, GRID_HI + step / 2, step)

    # pattern (1,1): joint density over the 2-d grid, closed form
    xg, yg = np.meshgrid(grid, grid)
    f1 = MODEL1.p_y(yg) * MODEL1.p_x_given_y(xg, yg) * MODEL1.p_rx1(yg) * MODEL1.p_ry1(xg, 1)
    f2 = MODEL2.p_y(yg) * MODEL2.p_x_given_y(xg, yg) * MODEL2.p_rx1(yg) * MODEL2.p_ry1(xg, 1)
    d11 = float(np.max(np.abs(f1 - f2)))

    rule, half = _rule(1.0), _rule(0.5)
    values = []
    for model in (MODEL1, MODEL2):
        val = _integrals(model, grid, *rule)
        err = float(np.max(np.abs(val - _integrals(model, grid, *half))))
        if not np.all(np.isfinite(val)) or not err <= 1e-6:
            raise NumericalError(f"quadrature did not converge (err={err!r})")
        values.append(val)
    n = len(grid)
    v1, v2 = values
    diff = np.abs(v1 - v2)
    return CounterexampleReport(
        max_abs_discrepancy={"11": d11, "10": float(np.max(diff[:n])),
                             "01": float(np.max(diff[n:2 * n])), "00": float(diff[-2])},
        target_law_variances=(float(v1[-1]), float(v2[-1])),
        grid=(GRID_LO, GRID_HI, step),
    )
