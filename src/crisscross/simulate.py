"""Data-generating processes for the criss-cross missingness model.

A scenario couples a target law for (X, Y) with an expit-linear (or
quadratic) selection mechanism:

    R_x ~ Bernoulli(expit(a0 + a1*Y [+ a2*Y^2]))
    R_y ~ Bernoulli(expit(b0 + b1*R_x + b2*X [+ b3*X^2]))

Coarsening then hides X when R_x = 0 and Y when R_y = 0.  Everything is
a pure function of the scenario, whose seed is an int or a tuple of ints:
replicate r of an experiment has seed (base_seed, sweep_index, r), so
replicates can be simulated concurrently without sharing state.

The bivariate-normal target draws Y ~ N(mu1, sigma1^2) first, then
X | Y from the derived conditional, which matches the direction of the
mechanism's dependencies (R_x reads Y, R_y reads X).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError, DomainError
from .families import Family, check_predictor_domain, family_table, link_table
from .model import (ExpFamilySpec, MissingnessMechanism, ObservedDataset,
                    TargetLawParams, derive_conditional)


@dataclass(frozen=True)
class BivariateNormalTarget:
    """(Y, X) jointly normal; Y listed first."""

    mu1: float = 2.0
    mu2: float = 0.4
    sigma1: float = 1.0
    sigma2: float = 3.0
    rho: float = 0.3

    def conditional(self) -> tuple[float, float, float]:
        return derive_conditional(self.mu1, self.mu2, self.sigma1, self.sigma2, self.rho)


@dataclass(frozen=True)
class Binary2x2Model:
    """Cell probabilities p_ij = p(X=i, Y=j) with X, Y coded in {1, 2}."""

    p11: float
    p12: float
    p21: float
    p22: float

    def __post_init__(self):
        cells = self.cells
        if not (np.all(cells >= 0) and abs(cells.sum() - 1.0) <= 1e-12):
            raise DomainError("cell probabilities must be a simplex")

    @property
    def cells(self) -> np.ndarray:
        return np.array([self.p11, self.p12, self.p21, self.p22], dtype=float)

    def log_odds_ratio(self) -> float:
        return float(np.log(self.p11 * self.p22 / (self.p12 * self.p21)))


@dataclass(frozen=True)
class ExpFamilyTarget:
    """General exponential-family target: X ~ family_x, Y | X via link."""

    spec: ExpFamilySpec
    params: TargetLawParams


Target = BivariateNormalTarget | Binary2x2Model | ExpFamilyTarget


@dataclass(frozen=True)
class ScenarioConfig:
    target: Target
    mechanism: MissingnessMechanism
    n_total: int
    seed: int | tuple[int, ...]     # entropy of the SeedSequence the draw uses

    def __post_init__(self):
        if self.n_total <= 0:
            raise DomainError("n_total must be positive")
        check_rows_fit(self.n_total, "n_total")
        seeds = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if not seeds or not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                                and s >= 0 for s in seeds):
            raise DomainError("seed must be an integer >= 0 or a non-empty tuple of "
                              f"them, got {self.seed!r}")


# bytes a simulated row holds: observed and complete x and y as float64,
# r_x and r_y as int8
_ROW_BYTES = 4 * 8 + 2


def check_rows_fit(rows: int, what: str) -> None:
    """Raise DomainError, before any array is allocated, when ``rows``
    simulated rows cannot fit in physical memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):     # no sysconf: no bound
        return
    if rows * _ROW_BYTES > memory:
        raise DomainError(f"{what}: {rows} rows of {_ROW_BYTES} bytes do not fit in "
                          f"the {memory / 2 ** 30:.1f} GiB of physical memory")


@dataclass(frozen=True)
class SimulationResult:
    """Observed (coarsened) view plus the hidden complete draws.

    The complete view exists for oracle tests and diagnostics only;
    estimators must consume ``observed``.
    """

    observed: ObservedDataset
    complete_x: np.ndarray
    complete_y: np.ndarray


def _draw_complete(target: Target, n: int, rng: np.random.Generator):
    if isinstance(target, BivariateNormalTarget):
        alpha, beta, s2 = target.conditional()
        y = rng.normal(target.mu1, target.sigma1, n)
        x = alpha + beta * y + rng.normal(0.0, np.sqrt(s2), n)
        return x, y
    if isinstance(target, Binary2x2Model):
        idx = rng.choice(4, size=n, p=target.cells)
        x = np.where(idx < 2, 1.0, 2.0)
        y = np.where(idx % 2 == 0, 1.0, 2.0)
        return x, y
    if isinstance(target, ExpFamilyTarget):
        return _draw_exp_family(target.spec, target.params, n, rng)
    raise DomainError(f"unsupported target {type(target).__name__}")


def _draw_exp_family(spec: ExpFamilySpec, params: TargetLawParams, n, rng):
    eta_x = params.eta_x
    if spec.family_x is Family.NORMAL:
        x = rng.normal(eta_x[0], np.sqrt(params.phi_x), n)
    elif spec.family_x is Family.BERNOULLI:
        x = rng.binomial(1, float(family_table(Family.BERNOULLI).b_prime(eta_x[0])), n).astype(float)
    elif spec.family_x is Family.POISSON:
        x = rng.poisson(np.exp(eta_x[0]), n).astype(float)
    elif spec.family_x is Family.EXPONENTIAL:
        lam = -eta_x[0]
        if lam <= 0:
            raise DomainError("exponential X needs eta_x < 0")
        x = rng.exponential(1.0 / lam, n)
    else:
        raise DomainError(f"simulation not supported for X family {spec.family_x.value}")

    table = link_table(spec.family_y_given_x, spec.link)
    m = params.alpha + params.beta[0] * x
    check_predictor_domain(table, m)
    eta = table.phi(m)
    fam_y = family_table(spec.family_y_given_x)
    mu = fam_y.b_prime(eta)
    if spec.family_y_given_x is Family.NORMAL:
        y = rng.normal(mu, np.sqrt(params.phi), n)
    elif spec.family_y_given_x is Family.BERNOULLI:
        y = rng.binomial(1, mu, n).astype(float)
    elif spec.family_y_given_x is Family.EXPONENTIAL:
        y = rng.exponential(mu, n)
    else:
        raise DomainError(f"simulation not supported for Y family {spec.family_y_given_x.value}")
    return x, y


def simulate_dataset(config: ScenarioConfig) -> SimulationResult:
    """Draw (X, Y), apply the selection mechanism, coarsen, all from the
    stream SeedSequence(config.seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n = config.n_total
    x, y = _draw_complete(config.target, n, rng)
    p_rx = config.mechanism.p_rx(y)
    r_x = (rng.random(n) < p_rx).astype(np.int8)
    p_ry = config.mechanism.p_ry(x, r_x)
    r_y = (rng.random(n) < p_ry).astype(np.int8)
    observed = ObservedDataset(
        x=np.where(r_x == 1, x, np.nan),
        y=np.where(r_y == 1, y, np.nan),
        r_x=r_x,
        r_y=r_y,
    )
    return SimulationResult(observed=observed, complete_x=x, complete_y=y)


def simulate_binary(binary: Binary2x2Model, mechanism: MissingnessMechanism,
                    n_total: int, seed: int) -> SimulationResult:
    """Categorical (X, Y) over the four cells, then the usual coarsening."""
    return simulate_dataset(ScenarioConfig(binary, mechanism, n_total, seed))


@dataclass(frozen=True)
class MissingnessSummary:
    """Frequencies of (r_x, r_y) in the order (0,0), (0,1), (1,0), (1,1)."""

    counts: tuple
    frequencies: np.ndarray

    def exact_sum(self) -> Fraction:
        n = sum(self.counts)
        return sum(Fraction(c, n) for c in self.counts)


def missingness_summary(data: ObservedDataset) -> MissingnessSummary:
    if data.n_total == 0:
        raise DataError("empty dataset")
    counts = tuple(
        int(np.sum((data.r_x == rx) & (data.r_y == ry)))
        for rx, ry in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    freqs = np.array(counts, dtype=float) / data.n_total
    return MissingnessSummary(counts=counts, frequencies=freqs)


SECTION61_TARGET = BivariateNormalTarget()
SECTION61_MECHANISM = MissingnessMechanism(rx_given_y=(-0.5, 1.0),
                                           ry_given_x_rx=(2.0, -1.0, 0.7))
MISSPECIFIED_MECHANISM = MissingnessMechanism(rx_given_y=(-0.5, 1.0),
                                              ry_given_x_rx=(2.0, -1.0, 0.7, 0.2))
