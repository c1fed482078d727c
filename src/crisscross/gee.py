"""Estimating-equation estimators with inverse-probability weighting.

The conditional mean E[X | Y] = h(Y; theta) is estimated from complete
cases by solving

    (1/N) sum_i  R_xi R_yi / pi(x_i) * f(y_i) * (x_i - h(y_i; theta)) = 0,

where pi(x) = p(R_y = 1 | R_x = 1, X = x) is a logistic propensity fit
on the R_x = 1 rows (where X is always observed).  Any f identifies
theta; the efficient choice is

    f_opt(y) = a(y) / E[(X - h(y))^2 / pi(X) | Y = y],   a = dh/dtheta,

with the inner conditional expectation computed against the fitted
parametric X | Y: Gauss-Hermite quadrature (64 nodes) for the normal
mean model, an exact two-point sum for the binary one.  The asymptotic
covariance is the sandwich C^{-1} D C^{-T} with

    C = E[R_x R_y / pi(X) a(Y) f(Y)^T],
    D = E[R_x R_y / pi(X)^2 (X - h)^2 f(Y) f(Y)^T],

both estimated by sample means over all N rows (incomplete rows
contribute exactly zero), so Var(theta_hat) ~= C^{-1} D C^{-T} / N.

Mean models: ``NormalLinear`` (h = alpha + beta y; either coefficient
may be declared known) and ``Binary2x2`` (X, Y in {1, 2}; the three
free cells beyond a known theta_11 live on a multinomial-logit scale so
the simplex constraint never binds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DataError, DomainError, NumericalError, SeparationError
from .families import expit
from .glm import LogisticFit
from .model import ObservedDataset, newton, norm, or_from_theta

PROPENSITY_FLOOR = 1e-6
ROOT_TOL = 1e-10
GH_NODES = 64
_GH_X, _GH_W = hermgauss(GH_NODES)
_HALF_MAX = 0.5 * np.finfo(float).max


@dataclass(frozen=True)
class PropensityModel:
    """p(R_y = 1 | R_x = 1, X = x) = expit(c0 + c1 x)."""

    coefficients: np.ndarray
    converged: bool
    separation_flag: bool

    def pi(self, x):
        c0, c1 = self.coefficients
        return expit(c0 + c1 * np.asarray(x, dtype=float))

    @staticmethod
    def known(coefficients) -> "PropensityModel":
        return PropensityModel(np.asarray(coefficients, dtype=float),
                               converged=True, separation_flag=False)


def fit_propensity(data: ObservedDataset) -> PropensityModel:
    """Logistic regression of R_y on X among rows with R_x = 1; a constant
    R_y there has no finite fit and raises SeparationError."""
    m = data.r_x == 1
    if not np.any(m):
        raise DataError("no rows with r_x = 1")
    x = data.x[m]
    t = data.r_y[m].astype(float)
    if np.all(t == t[0]):
        raise SeparationError(f"propensity fit: r_y is {t[0]:g} on every r_x = 1 row",
                              direction=1 if t[0] else -1)
    if np.all(x == x[0]):
        # saturated null model: intercept-only, logit of the observed rate
        rate = float(np.mean(t))
        coef = np.array([math.log(rate) - math.log1p(-rate), 0.0])
        return PropensityModel.known(coef)
    from .glm import fit_logistic   # read at call time, like a wrapper patched onto glm
    fit: LogisticFit = fit_logistic(np.column_stack([np.ones_like(x), x]), t)
    return PropensityModel(fit.coef, converged=fit.converged,
                           separation_flag=fit.separation_flag)


def check_floor(p, what: str) -> np.ndarray:
    """p as a float array; raises at the first record below PROPENSITY_FLOOR
    instead of truncating its weight."""
    p = np.asarray(p, dtype=float)
    bad = p < PROPENSITY_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(f"{what} below floor {PROPENSITY_FLOOR:g} at record {i} "
                             f"(value {p[i]!r}); refusing to truncate")
    return p


# --------------------------------------------------------------------- #
# mean models
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class NormalLinear:
    """h(y; theta) = alpha + beta y with optional known components.

    ``sigma2`` is the known conditional variance of X | Y used by the
    optimal weight; estimators that do not need it may leave it unset.
    """

    known: dict = field(default_factory=dict)
    sigma2: float | None = None

    @property
    def free_names(self) -> tuple:
        return tuple(n for n in ("alpha", "beta") if n not in self.known)

    @property
    def dim(self) -> int:
        return len(self.free_names)

    def _ab(self, theta):
        theta = np.atleast_1d(theta)
        vals = {}
        pos = 0
        for name in ("alpha", "beta"):
            if name in self.known:
                vals[name] = float(self.known[name])
            else:
                vals[name] = float(theta[pos])
                pos += 1
        return vals["alpha"], vals["beta"]

    def h(self, y, theta):
        a, b = self._ab(theta)
        return a + b * np.asarray(y, dtype=float)

    def a(self, y, theta):
        y = np.asarray(y, dtype=float)
        cols = []
        if "alpha" not in self.known:
            cols.append(np.ones_like(y))
        if "beta" not in self.known:
            cols.append(y)
        return np.column_stack(cols)

    def theta0(self) -> np.ndarray:
        return np.zeros(self.dim)

    def conditional_x_nodes(self, y, theta):
        """Gauss-Hermite nodes/weights of X | Y = y under the fitted law."""
        if self.sigma2 is None or self.sigma2 <= 0:
            raise DomainError("NormalLinear.sigma2 must be set for the optimal weight")
        h = self.h(y, theta)
        nodes = math.sqrt(2.0 * self.sigma2) * _GH_X[None, :] + h[:, None]
        weights = _GH_W / math.sqrt(math.pi)
        return nodes, weights


@dataclass(frozen=True)
class Binary2x2:
    """Cell probabilities with theta_11 known; free cells on logit scale.

    theta = (t1, t2) maps to (theta_12, theta_21, theta_22) =
    (1 - theta_11) * softmax(t1, t2, 0), and
    h(y) = E[X | Y = y] = 1 + p(X = 2 | Y = y).
    """

    theta11: float

    def __post_init__(self):
        if not 0 < self.theta11 < 1:
            raise DomainError("theta11 must lie in (0, 1)")

    free_names = ("t1", "t2")
    dim = 2

    def cells(self, theta):
        t = np.append(np.atleast_1d(theta), 0.0)
        e = np.exp(t - np.max(t))
        return (1.0 - self.theta11) * e / e.sum()          # (th12, th21, th22)

    def _divisor_cells(self, theta):
        """cells(theta) for h, a and the law of X | Y, which divide by
        th12 + th22 and its square; raises once that square underflows."""
        cells = self.cells(theta)
        if not (cells[0] + cells[2]) ** 2 > 0:
            raise NumericalError("Binary2x2: cells theta_12 + theta_22 underflow to 0")
        return cells

    def h(self, y, theta):
        th12, th21, th22 = self._divisor_cells(theta)
        h1 = 1.0 + th21 / (self.theta11 + th21)
        h2 = 1.0 + th22 / (th12 + th22)
        y = np.asarray(y, dtype=float)
        return np.where(y == 1.0, h1, h2)

    def a(self, y, theta):
        cells = self._divisor_cells(theta)
        th12, th21, th22 = cells
        share = cells / (1.0 - self.theta11)
        # softmax chain rule, reference coordinate t3 fixed at 0:
        # d cells_j / d t_m = cells_j (1{j=m} - share_m)
        dc = cells[:, None] * (np.eye(3)[:, :2] - share[None, :2])
        dh1_dc = np.array([0.0, self.theta11 / (self.theta11 + th21) ** 2, 0.0])
        dh2_dc = np.array([-th22 / (th12 + th22) ** 2, 0.0,
                           th12 / (th12 + th22) ** 2])
        y = np.asarray(y, dtype=float)
        return np.where((y == 1.0)[:, None], (dh1_dc @ dc)[None, :],
                        (dh2_dc @ dc)[None, :])

    def theta0(self) -> np.ndarray:
        return np.zeros(2)

    def conditional_x_nodes(self, y, theta):
        """Exact two-point law of X in {1, 2} given Y = y."""
        th12, th21, th22 = self._divisor_cells(theta)
        y = np.asarray(y, dtype=float)
        p2 = np.where(y == 1.0, th21 / (self.theta11 + th21), th22 / (th12 + th22))
        nodes = np.column_stack([np.ones_like(y), np.full_like(y, 2.0)])
        weights = np.column_stack([1.0 - p2, p2])
        return nodes, weights

    def log_odds_ratio(self, theta) -> float:
        th12, th21, th22 = self.cells(theta)
        return float(np.log(self.theta11 * th22 / (th12 * th21)))


# --------------------------------------------------------------------- #
# weight functions
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class NonOptimalF:
    """The plain weight: (1, y) in two-parameter models, a(y) otherwise."""

    def values(self, y, model):
        y = np.asarray(y, dtype=float)
        if isinstance(model, Binary2x2):
            return np.column_stack([np.ones_like(y), y])
        return model.a(y, model.theta0())


@dataclass(frozen=True)
class OptimalF:
    """f_opt(y) = a(y) / E[(X - h(y))^2 / pi(X) | Y = y] at pilot theta."""

    pi_model: PropensityModel
    theta_pilot: np.ndarray

    def values(self, y, model):
        y = np.asarray(y, dtype=float)
        nodes, weights = model.conditional_x_nodes(y, self.theta_pilot)
        h = model.h(y, self.theta_pilot)
        # quadrature nodes are not data records: no floor, the Gaussian
        # weight tames 1/pi in the tails, as long as pi leaves each term,
        # and so their weighted mean, below half the largest float
        pin = self.pi_model.pi(nodes)
        integrand = nodes - h[:, None]
        integrand *= integrand
        if not np.all(pin * _HALF_MAX > integrand):
            raise NumericalError("optimal weight: propensity underflows at a quadrature node")
        integrand /= pin
        inner = np.sum(np.atleast_2d(weights) * integrand, axis=1)
        if np.any(inner <= 0) or not np.all(np.isfinite(inner)):
            raise NumericalError("optimal weight: nonpositive inner expectation")
        return model.a(y, self.theta_pilot) / inner[:, None]


def optimal_f(pi_model: PropensityModel, theta_pilot) -> OptimalF:
    return OptimalF(pi_model=pi_model,
                    theta_pilot=np.atleast_1d(np.asarray(theta_pilot, dtype=float)))


# --------------------------------------------------------------------- #
# residual, solver, sandwich
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class GeeResult:
    theta_hat: np.ndarray
    param_names: tuple
    sandwich_cov: np.ndarray | None
    c_hat: np.ndarray | None
    d_hat: np.ndarray | None
    residual_norm: float
    iterations: int
    n_complete: int
    n_total: int

    def se(self) -> np.ndarray:
        if self.sandwich_cov is None:
            raise NumericalError("no sandwich covariance computed")
        return np.sqrt(np.diag(self.sandwich_cov) / self.n_total)


def _weighted_cases(data: ObservedDataset, model, pi_model: PropensityModel, f):
    """(xc, yc, pi, F): the complete cases, their floored propensities and
    weight values f(y).  None depends on theta, so a fit builds them once."""
    xc, yc = data.complete_xy()
    if len(xc) == 0:
        raise DataError("no complete cases")
    pi = check_floor(pi_model.pi(xc), "propensity")
    F = np.atleast_2d(f.values(yc, model))
    if F.shape[0] != len(yc):
        F = F.T
    if F.shape[1] != model.dim:
        raise DomainError("f must have dim(theta) components")
    return xc, yc, pi, F


def _residual(cases, model, theta, n_total) -> np.ndarray:
    xc, yc, pi, F = cases
    resid = xc - model.h(yc, theta)
    return (F * (resid / pi)[:, None]).sum(axis=0) / n_total


def gee_residual(data: ObservedDataset, model, pi_model: PropensityModel,
                 f, theta) -> np.ndarray:
    """(1/N) sum over complete cases of f(y) (x - h(y; theta)) / pi(x)."""
    return _residual(_weighted_cases(data, model, pi_model, f), model, theta,
                     data.n_total)


def solve_gee(data: ObservedDataset, model, pi_model: PropensityModel, f
              ) -> GeeResult:
    """Newton root of the estimating equation, damped on the residual norm;
    linear mean models converge in one step, and a fit that stops short of a
    root raises NumericalError."""
    cases = _weighted_cases(data, model, pi_model, f)
    _, yc, pi, F = cases
    f_over_pi = F * (1.0 / pi)[:, None]

    def evaluate(theta):
        g = _residual(cases, model, theta, data.n_total)
        J = -f_over_pi.T @ model.a(yc, theta) / data.n_total
        return -norm(g), g, J

    theta, it, g = newton(evaluate, model.theta0(), 1, ROOT_TOL, "GEE fit")
    c_hat, d_hat, cov = (None, None, None)
    try:
        c_hat, d_hat, cov = _sandwich(cases, model, theta, data.n_total)
    except NumericalError:
        pass
    return GeeResult(theta_hat=theta, param_names=model.free_names,
                     sandwich_cov=cov, c_hat=c_hat, d_hat=d_hat,
                     residual_norm=norm(g), iterations=it,
                     n_complete=data.n_complete, n_total=data.n_total)


def odds_ratio(res: GeeResult, sigma2: float) -> dict | None:
    """Odds ratio exp(beta / sigma2) at unit pair contrast of a NormalLinear
    fit: None when beta is known; its "se" only where the fit has a sandwich."""
    if "beta" not in res.param_names:
        return None
    j = res.param_names.index("beta")
    # Python floats: a tiny sigma2 overflows theta to inf without a warning
    theta = float(res.theta_hat[j]) / sigma2
    if res.sandwich_cov is None:
        return {"point": or_from_theta(theta, 0.0)[0]}
    point, se = or_from_theta(theta, float(res.se()[j]) / sigma2)
    return {"point": point, "se": se}


def sandwich_gee(data: ObservedDataset, model, pi_model: PropensityModel, f,
                 theta_hat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C_hat, D_hat, C^{-1} D C^{-T}); divide by N for Var(theta_hat)."""
    return _sandwich(_weighted_cases(data, model, pi_model, f), model, theta_hat,
                     data.n_total)


def _sandwich(cases, model, theta_hat, N):
    xc, yc, pi, F = cases
    resid = xc - model.h(yc, theta_hat)
    A = model.a(yc, theta_hat)
    c_hat = (A * (1.0 / pi)[:, None]).T @ F / N
    d_hat = (F * ((resid ** 2) / pi ** 2)[:, None]).T @ F / N
    try:
        c_inv = np.linalg.inv(c_hat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular C matrix: {exc}") from exc
    cov = c_inv @ d_hat @ c_inv.T
    cov = 0.5 * (cov + cov.T)
    var = np.diag(cov)
    if not np.all(np.isfinite(var) & (var > 0)):
        raise NumericalError(f"sandwich variances must be positive and finite: {var!r}")
    return c_hat, d_hat, cov


# --------------------------------------------------------------------- #
# binary 2x2 workflow
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Binary2x2Result:
    theta11: float
    cells: np.ndarray           # (theta_12, theta_21, theta_22)
    log_odds_ratio: float
    log_odds_ratio_se: float | None
    gee: GeeResult


def estimate_binary_2x2(data: ObservedDataset, theta11_known: float,
                        pi_model: PropensityModel) -> Binary2x2Result:
    """Plain-weight GEE for the free cells given theta_11; log OR, delta SE."""
    xy = np.concatenate([data.x[data.r_x == 1], data.y[data.r_y == 1]])
    if not np.all(np.isin(xy, (1.0, 2.0))):
        raise DataError("binary workflow expects X, Y coded in {1, 2}")
    model = Binary2x2(theta11_known)
    res = solve_gee(data, model, pi_model, NonOptimalF())
    cells = model.cells(res.theta_hat)
    if np.any(cells <= 0) or np.any(cells >= 1):
        raise NumericalError("estimated cells left (0, 1)")
    logor = model.log_odds_ratio(res.theta_hat)
    se = None
    if res.sandwich_cov is not None:
        # d log OR / d t_m = share_m - 1, the softmax chain rule of Binary2x2.a
        grad = cells[:2] / (1.0 - theta11_known) - 1.0
        var = grad @ (res.sandwich_cov / data.n_total) @ grad
        se = float(np.sqrt(max(var, 0.0)))
    return Binary2x2Result(theta11=theta11_known, cells=cells,
                           log_odds_ratio=logor, log_odds_ratio_se=se, gee=res)
