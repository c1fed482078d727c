"""Parametric identifiability analysis via Jacobian rank.

The identified object in the criss-cross model is the conditional law
p(X | Y).  For exponential-family targets, contrasting two support
points x_i vs x_0 of log p(x | y) yields, per extra point, a slope and
an intercept equation in the target parameters theta:

    phi_i(theta) = {phi(alpha + x_i beta) - phi(alpha + x_0 beta)} / Phi
    zeta_i(theta) = -{zeta(alpha + x_i beta) - zeta(alpha + x_0 beta)} / Phi
                    + (X-marginal contrast terms)

with phi = [g o mu]^{-1} and zeta = b o phi.  Stacking k pairs gives 2k
equations; the target law is locally identified when the Jacobian
J = d(phi_1..k, zeta_1..k)/d(theta) has full column rank.  Deleting a
column encodes "treat that parameter as known", so searching subsets of
columns whose removal restores full rank produces sufficient knowledge
sets.

The stack is formed over the (k + 1, d) array X of support points, checked
once: each evaluation makes one predictor vector m = alpha + X beta and
calls the X-marginal block once on the rows x_1..x_k.

Rank conclusions are generic: degenerate parameter points (e.g.
beta = 0) can legitimately drop rank, which is why the golden tests
evaluate at many random points.  Existence/continuity hypotheses behind
the local-inversion argument are assumed, not verified; only rank is
computed here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .families import Family, Link, check_predictor_domain, link_table
from .model import ExpFamilySpec, TargetLawParams

RANK_REL_TOL = 1e-9


def numerical_rank(matrix: np.ndarray) -> int:
    """Count singular values above RANK_REL_TOL times the largest one."""
    m = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return _rank(_singular_values(m))


def _singular_values(m):
    """Singular values of m in descending order (none when m is empty)."""
    return np.linalg.svd(m, compute_uv=False) if m.size else np.array([])


def _rank(s):
    return int(np.sum(s > RANK_REL_TOL * s[0])) if s.size and s[0] > 0 else 0


@dataclass(frozen=True)
class JacobianReport:
    j_matrix: np.ndarray
    param_names: tuple
    singular_values: np.ndarray
    numerical_rank: int
    full_rank: bool
    n_equations: int          # 2k for theorem-style stacks
    k: int
    dim_theta: int
    sufficient_sets: tuple = ()

    @property
    def meets_equation_count(self) -> bool:
        # the stacked-equation count rule 2k >= dim(theta); the stricter
        # k >= dim(theta) reading is reconstructible from k and dim_theta
        return self.n_equations >= self.dim_theta


def _report(jacobian: Callable, names):
    """The report on the matrix jacobian() returns.  Every Jacobian builder
    goes through here: an entry or singular value that overflows, in numpy
    or in Python float arithmetic (OverflowError, ZeroDivisionError), as it
    does for a support point or parameter near the float range, raises
    NumericalError."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            j = np.asarray(jacobian(), dtype=float)
    except (OverflowError, ZeroDivisionError):
        j = np.array([[np.inf]])
    s = _singular_values(j) if np.all(np.isfinite(j)) else np.array([np.inf])
    if not np.all(np.isfinite(s)):
        raise NumericalError("the Jacobian is not finite at these support points "
                             "and parameters")
    rank = _rank(s)
    return JacobianReport(
        j_matrix=j,
        param_names=tuple(names),
        singular_values=s,
        numerical_rank=rank,
        full_rank=rank == j.shape[1],
        n_equations=j.shape[0],
        k=j.shape[0] // 2,
        dim_theta=j.shape[1],
    )


# --------------------------------------------------------------------- #
# generic theorem-style equation stacks
# --------------------------------------------------------------------- #

def _x_block(spec: ExpFamilySpec, params: TargetLawParams, X: np.ndarray):
    """The X-marginal block on the support rows X: (names, free parameters,
    term, grad).  term(xp) is the k-vector of zeta-contrast terms of x_1..x_k
    against x_0, and grad(xp) its (k, n_x) partials in the free sub-vector xp."""
    fam = spec.family_x
    if fam is Family.MULTIVARIATE_NORMAL and (params.sigma_x is None or params.mu_x is None):
        raise DomainError("multivariate-normal X needs mu_x and sigma_x")
    width = (len(params.mu_x) if fam is Family.MULTIVARIATE_NORMAL
             else len(params.eta_x) if fam is Family.MULTINOMIAL else 1)
    if X.shape[1] != width:
        raise DomainError(f"{fam.value} X has width {width}, but the support "
                          f"points have width {X.shape[1]}")
    _check_support(fam, X)
    dx = X[1:] - X[0]

    if fam is Family.NORMAL:
        dx, dsq = dx[:, 0], X[1:, 0] ** 2 - X[0, 0] ** 2

        def term(xp):
            mu, phix = xp
            return mu * dx / phix - dsq / (2 * phix)

        def grad(xp):
            mu, phix = xp
            return np.column_stack([dx / phix, -mu * dx / phix ** 2 + dsq / (2 * phix ** 2)])

        return ("mu", "phi_x"), np.array([params.eta_x[0], params.phi_x]), term, grad

    if fam in (Family.BERNOULLI, Family.POISSON, Family.EXPONENTIAL):
        # exponential X's free parameter is the rate lambda_x = -eta_x
        sign, names = (-1.0, ("lambda_x",)) if fam is Family.EXPONENTIAL else (1.0, ("eta_x",))

        def term(xp):
            extra = 0.0
            # log x! is formed here, not at build: the Jacobian never needs it,
            # and lgamma raises on a count near the float range
            if fam is Family.POISSON:
                lf = _log_factorials(X)
                extra = -(lf[1:] - lf[0])
            return sign * xp[0] * dx[:, 0] + extra

        return names, np.array([sign * params.eta_x[0]]), term, lambda xp: sign * dx

    if fam is Family.MULTIVARIATE_NORMAL:
        sig_inv = np.linalg.inv(params.sigma_x)

        def term(xp):
            di, d0 = X[1:] - xp, X[0] - xp
            return (-0.5 * di @ sig_inv * di).sum(axis=1) + 0.5 * d0 @ sig_inv @ d0

        names = tuple(f"mu_{j + 1}" for j in range(width))
        return names, params.mu_x, term, lambda xp: dx @ sig_inv

    if fam is Family.MULTINOMIAL:
        if width < 2:
            raise DomainError("multinomial X needs at least 2 categories")
        # reduced coordinates: eta_d moves to keep the sum fixed, so the
        # gradient block is (x_i - x_0)^T M with M = [I; -1 ... -1]
        M = np.vstack([np.eye(width - 1), -np.ones((1, width - 1))])
        eta_sum = float(np.sum(params.eta_x))

        def term(xp):
            lf = _log_factorials(X)
            return dx @ np.append(xp, eta_sum - np.sum(xp)) - (lf[1:] - lf[0])

        names = tuple(f"eta_{j + 1}" for j in range(width - 1))
        return names, params.eta_x[:-1], term, lambda xp: dx @ M

    raise DomainError(f"unsupported X family {fam.value}")


def _counts(X) -> np.ndarray:
    return ((X >= 0) & (X == np.floor(X))).all(axis=1)


# X's family -> (what its support points must be, which rows of X are)
_SUPPORTS = {
    Family.BERNOULLI: ("0 or 1", lambda X: (X[:, 0] == 0) | (X[:, 0] == 1)),
    Family.POISSON: ("a count", _counts),
    Family.EXPONENTIAL: ("at least 0", lambda X: X[:, 0] >= 0),
    Family.MULTINOMIAL: ("a vector of counts with the first point's sum, the number "
                         "of trials",
                         lambda X: _counts(X) & (X.sum(axis=1) == X[0].sum())),
}


def _check_support(fam: Family, X: np.ndarray) -> None:
    """DomainError naming the first support point outside X's support."""
    if fam in _SUPPORTS:
        what, inside = _SUPPORTS[fam]
        bad = X[~inside(X)]
        if len(bad):
            point = bad[0].tolist() if X.shape[1] > 1 else float(bad[0, 0])
            raise DomainError(f"{fam.value} X support point {point} is not {what}")


def _log_factorials(X) -> np.ndarray:
    """sum_j log(x_j!) of each row of X, the Poisson and multinomial base measure."""
    return np.frompyfunc(math.lgamma, 1, 1)(X + 1.0).astype(float).sum(axis=1)


@dataclass(frozen=True)
class EquationStack:
    """Callable view of (phi_1..k, zeta_1..k) and their exact Jacobian."""

    param_names: tuple
    theta0: np.ndarray
    equations: Callable
    jacobian: Callable


def _support_array(support_points, d: int) -> np.ndarray:
    """The support points as a (k + 1, d) array of distinct finite rows; a
    univariate support may list its points as scalars."""
    bad = f"support points must be finite vectors of length {d}, beta's length"
    try:
        X = np.array(support_points, dtype=float, ndmin=1)
    except (TypeError, ValueError, OverflowError):     # ragged, or not floats
        raise DomainError(bad) from None
    if len(X) < 2:
        raise DomainError("need at least two support points (k >= 1)")
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1:] != (d,) or not np.all(np.isfinite(X)):
        raise DomainError(bad)
    if len(set(map(tuple, X.tolist()))) != len(X):
        raise DomainError("support points must be distinct")
    return X


def equation_stack(spec: ExpFamilySpec, params: TargetLawParams,
                   support_points) -> EquationStack:
    d = len(params.beta)
    X = _support_array(support_points, d)
    table = link_table(spec.family_y_given_x, spec.link)
    phi_free = (table.family is Family.NORMAL
                and "phi" not in spec.known_nuisance)
    x_names, x_par0, x_term, x_grad = _x_block(spec, params, X)

    beta_names = ("beta",) if d == 1 else tuple(f"beta_{j + 1}" for j in range(d))
    names = ("alpha",) + beta_names + (("phi",) if phi_free else ()) + x_names
    theta0 = np.concatenate([[params.alpha], params.beta,
                             [params.phi] if phi_free else [], x_par0])

    def at(vec):
        """Predictors m = alpha + X beta, dispersion and X-block parameters."""
        m = vec[0] + X @ vec[1:1 + d]
        # the error names the first bad value of the contrasts (m_1, m_0),
        # (m_2, m_0), ..., so m_1 is checked before m_0
        check_predictor_domain(table, np.concatenate([m[1::-1], m[2:]]))
        return m, vec[1 + d] if phi_free else params.phi, vec[1 + d + phi_free:]

    def equations(vec):
        m, ph, xp = at(vec)
        phi, zeta = table.phi(m), table.zeta(m)
        return np.concatenate([(phi[1:] - phi[0]) / ph,
                               -(zeta[1:] - zeta[0]) / ph + x_term(xp)])

    def jacobian(vec):
        m, ph, xp = at(vec)
        fp, zp = table.phi_prime(m), table.zeta_prime(m)
        phi_cols = [(fp[1:] - fp[0]) / ph, (fp[1:, None] * X[1:] - fp[0] * X[0]) / ph]
        zeta_cols = [-(zp[1:] - zp[0]) / ph, -(zp[1:, None] * X[1:] - zp[0] * X[0]) / ph]
        if phi_free:
            phi, zeta = table.phi(m), table.zeta(m)
            phi_cols.append(-(phi[1:] - phi[0]) / ph ** 2)
            zeta_cols.append((zeta[1:] - zeta[0]) / ph ** 2)
        return np.block([[np.column_stack(phi_cols), np.zeros((len(X) - 1, len(x_names)))],
                         [np.column_stack(zeta_cols), x_grad(xp)]])

    return EquationStack(param_names=names, theta0=theta0, equations=equations,
                         jacobian=jacobian)


def build_jacobian(spec: ExpFamilySpec, params: TargetLawParams,
                   support_points) -> JacobianReport:
    """Exact-partials Jacobian of the stacked contrast equations.

    Raises NumericalError when an entry overflows, as it does for a support
    point or parameter near the float range."""
    stack = equation_stack(spec, params, support_points)
    return _report(lambda: stack.jacobian(stack.theta0), stack.param_names)


# --------------------------------------------------------------------- #
# sufficient knowledge sets
# --------------------------------------------------------------------- #

def sufficient_knowledge_search(report: JacobianReport, max_set_size: int
                                ) -> JacobianReport:
    """All minimal parameter sets whose removal leaves full column rank.

    Subsets are enumerated by increasing size, lexicographically by
    parameter name; a set is skipped when it contains an already-found
    sufficient set (supersets of sufficient sets are never minimal).
    """
    if max_set_size < 0:
        raise ConfigError(f"max_set_size must be nonnegative, got {max_set_size}")
    j = report.j_matrix
    names = list(report.param_names)
    index = {n: i for i, n in enumerate(names)}
    found: list[tuple] = []
    for size in range(min(max_set_size, len(names)) + 1):
        for combo in itertools.combinations(sorted(names), size):
            if any(set(f) <= set(combo) for f in found):
                continue
            keep = sorted(i for n, i in index.items() if n not in combo)
            sub = j[:, keep]
            if sub.shape[1] == 0 or numerical_rank(sub) == sub.shape[1]:
                found.append(combo)
    found.sort(key=lambda c: (len(c), c))
    return replace(report, sufficient_sets=tuple(found))


# --------------------------------------------------------------------- #
# full-law verdict
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FullLawVerdict:
    exp_family_conditional: bool
    completeness_holds: str   # "yes" | "unknown" | "no"
    notes: str = ""

    def __post_init__(self):
        if self.completeness_holds not in ("yes", "unknown", "no"):
            raise DomainError("completeness_holds must be yes/unknown/no")
        if self.exp_family_conditional and self.completeness_holds != "yes":
            raise DomainError("exponential-family p(X|Y) forces completeness")


_EXP_FAMILY_CONDITIONAL = {
    (Family.NORMAL, Family.NORMAL, Link.CANONICAL): True,
    (Family.NORMAL, Family.NORMAL, Link.INVERSE): False,
    (Family.BERNOULLI, Family.BERNOULLI, Link.CANONICAL): True,
    (Family.BERNOULLI, Family.NORMAL, Link.CANONICAL): True,
    (Family.POISSON, Family.NORMAL, Link.CANONICAL): True,
    (Family.EXPONENTIAL, Family.NORMAL, Link.CANONICAL): True,
    (Family.EXPONENTIAL, Family.EXPONENTIAL, Link.CANONICAL): False,
    (Family.MULTIVARIATE_NORMAL, Family.NORMAL, Link.CANONICAL): True,
    (Family.MULTINOMIAL, Family.NORMAL, Link.CANONICAL): True,
}


def full_law_verdict(spec: ExpFamilySpec) -> FullLawVerdict:
    """Whether the full law (target law times mechanism) is identified.

    Once the target law is identified, the remaining question is whether
    p(R_y | R_x = 0, X) is pinned down; that holds under completeness of
    p(X | Y), which is automatic when p(X | Y) stays in the exponential
    family.  Configurations whose conditional leaves the family get an
    honest "unknown".
    """
    key = (spec.family_x, spec.family_y_given_x, spec.link)
    if key not in _EXP_FAMILY_CONDITIONAL:
        raise ConfigError(f"no full-law verdict for configuration {key}")
    if _EXP_FAMILY_CONDITIONAL[key]:
        return FullLawVerdict(True, "yes",
                              "p(X|Y) is exponential-family, completeness holds")
    return FullLawVerdict(False, "unknown",
                          "p(X|Y) leaves the exponential family; completeness undecided")


# --------------------------------------------------------------------- #
# case-study registry
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class CaseStudy:
    """A family configuration with a ready-made Jacobian builder."""

    param_names: tuple
    build: Callable                  # (theta: dict, support) -> JacobianReport
    random_theta: Callable           # rng -> dict
    default_support: tuple | None
    spec: ExpFamilySpec
    summary: str


def _bivariate_jacobian(theta: dict, support=None) -> JacobianReport:
    """Rows: derivatives of the identified conditional functionals
    (intercept, slope, conditional variance) of X | Y with respect to
    (mu1, mu2, sigma1, sigma2, rho), laid out as in the case table."""
    mu1, s1, s2, rho = theta["mu1"], theta["sigma1"], theta["sigma2"], theta["rho"]
    if not (s1 > 0 and s2 > 0 and abs(rho) < 1):
        raise DomainError("need sigma1, sigma2 > 0 and |rho| < 1")
    return _report(lambda: [
        [-rho * s2 / s1, 1.0, rho * s2 * mu1 / s1 ** 2, -rho * mu1 / s1, -s2 * mu1 / s1],
        [0.0, 0.0, -rho * s2 * mu1 / s1 ** 2, rho / s1, s2 / s1],
        [0.0, 0.0, 0.0, 2.0 * (1.0 - rho ** 2) * s2, -2.0 * rho * s2 ** 2],
    ], ("mu1", "mu2", "sigma1", "sigma2", "rho"))


def _binary_jacobian(theta: dict, support=None) -> JacobianReport:
    """Binary X and Y with mean parameterization p(Y=1|X=x) = a + b x.

    The slope/intercept contrasts at x in {0, 1} are
    phi_1 = logit(a+b) - logit(a) and
    zeta_1 = log(1-a-b) - log(1-a) + eta_x; their exact partials give a
    2x3 Jacobian over (a, b, eta_x).
    """
    a, b = theta["a"], theta["b"]
    if not (0 < a < 1 and 0 < a + b < 1):
        raise DomainError("need a and a+b inside (0, 1)")
    fp = lambda m: 1.0 / (m * (1.0 - m))
    zp = lambda m: 1.0 / (1.0 - m)
    return _report(lambda: [
        [fp(a + b) - fp(a), fp(a + b), 0.0],
        [-(zp(a + b) - zp(a)), -zp(a + b), 1.0],
    ], ("a", "b", "eta_x"))


def _generic_case(spec: ExpFamilySpec, to_params: Callable, rename: dict):
    def build(theta: dict, support) -> JacobianReport:
        if support is None:
            raise ConfigError("this case study has no default support; "
                              "give support_points")
        rep = build_jacobian(spec, to_params(theta), support)
        names = tuple(rename.get(n, n) for n in rep.param_names)
        return replace(rep, param_names=names)

    return build


def _registry() -> dict:
    cases = {}

    cases["bivariate_normal"] = CaseStudy(
        param_names=("mu1", "mu2", "sigma1", "sigma2", "rho"),
        build=_bivariate_jacobian,
        random_theta=lambda rng: {
            "mu1": rng.uniform(0.5, 3.0), "mu2": rng.uniform(-2.0, 2.0),
            "sigma1": rng.uniform(0.5, 2.0), "sigma2": rng.uniform(0.5, 3.0),
            "rho": rng.uniform(0.15, 0.85) * rng.choice([-1.0, 1.0]),
        },
        default_support=None,
        spec=ExpFamilySpec(Family.NORMAL, Family.NORMAL, Link.CANONICAL),
        summary="bivariate normal (X, Y); three conditional functionals vs five parameters",
    )

    spec_c2 = ExpFamilySpec(Family.NORMAL, Family.NORMAL, Link.INVERSE)
    cases["normal_inverse"] = CaseStudy(
        param_names=("alpha", "beta", "phi", "mu", "phi_x"),
        build=_generic_case(
            spec_c2,
            lambda th: TargetLawParams(alpha=th["alpha"], beta=[th["beta"]],
                                       phi=th["phi"], eta_x=[th["mu"]],
                                       phi_x=th["phi_x"]),
            {},
        ),
        random_theta=lambda rng: {
            "alpha": rng.uniform(0.5, 2.0), "beta": rng.uniform(0.3, 1.5),
            "phi": rng.uniform(0.5, 2.0), "mu": rng.uniform(-1.0, 1.0),
            "phi_x": rng.uniform(0.5, 2.0),
        },
        default_support=(0.5, 1.0, 1.8, 2.5, 3.3),
        spec=spec_c2,
        summary="normal X, normal Y|X with inverse link",
    )

    cases["binary"] = CaseStudy(
        param_names=("a", "b", "eta_x"),
        build=_binary_jacobian,
        random_theta=lambda rng: (lambda a: {
            "a": a, "b": rng.uniform(0.05, 0.9 - a), "eta_x": rng.normal(),
        })(rng.uniform(0.05, 0.6)),
        default_support=(0.0, 1.0),
        spec=ExpFamilySpec(Family.BERNOULLI, Family.BERNOULLI, Link.CANONICAL),
        summary="binary X and Y, mean parameterization",
    )

    spec_c4 = ExpFamilySpec(Family.BERNOULLI, Family.NORMAL, Link.CANONICAL)
    cases["bernoulli_normal"] = CaseStudy(
        param_names=("a", "b", "phi", "eta"),
        build=_generic_case(
            spec_c4,
            lambda th: TargetLawParams(alpha=th["a"], beta=[th["b"]],
                                       phi=th["phi"], eta_x=[th["eta"]]),
            {"alpha": "a", "beta": "b", "eta_x": "eta"},
        ),
        random_theta=lambda rng: {
            "a": rng.normal(), "b": rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]),
            "phi": rng.uniform(0.3, 2.0), "eta": rng.normal(),
        },
        default_support=(0.0, 1.0),
        spec=spec_c4,
        summary="Bernoulli X, normal Y|X, canonical link",
    )

    spec_c5 = ExpFamilySpec(Family.POISSON, Family.NORMAL, Link.CANONICAL)
    cases["poisson_normal"] = CaseStudy(
        param_names=("a", "b", "phi", "eta_x"),
        build=_generic_case(
            spec_c5,
            lambda th: TargetLawParams(alpha=th["a"], beta=[th["b"]],
                                       phi=th["phi"], eta_x=[th["eta_x"]]),
            {"alpha": "a", "beta": "b"},
        ),
        random_theta=lambda rng: {
            "a": rng.normal(), "b": rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]),
            "phi": rng.uniform(0.3, 2.0), "eta_x": rng.uniform(-0.5, 1.5),
        },
        default_support=(0.0, 1.0, 2.0, 3.0),
        spec=spec_c5,
        summary="Poisson X, normal Y|X, canonical link",
    )

    spec_c6 = ExpFamilySpec(Family.EXPONENTIAL, Family.NORMAL, Link.CANONICAL)
    cases["exponential_normal"] = CaseStudy(
        param_names=("a", "b", "phi", "lambda_x"),
        build=_generic_case(
            spec_c6,
            lambda th: TargetLawParams(alpha=th["a"], beta=[th["b"]],
                                       phi=th["phi"], eta_x=[-th["lambda_x"]]),
            {"alpha": "a", "beta": "b"},
        ),
        random_theta=lambda rng: {
            "a": rng.normal(), "b": rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]),
            "phi": rng.uniform(0.3, 2.0), "lambda_x": rng.uniform(0.3, 2.0),
        },
        default_support=(0.0, 0.7, 1.6, 2.9),
        spec=spec_c6,
        summary="exponential X, normal Y|X, canonical link",
    )

    spec_c7 = ExpFamilySpec(Family.EXPONENTIAL, Family.EXPONENTIAL, Link.CANONICAL)
    cases["exponential_exponential"] = CaseStudy(
        param_names=("a", "b", "lambda_x"),
        build=_generic_case(
            spec_c7,
            lambda th: TargetLawParams(alpha=th["a"], beta=[th["b"]],
                                       phi=1.0, eta_x=[-th["lambda_x"]]),
            {"alpha": "a", "beta": "b"},
        ),
        random_theta=lambda rng: {
            "a": -rng.uniform(0.5, 2.0), "b": -rng.uniform(0.2, 1.0),
            "lambda_x": rng.uniform(0.3, 2.0),
        },
        default_support=(0.0, 1.0, 2.0, 3.0),
        spec=spec_c7,
        summary="exponential X, exponential Y|X, canonical link (a + b x < 0)",
    )

    spec_mvn = ExpFamilySpec(Family.MULTIVARIATE_NORMAL, Family.NORMAL,
                             Link.CANONICAL, known_nuisance={"sigma_x": "known"})
    cases["multivariate_normal"] = CaseStudy(
        param_names=("alpha", "beta_1", "beta_2", "phi", "mu_1", "mu_2"),
        build=_generic_case(
            spec_mvn,
            lambda th: TargetLawParams(
                alpha=th["alpha"], beta=th["beta"], phi=th["phi"],
                eta_x=np.zeros(len(th["mu"])), mu_x=th["mu"],
                sigma_x=th.get("sigma", np.eye(len(th["mu"])))),
            {},
        ),
        random_theta=lambda rng: {
            "alpha": rng.normal(), "beta": rng.normal(size=2),
            "phi": rng.uniform(0.5, 2.0), "mu": rng.normal(size=2),
            "sigma": np.array([[1.0, 0.3], [0.3, 1.5]]),
        },
        default_support=None,
        spec=spec_mvn,
        summary="multivariate-normal X (known covariance), normal Y|X",
    )

    spec_mn = ExpFamilySpec(Family.MULTINOMIAL, Family.NORMAL, Link.CANONICAL,
                            known_nuisance={"n_trials": "known"})
    cases["multinomial"] = CaseStudy(
        param_names=("alpha", "beta_1", "beta_2", "beta_3", "phi", "eta_1", "eta_2"),
        build=_generic_case(
            spec_mn,
            lambda th: TargetLawParams(alpha=th["alpha"], beta=th["beta"],
                                       phi=th["phi"], eta_x=th["eta"]),
            {},
        ),
        random_theta=lambda rng: {
            "alpha": rng.normal(), "beta": rng.normal(size=3),
            "phi": rng.uniform(0.5, 2.0), "eta": rng.normal(size=3),
        },
        default_support=None,
        spec=spec_mn,
        summary="multinomial X (known trial count), normal Y|X",
    )

    return cases


CASE_STUDIES = _registry()


def case_study(name: str) -> CaseStudy:
    try:
        return CASE_STUDIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown case {name!r}; available: {sorted(CASE_STUDIES)}"
        ) from None


def mvn_support(rng: np.random.Generator, n_points: int = 6, d: int = 2):
    return [rng.normal(size=d) for _ in range(n_points)]


def multinomial_support(n_trials: int = 2):
    return [np.array(v, dtype=float) for v in
            ([n_trials, 0, 0], [0, n_trials, 0], [0, 0, n_trials],
             [1, n_trials - 1, 0], [1, 0, n_trials - 1])]
