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

# X-marginal blocks: each returns (names, zeta_term(xi, x0, xpar),
# d zeta_term / d xpar rows).  xpar is the free sub-vector for the block.

def _x_block(spec: ExpFamilySpec, params: TargetLawParams):
    fam = spec.family_x
    if fam is Family.NORMAL:
        names = ("mu", "phi_x")

        def term(xi, x0, xp):
            mu, phix = xp
            return mu * (xi - x0) / phix - (xi ** 2 - x0 ** 2) / (2 * phix)

        def grad(xi, x0, xp):
            mu, phix = xp
            return np.array([(xi - x0) / phix,
                             -mu * (xi - x0) / phix ** 2 + (xi ** 2 - x0 ** 2) / (2 * phix ** 2)])

        return names, np.array([params.eta_x[0], params.phi_x]), term, grad

    if fam in (Family.BERNOULLI, Family.POISSON):
        names = ("eta_x",)

        def term(xi, x0, xp):
            extra = 0.0
            if fam is Family.POISSON:
                extra = -(_log_factorials(xi) - _log_factorials(x0))
            return xp[0] * (xi - x0) + extra

        def grad(xi, x0, xp):
            return np.array([xi - x0])

        return names, np.array([params.eta_x[0]]), term, grad

    if fam is Family.EXPONENTIAL:
        names = ("lambda_x",)

        def term(xi, x0, xp):
            return -xp[0] * (xi - x0)

        def grad(xi, x0, xp):
            return np.array([-(xi - x0)])

        return names, np.array([-params.eta_x[0]]), term, grad

    if fam is Family.MULTIVARIATE_NORMAL:
        if params.sigma_x is None or params.mu_x is None:
            raise DomainError("multivariate-normal X needs mu_x and sigma_x")
        sig_inv = np.linalg.inv(params.sigma_x)
        d = len(params.mu_x)
        names = tuple(f"mu_{j + 1}" for j in range(d))

        def term(xi, x0, xp):
            di, d0 = xi - xp, x0 - xp
            return -0.5 * di @ sig_inv @ di + 0.5 * d0 @ sig_inv @ d0

        def grad(xi, x0, xp):
            return (xi - x0) @ sig_inv

        return names, np.asarray(params.mu_x, dtype=float), term, grad

    if fam is Family.MULTINOMIAL:
        d = len(params.eta_x)
        if d < 2:
            raise DomainError("multinomial X needs at least 2 categories")
        # reduced coordinates: eta_d moves to keep the sum fixed, so the
        # gradient block is (x_i - x_0)^T M with M = [I; -1 ... -1]
        M = np.vstack([np.eye(d - 1), -np.ones((1, d - 1))])
        eta_sum = float(np.sum(params.eta_x))
        names = tuple(f"eta_{j + 1}" for j in range(d - 1))

        def term(xi, x0, xp):
            eta_full = np.append(xp, eta_sum - np.sum(xp))
            return float((xi - x0) @ eta_full
                         - (_log_factorials(xi) - _log_factorials(x0)))

        def grad(xi, x0, xp):
            return (xi - x0) @ M

        return names, np.asarray(params.eta_x[:-1], dtype=float), term, grad

    raise DomainError(f"unsupported X family {fam.value}")


def _log_factorials(counts) -> float:
    """sum_j log(counts_j!), the Poisson and multinomial base measure."""
    return sum(math.lgamma(c + 1.0) for c in counts)


@dataclass(frozen=True)
class EquationStack:
    """Callable view of (phi_1..k, zeta_1..k) and their exact Jacobian."""

    param_names: tuple
    theta0: np.ndarray
    equations: Callable
    jacobian: Callable


def equation_stack(spec: ExpFamilySpec, params: TargetLawParams,
                   support_points) -> EquationStack:
    support = [np.asarray(p, dtype=float) for p in support_points]
    if len(support) < 2:
        raise DomainError("need at least two support points (k >= 1)")
    flat = [tuple(np.atleast_1d(p)) for p in support]
    if len(set(flat)) != len(flat):
        raise DomainError("support points must be distinct")

    table = link_table(spec.family_y_given_x, spec.link)
    beta = params.beta
    d = len(beta)
    phi_free = (table.family is Family.NORMAL
                and "phi" not in spec.known_nuisance)
    x_names, x_par0, x_term, x_grad = _x_block(spec, params)

    beta_names = ("beta",) if d == 1 else tuple(f"beta_{j + 1}" for j in range(d))
    names = ("alpha",) + beta_names + (("phi",) if phi_free else ()) + x_names
    theta0 = np.concatenate([[params.alpha], beta,
                             [params.phi] if phi_free else [], x_par0])

    def unpack(vec):
        a = vec[0]
        b = vec[1:1 + d]
        pos = 1 + d
        if phi_free:
            ph = vec[pos]
            pos += 1
        else:
            ph = params.phi
        return a, b, ph, vec[pos:]

    def predictor(a, b, x):
        return float(a + np.atleast_1d(x) @ b)

    def equations(vec):
        a, b, ph, xp = unpack(vec)
        m0 = predictor(a, b, support[0])
        out = []
        for xi in support[1:]:
            mi = predictor(a, b, xi)
            check_predictor_domain(table, (mi, m0))
            out.append((table.phi(mi) - table.phi(m0)) / ph)
        for xi in support[1:]:
            mi = predictor(a, b, xi)
            out.append(-(table.zeta(mi) - table.zeta(m0)) / ph
                       + _scalarize(x_term(np.atleast_1d(xi), np.atleast_1d(support[0]), xp)))
        return np.array(out, dtype=float)

    def jacobian(vec):
        a, b, ph, xp = unpack(vec)
        x0v = np.atleast_1d(support[0])
        m0 = predictor(a, b, support[0])
        n_x = len(x_names)
        rows = []
        for xi in support[1:]:
            xiv = np.atleast_1d(xi)
            mi = predictor(a, b, xi)
            check_predictor_domain(table, (mi, m0))
            fp_i, fp_0 = table.phi_prime(mi), table.phi_prime(m0)
            row = np.concatenate([
                [(fp_i - fp_0) / ph],
                (fp_i * xiv - fp_0 * x0v) / ph,
                [-(table.phi(mi) - table.phi(m0)) / ph ** 2] if phi_free else [],
                np.zeros(n_x),
            ])
            rows.append(row)
        for xi in support[1:]:
            xiv = np.atleast_1d(xi)
            mi = predictor(a, b, xi)
            zp_i, zp_0 = table.zeta_prime(mi), table.zeta_prime(m0)
            row = np.concatenate([
                [-(zp_i - zp_0) / ph],
                -(zp_i * xiv - zp_0 * x0v) / ph,
                [(table.zeta(mi) - table.zeta(m0)) / ph ** 2] if phi_free else [],
                np.asarray(x_grad(xiv, x0v, xp), dtype=float).reshape(-1),
            ])
            rows.append(row)
        return np.array(rows, dtype=float)

    return EquationStack(param_names=names, theta0=theta0, equations=equations,
                         jacobian=jacobian)


def _scalarize(v):
    return float(np.asarray(v).reshape(()))


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
