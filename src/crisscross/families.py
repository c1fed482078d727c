"""Exponential-family function tables.

Each one-parameter family is written in dispersion form

    p(y) = exp{ (y*eta - b(eta)) / Phi + c(y; Phi) },

with mean mu(eta) = b'(eta).  A link g maps the mean to the linear
predictor m = alpha + beta*x via g(mu) = m.  Two derived functions drive
everything downstream:

    phi(m)  = [g o mu]^{-1}(m)    (natural parameter at linear predictor m)
    zeta(m) = b(phi(m))

Under the canonical link g = g_c (mu = g^{-1}) phi is the identity and
zeta = b.  Under the inverse link g(u) = 1/u, phi(m) = mu^{-1}(1/m),
which requires m != 0 and 1/m inside the mean domain.

All callables are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError


class Family(str, Enum):
    NORMAL = "normal"
    BERNOULLI = "bernoulli"
    POISSON = "poisson"
    EXPONENTIAL = "exponential"
    MULTIVARIATE_NORMAL = "multivariate_normal"
    MULTINOMIAL = "multinomial"


class Link(str, Enum):
    CANONICAL = "canonical"
    INVERSE = "inverse"


def expit(t):
    """Inverse logit by exp(min(t, -t)), as exp(-|t|) never overflows but keeps
    a NaN's sign; 1 + e is formed in place, so two arrays of t's size are held."""
    t = np.asarray(t, dtype=float)
    e = np.exp(np.minimum(t, -t))
    out = np.where(t >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out if out.ndim else float(out)


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


@dataclass(frozen=True)
class FamilyTable:
    """Base functions of a univariate exponential family."""

    name: Family
    b: Callable
    b_prime: Callable          # mu(eta)
    mean_inv: Callable         # eta as a function of the mean
    mean_inv_prime: Callable
    eta_domain: Callable       # bool mask of valid natural parameters
    mean_domain: Callable      # bool mask of valid means


_FAMILIES = {
    Family.NORMAL: FamilyTable(
        name=Family.NORMAL,
        b=lambda e: 0.5 * e ** 2,
        b_prime=lambda e: e,
        mean_inv=lambda m: m,
        mean_inv_prime=lambda m: np.ones_like(np.asarray(m, dtype=float)),
        eta_domain=lambda e: np.isfinite(e),
        mean_domain=lambda m: np.isfinite(m),
    ),
    Family.BERNOULLI: FamilyTable(
        name=Family.BERNOULLI,
        b=lambda e: np.logaddexp(0.0, e),
        b_prime=expit,
        mean_inv=logit,
        mean_inv_prime=lambda m: 1.0 / (m * (1.0 - m)),
        eta_domain=lambda e: np.isfinite(e),
        mean_domain=lambda m: (m > 0) & (m < 1),
    ),
    Family.POISSON: FamilyTable(
        name=Family.POISSON,
        b=np.exp,
        b_prime=np.exp,
        mean_inv=np.log,
        mean_inv_prime=lambda m: 1.0 / m,
        eta_domain=lambda e: np.isfinite(e),
        mean_domain=lambda m: m > 0,
    ),
    Family.EXPONENTIAL: FamilyTable(
        name=Family.EXPONENTIAL,
        b=lambda e: -np.log(-e),
        b_prime=lambda e: -1.0 / e,
        mean_inv=lambda m: -1.0 / m,
        mean_inv_prime=lambda m: 1.0 / m ** 2,
        eta_domain=lambda e: e < 0,
        mean_domain=lambda m: m > 0,
    ),
}


def family_table(family: Family | str) -> FamilyTable:
    family = Family(family)
    if family not in _FAMILIES:
        raise DomainError(f"no univariate function table for family {family.value!r}")
    return _FAMILIES[family]


@dataclass(frozen=True)
class LinkTable:
    """phi = [g o mu]^{-1}, zeta = b o phi and first derivatives."""

    family: Family
    link: Link
    phi: Callable
    phi_prime: Callable
    zeta: Callable
    zeta_prime: Callable
    predictor_domain: Callable  # valid linear predictors m


def link_table(family: Family | str, link: Link | str) -> LinkTable:
    fam = family_table(family)
    link = Link(link)
    if link is Link.CANONICAL:
        return LinkTable(
            family=fam.name,
            link=link,
            phi=lambda m: np.asarray(m, dtype=float) + 0.0,
            phi_prime=lambda m: np.ones_like(np.asarray(m, dtype=float)),
            zeta=fam.b,
            zeta_prime=fam.b_prime,
            predictor_domain=fam.eta_domain,
        )

    # inverse link: g(u) = 1/u, so mu = 1/m and eta = mean_inv(1/m)
    def phi(m):
        m = np.asarray(m, dtype=float)
        return fam.mean_inv(1.0 / m)

    def phi_prime(m):
        m = np.asarray(m, dtype=float)
        return fam.mean_inv_prime(1.0 / m) * (-1.0 / m ** 2)

    def zeta(m):
        return fam.b(phi(m))

    def zeta_prime(m):
        return fam.b_prime(phi(m)) * phi_prime(m)

    def domain(m):
        m = np.asarray(m, dtype=float)
        ok = m != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(ok, 1.0 / np.where(ok, m, 1.0), np.nan)
        return ok & fam.mean_domain(inner)

    return LinkTable(fam.name, link, phi, phi_prime, zeta, zeta_prime, domain)


def check_predictor_domain(table: LinkTable, m) -> None:
    """Raise when a linear predictor sits outside the link's domain."""
    ok = table.predictor_domain(np.asarray(m, dtype=float))
    if not np.all(ok):
        bad = np.asarray(m, dtype=float)[~np.asarray(ok)]
        raise DomainError(
            f"linear predictor {float(bad.ravel()[0])} outside the domain of "
            f"{table.family.value}/{table.link.value}"
        )
