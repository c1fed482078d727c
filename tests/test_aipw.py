from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

import crisscross as cc

from conftest import complete_dataset


# discrete toy law with rational probabilities and a permutation-submodel
# mechanism: p(R_y = 1 | R_x = 0) does not depend on X
P_XY = {(0, 0): F(3, 10), (0, 1): F(1, 5), (1, 0): F(3, 20), (1, 1): F(7, 20)}
W = {0: F(7, 10), 1: F(11, 20)}          # p(R_x = 1 | y)
PI1 = {0: F(4, 5), 1: F(3, 5)}           # p(R_y = 1 | R_x = 1, x)
PI0 = F(13, 20)                          # p(R_y = 1 | R_x = 0)


def _h(x, y):
    return x


def exact_quantities():
    beta_h = sum(p * _h(x, y) for (x, y), p in P_XY.items())
    p_y = {y: sum(p for (x, yy), p in P_XY.items() if yy == y) for y in (0, 1)}
    m_h = {y: sum(p * _h(x, yy) for (x, yy), p in P_XY.items() if yy == y) / p_y[y]
           for y in (0, 1)}

    def phi(x, y, rx):
        val = m_h[y]
        if rx == 1:
            val = val + (_h(x, y) - m_h[y]) / W[y]
        return val

    m_phi1 = {}
    for x in (0, 1):
        num = sum(P_XY[(x, y)] * W[y] * phi(x, y, 1) for y in (0, 1))
        den = sum(P_XY[(x, y)] * W[y] for y in (0, 1))
        m_phi1[x] = num / den
    num = sum(p_y[y] * (1 - W[y]) * phi(0, y, 0) for y in (0, 1))
    den = sum(p_y[y] * (1 - W[y]) for y in (0, 1))
    m_phi0 = num / den
    return beta_h, m_h, phi, m_phi1, m_phi0


def toy_nuisance():
    _, m_h, _, m_phi1, m_phi0 = exact_quantities()
    return cc.PermutationNuisance(
        w=lambda yv: np.where(np.asarray(yv) == 0, float(W[0]), float(W[1])),
        pi_star=lambda r, xs: np.where(
            np.asarray(r) == 1,
            np.where(np.asarray(xs) == 0, float(PI1[0]), float(PI1[1])),
            float(PI0)),
        m_h=lambda yv: np.where(np.asarray(yv) == 0, float(m_h[0]), float(m_h[1])),
        m_phi=lambda r, xs: np.where(
            np.asarray(r) == 1,
            np.where(np.asarray(xs) == 0, float(m_phi1[0]), float(m_phi1[1])),
            float(m_phi0)),
    )


def simulate_toy(n, seed):
    rng = np.random.default_rng(np.random.SeedSequence((77, seed)))
    cells = list(P_XY)
    probs = [float(P_XY[c]) for c in cells]
    idx = rng.choice(4, n, p=probs)
    x = np.array([cells[i][0] for i in idx], float)
    y = np.array([cells[i][1] for i in idx], float)
    rx = (rng.random(n) < np.where(y == 0, float(W[0]), float(W[1]))).astype(np.int8)
    ry = (rng.random(n) < np.where(rx == 1,
                                   np.where(x == 0, float(PI1[0]), float(PI1[1])),
                                   float(PI0))).astype(np.int8)
    return cc.ObservedDataset(np.where(rx == 1, x, np.nan),
                              np.where(ry == 1, y, np.nan), rx, ry)


def test_no_missingness_reduces_to_sample_mean():
    rng = np.random.default_rng(1)
    x = rng.normal(size=400)
    y = rng.normal(size=400)
    data = complete_dataset(x, y)
    one = lambda *a: np.ones(len(x))
    nuis = cc.PermutationNuisance(
        w=lambda yv: np.ones(len(np.atleast_1d(yv))),
        pi_star=lambda r, xs: np.ones(len(np.atleast_1d(r))),
        m_h=lambda yv: np.zeros(len(np.atleast_1d(yv))),
        # with R = 1 everywhere, m_phi(1, x) = E[phi | X = x] = x
        m_phi=lambda r, xs: np.asarray(xs, float),
    )
    res = cc.aipw_permutation(data, lambda xx, yy: xx, nuis)
    assert res.beta_eif == pytest.approx(np.mean(x), rel=1e-12)
    assert res.beta_ipw == pytest.approx(np.mean(x), rel=1e-12)


def test_constant_functional_has_zero_influence():
    data = simulate_toy(500, 0)
    _, m_h, _, _, _ = exact_quantities()
    nuis = cc.PermutationNuisance(
        w=toy_nuisance().w, pi_star=toy_nuisance().pi_star,
        m_h=lambda yv: np.ones(len(np.atleast_1d(yv))),
        m_phi=lambda r, xs: np.ones(len(np.atleast_1d(r))),
    )
    res = cc.aipw_permutation(data, lambda xx, yy: np.ones(len(np.atleast_1d(xx))),
                              nuis)
    assert res.beta_eif == 1.0
    assert np.all(res.influence_values == 0.0)


def test_exact_enumeration_identifies_beta_h():
    beta_h, m_h, phi, m_phi1, m_phi0 = exact_quantities()
    total_eif = F(0)
    total_ipw = F(0)
    for (x, y), p in P_XY.items():
        for rx in (0, 1):
            p_rx = W[y] if rx == 1 else 1 - W[y]
            pi = PI1[x] if rx == 1 else PI0
            for ry in (0, 1):
                p_ry = pi if ry == 1 else 1 - pi
                weight = p * p_rx * p_ry
                m_phi = m_phi1[x] if rx == 1 else m_phi0
                if ry == 1:
                    contrib = (phi(x, y, rx) - m_phi) / pi + m_phi
                    total_ipw += weight * F(rx) * _h(x, y) / (W[y] * PI1[x])
                else:
                    contrib = m_phi
                total_eif += weight * contrib
    assert total_eif == beta_h
    assert total_ipw == beta_h


def test_sampled_estimators_unbiased_and_eif_more_efficient():
    beta_h = float(exact_quantities()[0])
    nuis = toy_nuisance()
    eifs, ipws = [], []
    for rep in range(200):
        data = simulate_toy(800, rep)
        res = cc.aipw_permutation(data, _h, nuis)
        eifs.append(res.beta_eif)
        ipws.append(res.beta_ipw)
    assert np.mean(eifs) == pytest.approx(beta_h, abs=0.01)
    assert np.mean(ipws) == pytest.approx(beta_h, abs=0.01)
    assert np.var(eifs, ddof=1) <= np.var(ipws, ddof=1)


def test_se_tracks_replication_spread():
    nuis = toy_nuisance()
    ses, ests = [], []
    for rep in range(60):
        res = cc.aipw_permutation(simulate_toy(800, rep), _h, nuis)
        ses.append(res.se_eif)
        ests.append(res.beta_eif)
    assert np.mean(ses) == pytest.approx(np.std(ests, ddof=1), rel=0.3)


def test_default_parametric_nuisance_fit_runs(section61_small):
    data = section61_small.observed
    nuis = cc.fit_permutation_nuisances(data, lambda x, y: x)
    res = cc.aipw_permutation(data, lambda x, y: x, nuis)
    # E[X] = 0.4 under the reference target law
    assert res.beta_eif == pytest.approx(0.4, abs=0.5)
    assert res.se_eif > 0


def test_propensity_floor_enforced():
    data = simulate_toy(100, 1)
    nuis = toy_nuisance()
    bad = cc.PermutationNuisance(w=nuis.w, m_h=nuis.m_h, m_phi=nuis.m_phi,
                                 pi_star=lambda r, xs: np.full(
                                     len(np.atleast_1d(r)), 1e-9))
    with pytest.raises(cc.NumericalError):
        cc.aipw_permutation(data, _h, bad)


def test_default_nuisance_fit_floors_w_at_the_complete_cases(section61_small,
                                                              monkeypatch):
    # every fitted logistic model is expit(-50) ~ 2e-22 everywhere
    def fit_logistic(design, response):
        return SimpleNamespace(coef=np.r_[-50.0, np.zeros(design.shape[1] - 1)])

    monkeypatch.setattr(cc.glm, "fit_logistic", fit_logistic)
    with pytest.raises(cc.NumericalError, match="w below floor"):
        cc.fit_permutation_nuisances(section61_small.observed, lambda x, y: x)
