import numpy as np
import pytest
from scipy.special import logsumexp

import crisscross as cc


@pytest.fixture(scope="session")
def section61_small():
    """One medium dataset from the reference scenario (N=2000)."""
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               2000, seed=2024)
    return cc.simulate_dataset(config)


@pytest.fixture(scope="session")
def section61_large():
    """One large draw for moment checks (N=10^6)."""
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               1_000_000, seed=202)
    return cc.simulate_dataset(config)


def make_dataset(x, y, r_x, r_y):
    return cc.ObservedDataset(np.asarray(x, float), np.asarray(y, float),
                              np.asarray(r_x), np.asarray(r_y))


def complete_dataset(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    ones = np.ones(len(x), dtype=np.int8)
    return cc.ObservedDataset(x, y, ones, ones)


def pair_loglik(u, v, theta):
    """Pairwise objective over a materialized logistic pair design (oracle)."""
    lin = theta * v
    return float(np.sum(u * lin - np.logaddexp(0.0, lin)))


def groupwise_oracle(delta_blocks, theta):
    """Groupwise objective, score and Hessian through scipy's logsumexp
    (oracle).  The Hessian is the weighted variance about the mean: the
    uncentred E[d^2] - E[d]^2 loses up to 7 digits at theta = +-200."""
    obj = score = hess = 0.0
    for deltas in delta_blocks():
        z = theta * deltas
        lse = logsumexp(z, axis=1)
        w = np.exp(z - lse[:, None])
        mean_d = np.sum(w * deltas, axis=1)
        obj -= float(np.sum(lse))
        score -= float(np.sum(mean_d))
        hess -= float(np.sum(w * (deltas - mean_d[:, None]) ** 2))
    return obj, score, hess
