import itertools

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


# 12 concordant rows and one discordant pair 1e-9 apart in x: the maximizer
# is finite, near theta = 1.7e4, where the score's 1e-9 pair terms cancel to
# 1e-13 or less
NEAR_SEPARATED = ([i * 1e-3 for i in range(12)] + [1.0, 1.0 + 1e-9],
                  [float(i) for i in range(12)] + [100.0, 99.0])
# the one concordant pair has d = 1e-400, 0 in floats, so every kernel sees
# separated data and theta runs off to -inf
UNDERFLOWED = ([0.0, 1e-200, -1.0, 5.0], [0.0, 1e-200, 5.0, -1.0])


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


def groupwise_contrasts(xc, yc, group_size):
    """(groups, g!) array of S_P - S_id, identity first, over
    itertools.combinations x itertools.permutations (oracle)."""
    perms = list(itertools.permutations(range(group_size)))
    rows = []
    for idx in itertools.combinations(range(len(xc)), group_size):
        xg, yg = xc[list(idx)], yc[list(idx)]
        s_id = float(np.sum(xg * yg))
        rows.append([float(np.sum(xg[list(p)] * yg)) - s_id for p in perms])
    return np.array(rows)


def groupwise_oracle(xc, yc, group_size, theta):
    """Groupwise objective, score and Hessian through scipy's logsumexp
    over contrasts built here (oracle).  The Hessian is the weighted
    variance about the mean: the uncentred E[d^2] - E[d]^2 loses up to 7
    digits at theta = +-200."""
    deltas = groupwise_contrasts(xc, yc, group_size)
    z = theta * deltas
    lse = logsumexp(z, axis=1)
    w = np.exp(z - lse[:, None])
    mean_d = np.sum(w * deltas, axis=1)
    return (-float(np.sum(lse)), -float(np.sum(mean_d)),
            -float(np.sum(w * (deltas - mean_d[:, None]) ** 2)))
