import numpy as np
import pytest

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
