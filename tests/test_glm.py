import numpy as np
import pytest

import crisscross as cc
from crisscross import glm


def _propensity_design(data):
    m = data.r_x == 1
    return np.column_stack([np.ones(m.sum()), data.x[m]]), data.r_y[m].astype(float)


@pytest.fixture(scope="module")
def readme_data():
    """The README's `simulate --n 100000 --seed 42` file, drawn in process."""
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               100_000, seed=42)
    return cc.simulate_dataset(config).observed


def test_a_stalled_fit_stops_at_its_fixed_point_with_the_capped_result(readme_data):
    # the coefficients the 100-iteration cap gives, as the benchmark stores them
    prop = cc.fit_propensity(readme_data)
    assert prop.coefficients.tolist() == [1.00021736527583, 0.6969652723170875]
    assert not prop.converged
    assert not prop.separation_flag
    fit = glm.fit_logistic(*_propensity_design(readme_data))
    assert fit.coef.tolist() == prop.coefficients.tolist()
    assert fit.iterations < glm.MAX_ITER


def test_a_converging_fit_is_not_stopped_early():
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               4000, seed=5)
    fit = glm.fit_logistic(*_propensity_design(cc.simulate_dataset(config).observed))
    assert fit.converged
    assert fit.iterations == 8
    assert fit.coef.tolist() == [0.9556231581196647, 0.7165123144083252]
