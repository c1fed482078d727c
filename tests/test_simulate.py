import json

import numpy as np
import pytest

import crisscross as cc
from crisscross.families import Family, Link
from crisscross.glm import fit_logistic

from conftest import make_dataset


def test_reference_missingness_pattern_frequencies():
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               100_000, seed=42)
    sim = cc.simulate_dataset(config)
    freqs = cc.missingness_summary(sim.observed).frequencies
    expected = np.array([0.05, 0.16, 0.25, 0.54])
    assert np.all(np.abs(freqs - expected) <= 0.02)


def test_forced_observation():
    mech = cc.MissingnessMechanism((50.0, 0.0), (50.0, 0.0, 0.0))
    sim = cc.simulate_dataset(cc.ScenarioConfig(cc.SECTION61_TARGET, mech, 5000, 1))
    assert np.all(sim.observed.r_x == 1) and np.all(sim.observed.r_y == 1)
    assert np.array_equal(sim.observed.x, sim.complete_x)
    assert np.array_equal(sim.observed.y, sim.complete_y)


def test_complete_correlation_matches_population(section61_large):
    sim = section61_large
    corr = np.corrcoef(sim.complete_x, sim.complete_y)[0, 1]
    assert corr == pytest.approx(0.3, abs=0.003)


def test_missingness_summary_edge_cases():
    one = make_dataset([1.0], [2.0], [1], [1])
    s = cc.missingness_summary(one)
    assert tuple(s.frequencies) == (0.0, 0.0, 0.0, 1.0)
    gone = make_dataset([np.nan], [np.nan], [0], [0])
    assert tuple(cc.missingness_summary(gone).frequencies) == (1.0, 0.0, 0.0, 0.0)
    assert s.exact_sum() == 1
    with pytest.raises(cc.DataError):
        cc.missingness_summary(make_dataset([], [], [], []))


def test_coarsening_consistency(section61_small):
    obs = section61_small.observed
    assert np.all(np.isnan(obs.x) == (obs.r_x == 0))
    assert np.all(np.isnan(obs.y) == (obs.r_y == 0))


def test_conditional_independence_structure(section61_large):
    # (i) R_x _||_ X | Y: the x coefficient in a logistic fit of R_x on
    # (x, y) over the complete draws should be statistically null
    sim = section61_large
    n = len(sim.complete_x)
    design = np.column_stack([np.ones(n), sim.complete_x, sim.complete_y])
    fit = fit_logistic(design, sim.observed.r_x.astype(float))
    z_x = fit.coef[1] / np.sqrt(fit.cov[1, 1])
    assert abs(z_x) < 3.0
    # (ii) R_y _||_ Y | X, R_x
    design = np.column_stack([np.ones(n), sim.complete_y, sim.complete_x,
                              sim.observed.r_x.astype(float)])
    fit = fit_logistic(design, sim.observed.r_y.astype(float))
    z_y = fit.coef[1] / np.sqrt(fit.cov[1, 1])
    assert abs(z_y) < 3.0


def test_simulation_determinism_byte_identical_csv(tmp_path):
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               500, seed=7)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cc.save_dataset(cc.simulate_dataset(config).observed, p1)
    cc.save_dataset(cc.simulate_dataset(config).observed, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trip(tmp_path):
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               200, seed=11)
    obs = cc.simulate_dataset(config).observed
    path = tmp_path / "d.csv"
    cc.save_dataset(obs, path)
    back = cc.load_dataset(path)
    assert np.array_equal(back.r_x, obs.r_x)
    assert np.array_equal(back.y[back.r_y == 1], obs.y[obs.r_y == 1])
    assert np.array_equal(back.x[back.r_x == 1], obs.x[obs.r_x == 1])
    assert b"\r" not in path.read_bytes()


def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               200, seed=11)
    obs = cc.simulate_dataset(config).observed
    one, blocks = tmp_path / "one.csv", tmp_path / "blocks.csv"
    monkeypatch.setattr(cc.dataio, "_SAVE_ROWS", obs.n_total)
    cc.save_dataset(obs, one)
    monkeypatch.setattr(cc.dataio, "_SAVE_ROWS", 7)     # several blocks, a partial last
    cc.save_dataset(obs, blocks)
    assert blocks.read_bytes() == one.read_bytes()


def test_csv_write_memory_is_bounded_by_a_block(tmp_path):
    import tracemalloc
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               100_000, seed=42)
    obs = cc.simulate_dataset(config).observed
    tracemalloc.start()
    try:
        cc.save_dataset(obs, tmp_path / "d.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of line strings is about 1.2 MB; the whole file's lines
    # and their joined text are 15 MB
    assert peak < 4 * 2 ** 20


def test_save_report_writes_numpy_scalars_as_json(tmp_path):
    # a propensity fit that stops unconverged flags separation as np.bool_
    path = tmp_path / "r.json"
    cc.save_report({"separation": np.bool_(False), "n": np.int64(3),
                    "x": np.float64(0.5), "v": np.arange(2)}, path)
    assert json.loads(path.read_text()) == {"separation": False, "n": 3, "x": 0.5,
                                            "v": [0, 1]}


@pytest.mark.parametrize("n_total", [10 ** 12, int(1e300)], ids=["1e12", "1e300"])
def test_sample_size_beyond_physical_memory_is_a_domain_error(n_total):
    with pytest.raises(cc.DomainError, match="physical memory"):
        cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, n_total, 0)
    with pytest.raises(cc.DomainError, match="physical memory"):
        cc.ExperimentConfig(sweep="sample_size", values=(n_total,), replicates=2)


@pytest.mark.parametrize("seed", [-1, (1, -2), 1.5, "a", True, ()],
                         ids=["negative", "negative-entry", "float", "str", "bool", "empty"])
def test_scenario_seed_is_checked(seed):
    with pytest.raises(cc.DomainError, match="seed must be an integer >= 0"):
        cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 10, seed)


def test_experiment_bounds_the_replicates_it_holds_at_once():
    cc.ExperimentConfig(sweep="rho", values=(0.3,), replicates=2, n_total=40)
    with pytest.raises(cc.DomainError, match="replicates x sample size"):
        cc.ExperimentConfig(sweep="rho", values=(0.3,), replicates=10 ** 12,
                            n_total=40)


def test_binary_uniform_cells():
    b = cc.Binary2x2Model(0.25, 0.25, 0.25, 0.25)
    mech = cc.MissingnessMechanism((50.0, 0.0), (50.0, 0.0, 0.0))
    sim = cc.simulate_binary(b, mech, 400_000, 3)
    for xv in (1.0, 2.0):
        for yv in (1.0, 2.0):
            freq = np.mean((sim.complete_x == xv) & (sim.complete_y == yv))
            assert freq == pytest.approx(0.25, abs=0.003)


def test_binary_sample_log_odds_ratio():
    b = cc.Binary2x2Model(0.723, 0.081, 0.078, 0.118)
    mech = cc.MissingnessMechanism((50.0, 0.0), (50.0, 0.0, 0.0))
    sim = cc.simulate_binary(b, mech, 100_000, 5)
    counts = np.array([
        np.sum((sim.complete_x == i) & (sim.complete_y == j))
        for i in (1.0, 2.0) for j in (1.0, 2.0)
    ], dtype=float)
    logor = np.log(counts[0] * counts[3] / (counts[1] * counts[2]))
    assert logor == pytest.approx(2.60, abs=0.1)


def test_binary_degenerate_simplex():
    b = cc.Binary2x2Model(1.0, 0.0, 0.0, 0.0)
    mech = cc.MissingnessMechanism((50.0, 0.0), (50.0, 0.0, 0.0))
    sim = cc.simulate_binary(b, mech, 100, 1)
    assert np.all(sim.complete_x == 1.0) and np.all(sim.complete_y == 1.0)
    with pytest.raises(cc.DomainError):
        cc.Binary2x2Model(0.5, 0.5, 0.5, -0.5)


def test_mean_domain_violation_aborts():
    # exponential Y|X needs a negative natural parameter everywhere
    spec = cc.ExpFamilySpec(Family.NORMAL, Family.EXPONENTIAL, Link.CANONICAL)
    params = cc.TargetLawParams(alpha=1.0, beta=[0.1], phi=1.0, eta_x=[0.0])
    target = cc.ExpFamilyTarget(spec, params)
    config = cc.ScenarioConfig(target, cc.SECTION61_MECHANISM, 1000, 1)
    with pytest.raises(cc.DomainError):
        cc.simulate_dataset(config)


def test_exp_family_bernoulli_x_normal_y():
    spec = cc.ExpFamilySpec(Family.BERNOULLI, Family.NORMAL, Link.CANONICAL)
    params = cc.TargetLawParams(alpha=0.5, beta=[1.0], phi=2.0, eta_x=[0.4])
    target = cc.ExpFamilyTarget(spec, params)
    sim = cc.simulate_dataset(cc.ScenarioConfig(target, cc.SECTION61_MECHANISM,
                                                200_000, 17))
    p = cc.expit(0.4)
    assert np.mean(sim.complete_x) == pytest.approx(p, abs=0.005)
    m1 = sim.complete_y[sim.complete_x == 1.0].mean()
    assert m1 == pytest.approx(1.5, abs=0.02)
