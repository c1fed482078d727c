import json

import numpy as np
import pytest

import crisscross as cc
from crisscross.experiments import _cell_stats, _collect, _fit_gee, _fit_pseudolik

from conftest import UNDERFLOWED, complete_dataset


def small_config(**kw):
    base = dict(sweep="sample_size", values=(300,), replicates=8, base_seed=5,
                methods=("pseudolik", "gee_nonoptimal", "gee_optimal"))
    base.update(kw)
    return cc.ExperimentConfig(**base)


def test_run_is_reproducible_byte_identical(tmp_path):
    cfg = small_config(replicates=1)
    cc.write_summary(cc.run_experiment(cfg), tmp_path / "a")
    cc.write_summary(cc.run_experiment(cfg), tmp_path / "b")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_threaded_run_matches_sequential():
    seq = cc.run_experiment(small_config())
    par = cc.run_experiment(small_config(threads=4))
    for key, vals in seq.estimates.items():
        assert np.array_equal(vals, par.estimates[key])


def test_aggregation_against_independent_recomputation():
    summary = cc.run_experiment(small_config())
    for (label, method, param), cs in summary.stats.items():
        vals = summary.estimates[(label, method, param)]
        truth = summary.truths[label].get(param)
        if truth is None:
            continue
        # two-pass recomputation
        bias = sum(vals) / len(vals) - truth
        sd = np.sqrt(sum((v - np.mean(vals)) ** 2 for v in vals) / (len(vals) - 1))
        mse = sum((v - truth) ** 2 for v in vals) / len(vals)
        assert cs.bias == pytest.approx(bias, abs=1e-10)
        assert cs.sd == pytest.approx(sd, abs=1e-10)
        assert cs.mse == pytest.approx(mse, abs=1e-10)
        assert cs.mse == pytest.approx(cs.bias ** 2 + cs.sd ** 2 * (len(vals) - 1)
                                       / len(vals), abs=1e-12)


def test_failure_accounting_sums_to_replicates():
    summary = cc.run_experiment(small_config(replicates=12))
    for (label, method, param), cs in summary.stats.items():
        assert cs.n_converged + cs.n_failed == 12


def test_collect_counts_failures():
    datasets = list(range(6))

    def fit(d):
        if d % 2 == 1:
            raise cc.NumericalError("boom")
        return {"v": float(d)}, {"v": 0.1}

    est, ses, failed = _collect(datasets, fit, threads=1)
    assert failed == 3
    assert [e for e in est if e] == [{"v": 0.0}, {"v": 2.0}, {"v": 4.0}]


def test_cell_stats_internal_consistency_guard():
    vals = np.array([0.5, 0.7, 0.2])
    cs = _cell_stats(vals, None, truth=0.4, n_failed=0)
    assert cs.n_converged == 3
    assert cs.mse == pytest.approx(np.mean((vals - 0.4) ** 2))


def test_known_alpha_resolution():
    cfg = cc.ExperimentConfig(sweep="rho", values=(0.5,), replicates=2,
                              base_seed=3, n_total=200, known={"alpha": "truth"},
                              methods=("gee_nonoptimal",))
    points = cc.sweep_points(cfg)
    alpha_true = cc.derive_conditional(2, 0.4, 1, 3, 0.5)[0]
    assert points[0].known["alpha"] == pytest.approx(alpha_true)
    summary = cc.run_experiment(cfg)
    assert ("rho=0.5", "gee_nonoptimal", "beta") in summary.stats
    assert ("rho=0.5", "gee_nonoptimal", "alpha") not in summary.stats


def test_known_beta_leaves_gee_without_an_odds_ratio():
    cfg = cc.ExperimentConfig(sweep="rho", values=(0.3,), replicates=3,
                              base_seed=5, n_total=400, known={"beta": "truth"},
                              methods=("gee_nonoptimal",))
    summary = cc.run_experiment(cfg)
    assert set(summary.stats) == {("rho=0.3", "gee_nonoptimal", "alpha")}


def test_an_unconverged_study_fit_is_a_numerical_error(monkeypatch):
    with pytest.raises(cc.NumericalError, match="did not converge"):
        _fit_pseudolik(complete_dataset(*UNDERFLOWED))
    # the linear GEE takes its one step, and converges only at iteration 2
    monkeypatch.setattr(cc.model, "NEWTON_MAX_ITER", 1)
    point = cc.sweep_points(small_config())[0]
    data = cc.simulate_dataset(cc.ScenarioConfig(point.target, point.mechanism,
                                                 300, seed=1)).observed
    with pytest.raises(cc.NumericalError, match="GEE fit did not converge"):
        _fit_gee(data, point, None)


def test_misspecification_sweep_uses_quadratic_mechanism():
    cfg = cc.ExperimentConfig(sweep="misspecification", values=(500,),
                              replicates=2, base_seed=3,
                              methods=("gee_nonoptimal",))
    point = cc.sweep_points(cfg)[0]
    assert point.mechanism is cc.MISSPECIFIED_MECHANISM


def test_true_odds_ratio_overflow_raises():
    # rho = 0.99999 puts the true log odds ratio near 1.7e4
    cfg = cc.ExperimentConfig(sweep="rho", values=(0.99999,), replicates=2)
    with pytest.raises(cc.NumericalError, match="odds ratio"):
        cc.sweep_points(cfg)


def test_config_validation():
    with pytest.raises(cc.ConfigError):
        cc.ExperimentConfig(sweep="nope", values=(1,))
    with pytest.raises(cc.ConfigError):
        cc.ExperimentConfig(sweep="rho", values=(0.1,), methods=("bogus",))
    with pytest.raises(cc.ConfigError):
        cc.ExperimentConfig(sweep="rho", values=(0.1,), replicates=0)
    with pytest.raises(cc.ConfigError, match="whole numbers"):
        cc.ExperimentConfig(sweep="sample_size", values=(500, 1000.5))
    for bad in ({"values": ("abc",)}, {"values": (float("inf"),)},
                {"replicates": "x"}, {"replicates": True}, {"base_seed": -3},
                {"n_total": 0}, {"known": {"alpha": "abc"}}, {"known": {"gamma": 1}}):
        with pytest.raises(cc.ConfigError):
            cc.ExperimentConfig(**{"sweep": "rho", "values": (0.1,), **bad})


def test_tidy_csv_layout(tmp_path):
    cc.write_summary(cc.run_experiment(small_config(methods=("pseudolik",))),
                     tmp_path / "out")
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "sweep_point,method,parameter,statistic,value"
    assert any(line.startswith("N=300,pseudolik,theta,bias,") for line in lines)
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["cells"][0]["n_converged"] + payload["cells"][0]["n_failed"] == 8


# ------------------------------------------------------------------ #
# bootstrap
# ------------------------------------------------------------------ #

BINARY_TRUTH = cc.Binary2x2Model(0.723, 0.081, 0.078, 0.118)
BINARY_MECH = cc.MissingnessMechanism((0.2, 0.4), (1.5, -1.0, 0.5))


@pytest.fixture(scope="module")
def binary_data():
    return cc.simulate_binary(BINARY_TRUTH, BINARY_MECH, 1200, 13).observed


def _fit_logor(data):
    res = cc.fit_pairwise(cc.build_pairs(data))
    return {"log_or": res.theta_hat}


def test_bootstrap_se_matches_reference_scale(binary_data):
    boot = cc.bootstrap(binary_data, _fit_logor, 1000, seed=17)
    se = boot.se["log_or"]
    assert abs(se / 0.194 - 1.0) <= 0.5
    assert boot.n_failed == 0


def test_bootstrap_stability(binary_data):
    b1 = cc.bootstrap(binary_data, _fit_logor, 1000, seed=17)
    b2 = cc.bootstrap(binary_data, _fit_logor, 2000, seed=18)
    assert abs(b1.se["log_or"] / b2.se["log_or"] - 1.0) <= 0.1


def test_bootstrap_degenerate_data_flagged():
    data = complete_dataset(np.full(40, 1.0), np.arange(40, dtype=float))
    with pytest.raises(cc.DataError):
        cc.bootstrap(data, _fit_logor, 10, seed=1)


def test_bootstrap_needs_two_resamples(binary_data):
    with pytest.raises(cc.ConfigError):
        cc.bootstrap(binary_data, _fit_logor, 1, seed=1)
