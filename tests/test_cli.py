import json
from pathlib import Path

import numpy as np
import pytest

import crisscross as cc
from crisscross.cli import main

from conftest import NEAR_SEPARATED, UNDERFLOWED, complete_dataset


@pytest.fixture()
def dataset_csv(tmp_path):
    sim = cc.simulate_dataset(cc.ScenarioConfig(cc.SECTION61_TARGET,
                                                cc.SECTION61_MECHANISM, 800, 3))
    path = tmp_path / "data.csv"
    cc.save_dataset(sim.observed, path)
    return path


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "500", "--seed", "4", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_total"] == 500
    assert sum(payload["pattern_counts"]) == 500
    loaded = cc.load_dataset(out)
    assert loaded.n_total == 500


def test_estimate_pseudolik(dataset_csv, capsys):
    assert main(["estimate", str(dataset_csv), "--method", "pseudolik"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert payload["theta_hat"] == pytest.approx(0.9 / 8.19, abs=0.08)
    assert payload["or_unit_contrast"]["point"] > 0


def test_estimate_gee_with_or(dataset_csv, capsys):
    assert main(["estimate", str(dataset_csv), "--method", "gee",
                 "--sigma2", "8.19"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["estimates"]) == {"alpha", "beta"}
    odds = payload["or_unit_contrast"]
    assert odds["point"] == pytest.approx(np.exp(payload["estimates"]["beta"] / 8.19),
                                          rel=1e-12)
    assert odds["se"] == pytest.approx(odds["point"] * payload["se"]["beta"] / 8.19,
                                       rel=1e-12)


# x = y at every complete case: the residuals are 0, so the fit has no
# sandwich covariance
EXACT_LINE = ("x,y,r_x,r_y\n0,0,1,1\n1,1,1,1\n2,2,1,1\n3,3,1,1\n4,4,1,1\n"
              ",2,0,1\n4,,1,0\n6,,1,0\n2,,1,0\n")


def test_gee_odds_ratio_has_no_se_without_a_sandwich(tmp_path, capsys):
    path = tmp_path / "exact.csv"
    path.write_text(EXACT_LINE)
    assert main(["estimate", str(path), "--method", "gee", "--sigma2", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "se" not in payload
    beta = payload["estimates"]["beta"]
    assert payload["or_unit_contrast"] == {"point": pytest.approx(np.exp(beta))}


def test_estimate_gee_optimal_with_known_alpha(dataset_csv, capsys):
    assert main(["estimate", str(dataset_csv), "--method", "gee", "--f",
                 "optimal", "--known", "alpha=-1.4", "--sigma2", "8.19"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["estimates"]) == {"beta"}


def test_identify_case(capsys):
    assert main(["identify", "--case", "bivariate_normal", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["numerical_rank"] == 3
    assert len(payload["sufficient_sets"]) == 7
    assert payload["full_law"]["completeness_holds"] == "yes"


def test_identify_generic_config(tmp_path, capsys):
    cfg = {
        "family_x": "exponential", "family_y_given_x": "exponential",
        "theta": {"alpha": -1.0, "beta": [-0.5], "eta_x": [-1.0]},
        "support_points": [0.0, 1.0, 2.0, 3.0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["identify", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["full_rank"]
    assert payload["sufficient_sets"] == [[]]
    assert payload["full_law"]["completeness_holds"] == "unknown"


def test_verify_counterexample(capsys):
    assert main(["verify-counterexample"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["observed_laws_match"]
    assert payload["target_law_variances"][0] == pytest.approx(1.0, abs=1e-6)


def test_bootstrap_command(dataset_csv, capsys):
    assert main(["bootstrap", str(dataset_csv), "--method", "pseudolik",
                 "--resamples", "25", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["se"]["theta"] > 0
    assert payload["n_resamples"] == 25


def test_experiment_command(tmp_path, capsys):
    cfg = {"sweep": "sample_size", "values": [200], "replicates": 3,
           "base_seed": 9, "methods": ["pseudolik"]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "summary"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_exit_code_2_on_config_error():
    assert main(["experiment"]) == 2


def test_exit_code_2_optimal_without_sigma2(dataset_csv):
    assert main(["estimate", str(dataset_csv), "--method", "gee",
                 "--f", "optimal"]) == 2


def test_exit_code_3_on_missing_file():
    assert main(["estimate", "no-such-file.csv", "--method", "pseudolik"]) == 3


def test_exit_code_3_on_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,r_x,r_y\n1.5,,1,1\n")
    assert main(["estimate", str(bad), "--method", "pseudolik"]) == 3


def test_exit_code_4_on_numerical_failure(tmp_path):
    sep = tmp_path / "sep.csv"
    data = complete_dataset([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    cc.save_dataset(data, sep)
    assert main(["estimate", str(sep), "--method", "pseudolik"]) == 4


@pytest.mark.parametrize("group_size", ["2", "3", "4"])
def test_separated_rows_exit_4_for_every_group_size(group_size, tmp_path, capsys):
    # every pair is concordant or tied in y, so theta_hat diverges to +inf
    path = tmp_path / "sep.csv"
    cc.save_dataset(complete_dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 2.0]), path)
    argv = ["estimate", str(path), "--method", "pseudolik", "--group-size", group_size]
    assert main(argv) == 4
    assert "complete separation" in capsys.readouterr().err


def test_groupwise_odds_ratio_that_overflows_exits_4(tmp_path, capsys):
    # one discordant pair 1e-9 apart in x: theta_hat is finite but about 1e4
    xs = [i * 1e-3 for i in range(12)] + [1.0, 1.0 + 1e-9]
    ys = [float(i) for i in range(12)] + [100.0, 99.0]
    path = tmp_path / "near_sep.csv"
    cc.save_dataset(complete_dataset(xs, ys), path)
    argv = ["estimate", str(path), "--method", "pseudolik", "--group-size", "3"]
    assert _run_without_traceback(argv, capsys) == 4


def test_csv_validation_messages(tmp_path):
    cases = {
        "1.5,2.0,1,1\n": None,                    # valid complete row
        ",2.0,0,1\n": None,                       # valid x-missing row
        "1.5,,1,1\n": "y absent but r_y=1",
        ",2.0,1,1\n": "x absent but r_x=1",
        "1.5,2.0,0,1\n": "x present but r_x=0",
        "1.5,zz,1,1\n": "malformed numeric",
    }
    for row, msg in cases.items():
        path = tmp_path / "case.csv"
        path.write_text("x,y,r_x,r_y\n" + row)
        if msg is None:
            cc.load_dataset(path)
        else:
            with pytest.raises(cc.DataError) as exc:
                cc.load_dataset(path)
            assert ":2:" in str(exc.value)


def test_estimate_reports_ties_from_the_fit(tmp_path, capsys):
    rng = np.random.default_rng(8)
    x = rng.normal(size=60)
    y = np.round(0.5 * x + rng.normal(size=60), 1)
    path = tmp_path / "ties.csv"
    cc.save_dataset(complete_dataset(x, y), path)
    assert main(["estimate", str(path), "--method", "pseudolik"]) == 0
    ties = sum(y[i] == y[k] for i in range(60) for k in range(i + 1, 60))
    assert ties > 0
    assert json.loads(capsys.readouterr().out)["ties_dropped"] == ties


def test_bootstrap_pseudolik_se_comes_from_theta_alone(dataset_csv, capsys):
    assert main(["bootstrap", str(dataset_csv), "--method", "pseudolik",
                 "--resamples", "6", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    boot = cc.bootstrap(cc.load_dataset(dataset_csv),
                        lambda d: {"theta": cc.fit_pairwise_with_variance(d).theta_hat},
                        6, 5)
    assert payload["se"]["theta"] == boot.se["theta"]
    assert payload["n_failed"] == boot.n_failed == 0


def _run_without_traceback(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return code


def _cli_process(argv):
    """The CLI in a fresh interpreter, as a user runs it: Python's default
    warning filters, not the test run's."""
    import os
    import subprocess
    import sys
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "crisscross.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_stdout_closed_early_exits_141_without_traceback(dataset_csv):
    # the reader closes the pipe before the fit ends, as `estimate ... | true`
    proc = _cli_process(["estimate", str(dataset_csv), "--method", "pseudolik"])
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("options, message", [
    (["--known", "alpha=1e200"], "GEE fit did not converge"),
    (["--known", "alpha=0", "--sigma2", "2.225073858507e-311"],
     "odds ratio at log-odds inf"),
], ids=["score-near-1e200", "subnormal-sigma2"])
def test_overflowing_gee_fit_prints_one_stderr_line(options, message, dataset_csv):
    # scores near 1e200 overflow a squared norm, and beta / sigma2 a numpy
    # division: a numpy warning would print two lines before the error
    proc = _cli_process(["estimate", str(dataset_csv), "--method", "gee", *options])
    out, err = proc.communicate(timeout=120)
    lines = err.decode().splitlines()
    assert proc.returncode == 4 and out == b"" and len(lines) == 1
    assert lines[0].startswith(f"numerical failure: {message}")


def test_exit_code_2_on_domain_error(tmp_path, capsys):
    assert _run_without_traceback(["verify-counterexample", "--step", "0.1"], capsys) == 2
    const_x = tmp_path / "const_x.csv"
    const_x.write_text("x,y,r_x,r_y\n1,0,1,1\n1,1,1,1\n1,2,1,1\n")
    assert _run_without_traceback(["estimate", str(const_x), "--method", "pseudolik"],
                                  capsys) == 2


def test_identify_case_without_support_is_config_error(capsys):
    assert _run_without_traceback(["identify", "--case", "multivariate_normal"],
                                  capsys) == 2


_EXPERIMENT = ["experiment", "--config", "CONFIG"]


@pytest.mark.parametrize("config, argv", [
    ('{"sweep": "rho", "values": ["abc"]}', _EXPERIMENT),
    ('{"sweep": "rho", "values": [NaN]}', _EXPERIMENT),
    ('{"sweep": "rho", "values": 0.3}', _EXPERIMENT),
    ('{"sweep": "rho", "values": [0.3], "replicates": "x"}', _EXPERIMENT),
    ('{"sweep": "rho", "values": [0.3], "replicates": 2.5}', _EXPERIMENT),
    ('{"sweep": "rho", "values": [0.3], "base_seed": -3}', _EXPERIMENT),
    ('{"sweep": "rho", "values": [0.3], "known": {"alpha": "abc"}}', _EXPERIMENT),
    ('[{"sweep": "rho", "values": [0.3]}]', _EXPERIMENT),
    ('{"sweep": "rho", "values": [0.3], "n_total": 40, "methods": ["pseudolik"], '
     '"replicate": 2}', _EXPERIMENT),
    (None, ["identify", "--case", "bivariate_normal", "--max-set-size", "-1"]),
    ('{"target": {"bogus": 1}}', ["simulate", "--config", "CONFIG"]),
    ('{"mechanism": {"rx_given_y": 5}}', ["simulate", "--config", "CONFIG"]),
    ('{"family_x": "normal", "theta": {}}', ["identify", "--config", "CONFIG"]),
    ('{"case": "normal_inverse", "theta": {}}', ["identify", "--config", "CONFIG"]),
    ('{"family_x": "exponential", "family_y_given_x": "exponential", "theta": '
     '{"alpha": -1.0, "beta": [-0.5], "eta_x": []}, "support_points": [0.0, 1.0, 2.0]}',
     ["identify", "--config", "CONFIG"]),
], ids=["values-str", "values-nan", "values-scalar", "replicates-str",
        "replicates-float", "base_seed-negative", "known-str", "top-level-array",
        "replicates-misspelled", "identify-max-set-size", "simulate-target-field",
        "simulate-mechanism-int", "identify-missing-family", "identify-case-theta",
        "identify-empty-eta"])
def test_exit_code_2_on_unchecked_config_value(config, argv, tmp_path, capsys):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config)
    argv = [str(path) if a == "CONFIG" else a for a in argv]
    assert _run_without_traceback(argv, capsys) == 2


def test_exit_code_3_when_a_bootstrap_se_has_one_estimate(tmp_path, capsys):
    # one of the two resamples fails, and the SD of one estimate is NaN
    path = tmp_path / "four.csv"
    path.write_text("x,y,r_x,r_y\n0.1,0.5,1,1\n0.7,-0.2,1,1\n1.3,2.0,1,1\n-0.4,0.9,1,1\n")
    argv = ["bootstrap", str(path), "--method", "pseudolik", "--resamples", "2",
            "--seed", "0"]
    assert _run_without_traceback(argv, capsys) == 3


def test_covariate_near_the_float_range_is_a_numerical_failure(tmp_path, capsys):
    # x = -1e300 overflows the propensity fit's information matrix
    path = tmp_path / "huge.csv"
    path.write_text("x,y,r_x,r_y\n-1,,1,0\n,,0,0\n,0,0,1\n-3,-3,1,1\n"
                    "-1.0661385132660358e-68,-0.9379069235692574,1,1\n-1e300,,1,0\n")
    assert _run_without_traceback(["estimate", str(path), "--method", "gee"],
                                  capsys) == 4
    code = main(["bootstrap", str(path), "--method", "gee", "--resamples", "20"])
    out = capsys.readouterr().out
    assert code in (0, 3)
    if code == 0:
        assert all(np.isfinite(list(json.loads(out)["se"].values())))


def test_exit_code_3_on_non_finite_value(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("x,y,r_x,r_y\n0.5,1.0,1,1\ninf,2.0,1,1\n1.5,0.5,1,1\n")
    assert _run_without_traceback(["estimate", str(path), "--method", "pseudolik"],
                                  capsys) == 3
    with pytest.raises(cc.DataError, match=":3:"):
        cc.load_dataset(path)


def test_exit_code_4_on_nonpositive_b_hat(tmp_path, capsys):
    path = tmp_path / "small.csv"
    cc.save_dataset(complete_dataset(
        [-0.218792, -1.245911, -0.732267, -0.544259, -0.3163],
        [0.302235, 0.419558, -0.494668, 1.094334, -0.823345]), path)
    assert _run_without_traceback(["estimate", str(path), "--method", "pseudolik"],
                                  capsys) == 4


def test_exit_code_3_on_non_ascii_bytes(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y,r_x,r_y\n0.5,1.0,1,1\n\xff,2.0,1,1\n")
    for command in ("estimate", "bootstrap"):
        assert _run_without_traceback([command, str(path), "--method", "pseudolik"],
                                      capsys) == 3
    with pytest.raises(cc.DataError, match="latin1.csv"):
        cc.load_dataset(path)


@pytest.mark.parametrize("argv", [
    ["estimate", "DATA", "--method", "gee", "--sigma2", "0"],
    ["estimate", "DATA", "--method", "gee", "--sigma2", "-1"],
    ["estimate", "DATA", "--method", "gee", "--sigma2", "nan"],
    ["estimate", "DATA", "--method", "gee", "--sigma2", "inf"],
    ["estimate", "DATA", "--method", "gee", "--known", "alpha=abc"],
    ["estimate", "DATA", "--method", "gee", "--known", "alpha=inf"],
    ["estimate", "DATA", "--method", "gee", "--known", "alpha=nan"],
    ["estimate", "DATA", "--method", "gee", "--known", "gamma=1"],
    ["estimate", "DATA", "--method", "gee", "--known", "alpha"],
    ["simulate", "--binary", "a,b,c,d"],
    ["simulate", "--binary", "0.25,0.25,0.25,nan"],
    ["simulate", "--seed", "-1"],
    ["bootstrap", "DATA", "--method", "gee", "--seed", "-2"],
    ["verify-counterexample", "--step", "0"],
    ["verify-counterexample", "--step", "-0.01"],
    ["verify-counterexample", "--step", "nan"],
])
def test_exit_code_2_on_invalid_option_value(argv, dataset_csv, capsys):
    argv = [str(dataset_csv) if a == "DATA" else a for a in argv]
    assert _run_without_traceback(argv, capsys) == 2


@pytest.mark.parametrize("argv", [
    ["estimate", "DATA", "--method", "pseudolik", "--seed", "1"],
    ["estimate", "DATA", "--method", "pseudolik", "--config", "missing.json"],
    ["verify-counterexample", "--seed", "1"],
    ["verify-counterexample", "--config", "missing.json"],
    ["bootstrap", "DATA", "--method", "pseudolik", "--config", "missing.json"],
], ids=["estimate-seed", "estimate-config", "counterexample-seed",
        "counterexample-config", "bootstrap-config"])
def test_a_flag_the_command_never_reads_is_a_usage_error(argv, dataset_csv, capsys):
    argv = [str(dataset_csv) if a == "DATA" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


def test_sample_size_beyond_physical_memory_exits_2(tmp_path, capsys):
    assert _run_without_traceback(["simulate", "--n", str(10 ** 12)], capsys) == 2
    path = tmp_path / "config.json"
    path.write_text('{"sweep": "sample_size", "values": [1e300]}')
    assert _run_without_traceback(["experiment", "--config", str(path)], capsys) == 2


@pytest.mark.parametrize("group_size", ["2", "3", "4"])
@pytest.mark.parametrize("name", ["near_separated", "underflowed"])
def test_fit_away_from_its_maximizer_exits_4(name, group_size, tmp_path, capsys):
    # the fits of the near-separated rows converge, to a theta whose odds
    # ratio overflows; the underflowed rows' fits end unconverged
    xs, ys = NEAR_SEPARATED if name == "near_separated" else UNDERFLOWED
    path = tmp_path / f"{name}.csv"
    cc.save_dataset(complete_dataset(xs, ys), path)
    argv = ["estimate", str(path), "--method", "pseudolik", "--group-size", group_size]
    assert main(argv) == 4
    err = capsys.readouterr().err
    if name == "near_separated":
        assert "odds ratio" in err
    else:
        assert "did not converge" in err


def test_bootstrap_counts_an_unconverged_resample_fit_as_failed(tmp_path, capsys,
                                                               monkeypatch):
    # every resample of the underflowed rows either is separated (12 of 20)
    # or has a pairwise fit that ends unconverged (8), so none succeeds
    import crisscross.pseudolik as pl
    errors = []
    monkeypatch.setattr(pl, "fit_pairwise", _raise_spy(pl.fit_pairwise, errors))
    path = tmp_path / "underflowed.csv"
    cc.save_dataset(complete_dataset(*UNDERFLOWED), path)
    argv = ["bootstrap", str(path), "--method", "pseudolik", "--resamples", "20",
            "--seed", "1"]
    assert main(argv) == 3
    assert "20 of 20 bootstrap resamples failed" in capsys.readouterr().err
    assert len(errors) == 20
    assert sum("did not converge" in e and "after 100 iterations" in e for e in errors) == 8


def _raise_spy(fit, errors):
    """fit, recording the message of each CrissCrossError it raises; a
    fit that returns fails the test."""
    def spy(*args):
        try:
            res = fit(*args)
        except cc.CrissCrossError as exc:
            errors.append(str(exc))
            raise
        raise AssertionError(f"a resample fit returned {res}")
    return spy


# seven binary rows whose 2x2 estimating equation runs the free cells to the
# boundary: the Newton iteration ends at its cap with log OR near -38.6
UNCONVERGED_2X2 = "x,y,r_x,r_y\n1,2,1,1\n1,2,1,1\n2,1,1,1\n2,,1,0\n,1,0,1\n1,1,1,1\n2,1,1,1\n"


def test_gee_fit_away_from_its_root_exits_4(tmp_path, capsys):
    path = tmp_path / "unconverged.csv"
    path.write_text(UNCONVERGED_2X2)
    argv = ["estimate", str(path), "--method", "gee", "--binary", "--theta11", "0.25"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "GEE fit did not converge" in captured.err


def test_bootstrap_counts_an_unconverged_gee_fit_as_failed(tmp_path, capsys, monkeypatch):
    # 17 of these 20 resamples fail on their data, 9 of them in the propensity
    # fit before solve_gee; the other 3 end with an unconverged estimating
    # equation, so no resample succeeds
    import crisscross.gee as gee
    errors = []
    monkeypatch.setattr(gee, "solve_gee", _raise_spy(gee.solve_gee, errors))
    path = tmp_path / "unconverged.csv"
    path.write_text(UNCONVERGED_2X2)
    argv = ["bootstrap", str(path), "--method", "gee", "--binary", "--theta11", "0.25",
            "--resamples", "20", "--seed", "5"]
    assert main(argv) == 3
    assert "20 of 20 bootstrap resamples failed" in capsys.readouterr().err
    assert len(errors) == 11
    assert sum(e.startswith("GEE fit did not converge") and "after 100 iterations" in e
               for e in errors) == 3


STUDIES = Path(__file__).resolve().parent.parent / "studies"


@pytest.mark.parametrize("name", ["table1", "rho_sweep", "misspec"])
def test_shipped_study_config_runs(name, tmp_path, capsys):
    cfg = json.loads((STUDIES / f"{name}.json").read_text())
    cfg["replicates"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    assert json.loads(capsys.readouterr().out)
    mirror = json.loads((tmp_path / f"{name}.json").read_text())["config"]
    assert {k: mirror[k] for k in cfg} == cfg
    assert (tmp_path / f"{name}.csv").read_text().startswith("sweep_point,method,")
