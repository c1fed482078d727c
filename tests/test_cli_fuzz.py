"""Property tests of the CLI error contract.

On arbitrary input files, option values and ``--config`` files every
command returns exit code 0, 2, 3 or 4 and raises nothing, so the command
line never prints a traceback, and a command that exits 0 prints JSON
without NaN or Infinity.  Valid values of ``--step`` run the full
quadrature (seconds), so only invalid ones are drawn.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crisscross as cc
from crisscross.cli import main

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=350)

COMMANDS = (
    ["estimate", "--method", "pseudolik"],
    ["estimate", "--method", "pseudolik", "--group-size", "3"],
    ["estimate", "--method", "gee"],
    ["estimate", "--method", "gee", "--f", "optimal", "--sigma2", "8.19"],
    ["estimate", "--method", "gee", "--theta11", "0.4"],
    ["bootstrap", "--method", "pseudolik", "--resamples", "3"],
    ["bootstrap", "--method", "gee", "--resamples", "3"],
)

VALUE = st.one_of(st.integers(-3, 3).map(str),
                  st.floats(-4, 4, allow_nan=False).map(repr))
BINARY_VALUE = st.sampled_from(["1", "2"])
JUNK = st.sampled_from(["", "nan", "inf", "-inf", "1e309", "1e300", "-1e300",
                        "5e-324", "abc", "2", "-1", "1.5", " 1 ", "1_0", "0x1",
                        "\xff", "é", ",", "1,1"])


@st.composite
def near_valid_csv(draw):
    """Valid rows (sometimes coded in {1, 2}), at most one field replaced by
    junk, under a header that is usually right."""
    value = BINARY_VALUE if draw(st.booleans()) else VALUE
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        rx, ry = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        rows.append([draw(value) if rx else "", draw(value) if ry else "",
                     str(rx), str(ry)])
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 3))] = draw(JUNK)
    header = draw(st.sampled_from(["x,y,r_x,r_y"] * 5 + ["x,y", "", "x,y,r_x,r_y,z"]))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    lines = [header] + [",".join(row) for row in rows]
    return (ending.join(lines) + ending).encode("latin-1")


CSV_BYTES = st.one_of(near_valid_csv(), near_valid_csv(), near_valid_csv(),
                      st.binary(max_size=200),
                      st.binary(max_size=100).map(lambda b: b"x,y,r_x,r_y\n" + b))


def _reject_non_finite(name):
    raise AssertionError(f"{name} in the output of a successful command")


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_non_finite)
    return code


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    sim = cc.simulate_dataset(cc.ScenarioConfig(cc.SECTION61_TARGET,
                                                cc.SECTION61_MECHANISM, 300, 5))
    cc.save_dataset(sim.observed, path / "valid.csv")
    return path


@FUZZ
@given(content=CSV_BYTES)
def test_any_input_file_exits_with_a_documented_code(work, content):
    path = work / "fuzz.csv"
    path.write_bytes(content)
    for command in COMMANDS:
        _exit_code([command[0], str(path), *command[1:]])


FLOAT_TEXT = st.one_of(st.floats().map(repr),
                       st.sampled_from(["0", "-0", "nan", "inf", "1e-300", "1e300"]))
BAD_STEP = st.one_of(st.floats(max_value=0.0), st.just(math.nan),
                     st.floats(min_value=0.05, exclude_min=True))


@FUZZ
@given(sigma2=FLOAT_TEXT,
       known=st.tuples(st.sampled_from(["alpha", "beta", "gamma", ""]),
                       st.sampled_from(["=", ""]), FLOAT_TEXT | JUNK),
       cells=st.lists(FLOAT_TEXT | JUNK, max_size=5),
       seed=st.integers(-3, 3), step=BAD_STEP)
def test_any_option_value_exits_with_a_documented_code(work, sigma2, known, cells,
                                                       seed, step):
    data = str(work / "valid.csv")
    _exit_code(["estimate", data, "--method", "gee", f"--sigma2={sigma2}"])
    _exit_code(["estimate", data, "--method", "gee", "--f", "optimal",
                f"--sigma2={sigma2}", f"--known={''.join(known)}"])
    _exit_code(["simulate", "--n", "50", f"--seed={seed}",
                f"--binary={','.join(cells)}"])
    assert _exit_code(["verify-counterexample", f"--step={step!r}"]) == 2


SIMULATE_CONFIG = {
    "target": {"mu1": 2.0, "mu2": 0.4, "sigma1": 1.0, "sigma2": 3.0, "rho": 0.3},
    "mechanism": {"rx_given_y": [-0.5, 1.0], "ry_given_x_rx": [2.0, -1.0, 0.7]},
}
IDENTIFY_CONFIGS = (
    {"case": "poisson_normal", "support_points": [0.0, 1.0, 2.0, 3.0]},
    {"case": "bivariate_normal",
     "theta": {"mu1": 2.0, "mu2": 0.4, "sigma1": 1.0, "sigma2": 3.0, "rho": 0.3}},
    {"case": "binary", "theta": {"a": 0.3, "b": 0.2, "eta_x": 0.1}},
    {"family_x": "exponential", "family_y_given_x": "exponential",
     "theta": {"alpha": -1.0, "beta": [-0.5], "eta_x": [-1.0]},
     "support_points": [0.0, 1.0, 2.0, 3.0]},
)
EXPERIMENT_CONFIGS = tuple(
    {"sweep": sweep, "values": [value], "replicates": 2, "base_seed": 3,
     "n_total": 40, "known": {"alpha": "truth"},
     "methods": ["pseudolik", "gee_nonoptimal", "gee_optimal"]}
    for sweep, value in (("sample_size", 40), ("rho", 0.3)))

JSON_JUNK = (None, True, 0, -1, 1, 2.5, -0.5, 0.999999, math.nan, math.inf,
             "", "abc", "truth", "rho", "normal", [], [0.5], [0.0, 1.0], {},
             {"rho": 2.0})
HUGE = (1e300, -1e300, 10 ** 12)


def _entries(node):
    """(container, key) for every entry of a JSON document, at any depth."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _entries(value)


@st.composite
def near_valid_config(draw, valid, junk):
    """``valid`` with up to two entries dropped or replaced by junk, or a
    document that is junk as a whole."""
    junk = st.sampled_from(junk)
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(junk))
    cfg = copy.deepcopy(valid)
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(list(_entries(cfg))))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(junk))    # a later draw may edit it
    return json.dumps(cfg)


@settings(FUZZ, max_examples=150)
@given(simulate=near_valid_config(SIMULATE_CONFIG, JSON_JUNK + HUGE),
       identify=st.sampled_from(IDENTIFY_CONFIGS).flatmap(
           lambda valid: near_valid_config(valid, JSON_JUNK + HUGE)),
       experiment=st.sampled_from(EXPERIMENT_CONFIGS).flatmap(
           lambda valid: near_valid_config(valid, JSON_JUNK + HUGE)))
def test_any_config_file_exits_with_a_documented_code(work, simulate, identify,
                                                      experiment):
    path = work / "config.json"
    for argv, config in ((["simulate", "--n", "50"], simulate),
                         (["identify", "--max-set-size", "1"], identify),
                         (["experiment"], experiment)):
        path.write_text(config)
        _exit_code([*argv, "--config", str(path)])
