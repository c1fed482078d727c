"""The CSV loader against the per-line oracle it replaced.

``load_dataset`` parses blocks in save_dataset's exact form in numpy and
every other block line by line.  On any file, and at any block size, it
must give the oracle's arrays bit for bit or its DataError message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crisscross as cc

from conftest import load_dataset_oracle
from test_cli_fuzz import near_valid_csv

BLOCK_ROWS = (1, 7, cc.dataio._LOAD_ROWS)

CANONICAL_LINES = ("1.5,2,1,1", ",2,0,1", "1.5,,1,0", ",,0,0", "-0,5e-324,1,1",
                   "-1.7976931348623157e+308,0.10000000000000001,1,1")
ODD_LINES = ("", " ", " 1.5 , 2 ,1, 1 ", "1,2,01,+1", "1_0,2,1,1", "1,2,1_0,1",
             "nan,2,1,1", "nan,2,0,1", ",nan,0,0", "inf,1,1,1", "1e309,1,1,1",
             "1,2,1", "1,2,1,1,1", "1,2,,1", "1,2,11,1", " ,2,0,1", "1,2,1,1 ",
             "\t1,2,1,1", "0x1,2,1,1", "1,2,2,1", "1,2,-0,1")


@st.composite
def edited_csv(draw):
    """Mostly canonical lines with odd ones among them, so that blocks of
    both kinds meet at every block size."""
    lines = draw(st.lists(st.one_of(st.sampled_from(CANONICAL_LINES),
                                    st.sampled_from(CANONICAL_LINES),
                                    st.sampled_from(ODD_LINES)), max_size=25))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (ending.join(["x,y,r_x,r_y"] + lines) + ending).encode("ascii")


def _outcome(load, path):
    """The arrays' dtypes and bytes, or the DataError message."""
    try:
        data = load(path)
    except cc.DataError as exc:
        return str(exc)
    return [(a.dtype.str, a.tobytes()) for a in (data.x, data.y, data.r_x, data.r_y)]


def _check_against_oracle(path):
    expected = _outcome(load_dataset_oracle, path)
    for rows in BLOCK_ROWS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cc.dataio, "_LOAD_ROWS", rows)
            assert _outcome(cc.load_dataset, path) == expected, rows
    return expected


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("dataio")


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(content=st.one_of(near_valid_csv(), edited_csv()))
def test_load_matches_the_per_line_oracle(work, content):
    path = work / "fuzz.csv"
    path.write_bytes(content)
    _check_against_oracle(path)


FIXED = {
    # 3 + 5 fields is 8 cells, as two 4-field lines would be
    "three_and_five_fields": ("1,2,1,1\n1,2,1\n1,2,1,1,1\n", "expected 4 fields, got 3"),
    # "" and "11" join to "11", as "1" and "1" would
    "empty_and_double_indicator": ("1,2,1,1\n1,2,,1\n1,2,11,1\n", "malformed indicator"),
    "crlf_and_blank_lines": ("1.5,2,1,1\r\n\r\n,2,0,1\r\n\r\n\r\n1,,1,0\r\n", None),
    "padded_fields": ("1.5,2,1,1\n 1.5 , 2 , 1 , 1 \n\t,2,0,1\n", None),
    "zero_padded_and_signed_indicators": ("1.5,2,01,+1\n", None),
    "underscored_value": ("1_0,2,1,1\n", None),
    "underscored_indicator": ("1,2,1_0,1\n", "indicators must be 0 or 1"),
    "nan_present": ("1,2,1,1\nnan,2,1,1\n", "present values must be finite"),
    "nan_absent": ("1,2,1,1\nnan,2,0,1\n", "x present but r_x=0"),
    "no_rows": ("\n\n", "no data rows"),
    # the file is checked for ASCII before its first line is parsed
    "malformed_line_before_non_ascii": ("1,2,1\n1,2,1,1\n\xe9,2,1,1\n", "not ASCII text"),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_load_fixed_cases_match_the_oracle(name, tmp_path):
    rows, message = FIXED[name]
    path = tmp_path / "case.csv"
    path.write_text("x,y,r_x,r_y\n" + rows)
    outcome = _check_against_oracle(path)
    if message is None:
        assert not isinstance(outcome, str), outcome
    else:
        assert isinstance(outcome, str) and message in outcome


def test_a_saved_file_never_takes_the_per_line_path(tmp_path, monkeypatch):
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM, 500, seed=3)
    path = tmp_path / "d.csv"
    cc.save_dataset(cc.simulate_dataset(config).observed, path)

    def per_line(*args):
        raise AssertionError("a canonical line went through _parse_line")
    monkeypatch.setattr(cc.dataio, "_parse_line", per_line)
    _check_against_oracle(path)


def test_csv_load_memory_is_bounded(tmp_path):
    import tracemalloc
    config = cc.ScenarioConfig(cc.SECTION61_TARGET, cc.SECTION61_MECHANISM,
                               100_000, seed=42)
    path = tmp_path / "d.csv"
    cc.save_dataset(cc.simulate_dataset(config).observed, path)
    tracemalloc.start()
    try:
        cc.load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole file's line strings are about 12 MB, and four Python lists of
    # every row's values, as the per-line loader kept, took 21 MB; one
    # block's lines and the columns, held twice while they are joined, take
    # about 4 MB
    assert peak < 8 * 2 ** 20
