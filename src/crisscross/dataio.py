"""Dataset CSV format and JSON report helpers.

CSV layout: header ``x,y,r_x,r_y``, one record per line, LF endings.
Missing cells are empty, present floats are written with 17 significant
digits so a round trip is bit-exact.  ``_parse_line`` is the one rule for
a valid line and every error: a value is present exactly when its
indicator is 1, and then finite (no inf or nan).  Blocks of ``_LOAD_ROWS``
lines all in ``save_dataset``'s exact form are parsed in numpy, any other
block line by line by that rule.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import ObservedDataset


_SAVE_ROWS = 1 << 13     # rows per write: about 1 MB of line strings
_LOAD_ROWS = 1 << 13     # lines per parse
_ASCII_BYTES = 1 << 16   # bytes per read of the ASCII check


@contextmanager
def open_out(path):
    """The file at path, opened for binary writing; an OSError while it is
    opened or written becomes a DataError naming the path."""
    try:
        with open(path, "wb") as out:
            yield out
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def check_out(*paths) -> None:
    """DataError, before the work, for a path that is a directory or in none."""
    for path in map(Path, paths):
        if path.is_dir() or not path.parent.is_dir():
            raise DataError(f"cannot write {path}: not a file in an existing directory")


def save_dataset(data: ObservedDataset, path) -> None:
    """Writes the rows in blocks of _SAVE_ROWS, so the text held at once is
    one block's, not the file's."""
    with open_out(path) as out:
        out.write(b"x,y,r_x,r_y\n")
        for lo in range(0, data.n_total, _SAVE_ROWS):
            block = slice(lo, lo + _SAVE_ROWS)
            lines = []
            for xi, yi, rxi, ryi in zip(data.x[block], data.y[block],
                                        data.r_x[block], data.r_y[block]):
                xs = "%.17g" % xi if rxi == 1 else ""
                ys = "%.17g" % yi if ryi == 1 else ""
                lines.append(f"{xs},{ys},{int(rxi)},{int(ryi)}\n")
            out.write("".join(lines).encode("ascii"))


def load_dataset(path) -> ObservedDataset:
    """The dataset in the CSV file at path, read through one handle in blocks
    of _LOAD_ROWS lines, so the text held at once is one block's, not the
    file's.  A file that is not ASCII fails before its first line is parsed,
    and the lines are split as ``str.splitlines`` splits the whole text."""
    try:
        with open(path, "rb") as fh:
            _check_ascii(path, fh)
            fh.seek(0)
            blocks = _parse_blocks(path, fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not any(len(cols[0]) for cols in blocks):
        raise DataError(f"{path}: no data rows")
    return ObservedDataset(*(np.concatenate(col) for col in zip(*blocks)))


def _check_ascii(path, fh) -> None:
    """DataError naming the first non-ASCII byte at its offset in the file,
    in the words of a failed decode of the whole file."""
    offset = 0
    for chunk in iter(lambda: fh.read(_ASCII_BYTES), b""):
        try:
            chunk.decode("ascii")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not ASCII text: '{exc.encoding}' codec can't "
                            f"decode byte 0x{chunk[exc.start]:02x} in position "
                            f"{offset + exc.start}: {exc.reason}") from exc
        offset += len(chunk)


def _parse_blocks(path, fh) -> list:
    """The columns of each block of lines after the header.  A block of
    save_dataset's exact form is parsed in numpy, any other line by line,
    with line numbers counted from 1 at the header."""
    blocks, lineno = [], 0      # lines read so far, the header included
    while raw := list(islice(fh, _LOAD_ROWS)):
        lines = b"".join(raw).decode("ascii").splitlines()
        if lineno == 0:
            if lines[0].strip() != "x,y,r_x,r_y":
                break
            lines, lineno = lines[1:], 1
        try:
            blocks.append(_parse_block(lines))
        except ValueError:
            rows = [_parse_line(path, n, line)
                    for n, line in enumerate(lines, lineno + 1) if line]
            x, y, r_x, r_y = np.array(rows, dtype=float).reshape(-1, 4).T
            blocks.append((x, y, r_x.astype(np.int8), r_y.astype(np.int8)))
        lineno += len(lines)
    if lineno == 0:
        raise DataError(f"{path}: expected header 'x,y,r_x,r_y'")
    return blocks


def _parse_block(lines):
    """The columns of lines that all have save_dataset's exact form: three
    commas, indicators "0" or "1", and a value cell non-empty exactly when
    its indicator is 1 and then a finite float.  ValueError for any other."""
    if list(map(str.count, lines, repeat(","))).count(3) != len(lines):
        raise ValueError("not three commas on every line")
    cells = ",".join(lines).split(",")
    if not set(cells[2::4]).union(cells[3::4]) <= {"0", "1"}:
        raise ValueError("an indicator other than 0 or 1")
    flags = [np.frombuffer("".join(cells[k::4]).encode(), np.int8) - 48 for k in (2, 3)]
    cols = []
    for col, r in zip((cells[0::4], cells[1::4]), flags):
        present = np.fromiter(map(bool, col), bool, len(lines))
        values = np.fromiter(map(float, filter(None, col)), float)
        if not (np.array_equal(present, r == 1) and np.isfinite(values).all()):
            raise ValueError("a value cell not as its indicator says")
        cols.append(np.full(len(lines), np.nan))
        cols[-1][present] = values
    return (*cols, *flags)


def _parse_line(path, lineno, line):
    """(x, y, r_x, r_y) of one non-blank data line, or DataError."""
    parts = line.split(",")
    if len(parts) != 4:
        raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
    xs_raw, ys_raw, rx_raw, ry_raw = (p.strip() for p in parts)
    try:
        rx, ry = int(rx_raw), int(ry_raw)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: malformed indicator: {exc}") from exc
    if rx not in (0, 1) or ry not in (0, 1):
        raise DataError(f"{path}:{lineno}: indicators must be 0 or 1")
    for name, raw, r in (("x", xs_raw, rx), ("y", ys_raw, ry)):
        if (raw == "") == (r == 1):
            raise DataError(f"{path}:{lineno}: {name} "
                            f"{'absent' if raw == '' else 'present'} but r_{name}={r}")
    try:
        xv, yv = (float(raw) if raw else np.nan for raw in (xs_raw, ys_raw))
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: malformed numeric: {exc}") from exc
    if (rx and not math.isfinite(xv)) or (ry and not math.isfinite(yv)):
        raise DataError(f"{path}:{lineno}: present values must be finite")
    return xv, yv, rx, ry


def _plain(obj):
    """numpy scalars and arrays as the Python values json writes."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def save_report(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n"
    with open_out(path) as out:
        out.write(text.encode("utf-8"))
