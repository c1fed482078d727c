"""Dataset CSV format and JSON report helpers.

CSV layout: header ``x,y,r_x,r_y``, one record per line, LF endings.
Missing cells are empty, present floats are written with 17 significant
digits so a round trip is bit-exact.  Loading validates the coarsening
rule per line: a value must be present exactly when its indicator is 1,
and a present value must be finite (no inf or nan).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import ObservedDataset


_SAVE_ROWS = 1 << 13     # rows per write: about 1 MB of line strings


def _fmt(v: float) -> str:
    return "%.17g" % v


def save_dataset(data: ObservedDataset, path) -> None:
    """Writes the rows in blocks of _SAVE_ROWS, so the text held at once is
    one block's, not the file's."""
    with open(path, "wb") as out:
        out.write(b"x,y,r_x,r_y\n")
        for lo in range(0, data.n_total, _SAVE_ROWS):
            block = slice(lo, lo + _SAVE_ROWS)
            lines = []
            for xi, yi, rxi, ryi in zip(data.x[block], data.y[block],
                                        data.r_x[block], data.r_y[block]):
                xs = _fmt(xi) if rxi == 1 else ""
                ys = _fmt(yi) if ryi == 1 else ""
                lines.append(f"{xs},{ys},{int(rxi)},{int(ryi)}\n")
            out.write("".join(lines).encode("ascii"))


def load_dataset(path) -> ObservedDataset:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not ASCII text: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != "x,y,r_x,r_y":
        raise DataError(f"{path}: expected header 'x,y,r_x,r_y'")
    xs, ys, rxs, rys = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        xs_raw, ys_raw, rx_raw, ry_raw = (p.strip() for p in parts)
        try:
            rx = int(rx_raw)
            ry = int(ry_raw)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed indicator: {exc}") from exc
        if rx not in (0, 1) or ry not in (0, 1):
            raise DataError(f"{path}:{lineno}: indicators must be 0 or 1")
        if (xs_raw == "") == (rx == 1):
            raise DataError(
                f"{path}:{lineno}: x {'absent' if xs_raw == '' else 'present'} "
                f"but r_x={rx}"
            )
        if (ys_raw == "") == (ry == 1):
            raise DataError(
                f"{path}:{lineno}: y {'absent' if ys_raw == '' else 'present'} "
                f"but r_y={ry}"
            )
        try:
            xv = float(xs_raw) if xs_raw else np.nan
            yv = float(ys_raw) if ys_raw else np.nan
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed numeric: {exc}") from exc
        if (rx and not math.isfinite(xv)) or (ry and not math.isfinite(yv)):
            raise DataError(f"{path}:{lineno}: present values must be finite")
        xs.append(xv)
        ys.append(yv)
        rxs.append(rx)
        rys.append(ry)
    if not xs:
        raise DataError(f"{path}: no data rows")
    return ObservedDataset(np.array(xs), np.array(ys),
                           np.array(rxs, dtype=np.int8), np.array(rys, dtype=np.int8))


class _NumpyEncoder(json.JSONEncoder):
    def default(self, obj):
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def save_report(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     cls=_NumpyEncoder) + "\n", encoding="utf-8")
