"""Parameter sweeps as columnar results, their summaries, and the one
CSV/JSON serializer that every command's rows go through.

A sweep builds its parameter grid as arrays and certifies it in blocks of
BLOCK_POINTS points, each with one stacked Jacobi call whose point 0 is the
scenario's initial state, through a certified kernel in cases (_certify, or
_certify_gamma, which sweep_gamma shares with gamma-demo); either raises
ContractViolationError on a failed check.  A sweep's result is a dict of
numpy columns keyed by the CSV header's names, one entry per grid point: phi
and delta (None in a real sweep), then the kernel's columns A .. agree:
floats, the PairLabel and Prediction enums, and bools.  One cell formatter
picks a column's text once, from its dtype, in either format: a float column
of COLUMN_MIN_CELLS cells or more is formatted whole in array arithmetic,
byte for byte as format_float and _json_float, which still write its zero,
non-finite and scientific cells and all shorter columns.  One generator
writes a result BLOCK_POINTS rows at a time as CSV lines or as a JSON array
of row objects; _json lays out all JSON, the row template and every payload,
as json.dumps(..., indent=2) would, so no module imports json.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from typing import NamedTuple

import numpy as np

# ContractViolationError is bound here too: bench/run.py catches it as sweep's
from .cases import ContractViolationError, _certify, _certify_gamma
from .majorization import PairLabel

# Grid points per call of the certified kernel (and of the stacked Jacobi)
# in the sweeps, and rows per formatting step, so temporaries stay bounded.
# The fastest measured: 0.243 s on 2 x 10^5 real points, against
# 0.377/0.267/0.352 s at 1024/16384/65536.
BLOCK_POINTS = 4096

_CATEGORY = {
    PairLabel.INCOMPARABLE: "incomparable",
    PairLabel.CONVERTIBLE_BACKWARD: "increase",
    PairLabel.EQUAL: "equal",
    PairLabel.CONVERTIBLE_FORWARD: "convertible",
}

Columns = dict[str, np.ndarray]


class GammaSweepSummary(NamedTuple):
    n_theta: int
    n_a: int
    n_b: int
    grid_points: int
    max_deviation: float


def _blocks(total: int):
    """Slices of the consecutive blocks of at most BLOCK_POINTS grid points."""
    for start in range(0, total, BLOCK_POINTS):
        yield slice(start, min(start + BLOCK_POINTS, total))


def _grid_angles(*sizes: int):
    """Per block of the row-major grid of the given axis sizes, the block's
    slice of point indices and each axis's angles 2 pi i / n at those points."""
    for block in _blocks(math.prod(sizes)):
        index = np.unravel_index(np.arange(block.start, block.stop), sizes)
        yield block, [2.0 * math.pi * i / n for i, n in zip(index, sizes)]


def sweep_real(n: int) -> Columns:
    """Classify n equally spaced real parameter points phi in [0, 2pi): the
    one-delta complex sweep, with its delta column blank."""
    if n < 2:
        raise ValueError("sweep_real requires n >= 2")
    result = sweep_complex(n, 1)
    result["delta"] = np.full(n, None)
    return result


def sweep_complex(n_phi: int, n_delta: int) -> Columns:
    """Classify the (phi, delta) grid with alpha = cos(phi), beta = e^{i delta} sin(phi)."""
    if n_phi < 2 or n_delta < 1:
        raise ValueError("sweep_complex requires n_phi >= 2 and n_delta >= 1")
    # blocks fill columns made once, so the result is not held twice
    result = {}
    for rows, (phi, delta) in _grid_angles(n_phi, n_delta):
        beta = np.exp(1j * delta) * np.sin(phi)
        block = {"phi": phi, "delta": delta, **_certify(np.cos(phi), beta)}
        if not result:
            result = {name: np.empty(n_phi * n_delta, col.dtype) for name, col in block.items()}
        for name, column in block.items():
            result[name][rows] = column
    return result


def sweep_gamma(n_theta: int, n_a: int, n_b: int) -> GammaSweepSummary:
    """Summary of the (n_theta x n_a x n_b) angle grid whose axes start at 0:
    its largest final deviation, from _certify_gamma a block at a time."""
    if n_theta < 1 or n_a < 1 or n_b < 1:
        raise ValueError("sweep_gamma requires positive grid sizes")
    worst = 0.0
    # the grid is walked outside cases._internal: numpy refusing its size is the input's fault
    for _, angles in _grid_angles(n_theta, n_a, n_b):
        worst = max(worst, _certify_gamma(*angles)[1])
    return GammaSweepSummary(n_theta, n_a, n_b, n_theta * n_a * n_b, worst)


def summarize(result: Columns) -> dict[str, dict[str, float]]:
    """Category counts and fractions over the observed column of a sweep result."""
    tally = Counter(result["observed"].tolist())
    counts = {name: tally[label] for label, name in _CATEGORY.items()}
    total = len(result["observed"])
    fractions = {name: count / total for name, count in counts.items()}
    return {"counts": counts, "fractions": fractions, "total": total}


def format_float(x: float) -> str:
    """Render a float with 15 significant digits."""
    return f"{x:.15g}"


def _json_float(x: float) -> str:
    """x as JSON: the repr of the float its format_float text names, as json.dumps writes it."""
    return repr(float(format_float(x)))


# Float columns of at least this many cells are written whole by _float_column,
# shorter ones a cell at a time: the two break even near 200 cells in CSV, 70 in JSON.
COLUMN_MIN_CELLS = 128
# 10^n as the nearest double, at _POW10[n + 5] for -5 <= n <= 19 (exact from n = 0)
_POW10 = np.array([float(f"1e{n}") for n in range(-5, 20)])
# the ASCII digits of each i < 10^4 as one 4-byte item, and at 10^4 + i the
# same with trailing zeros NUL: digit j of i is kept where i mod 10^(4 - j) > 0
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1).reshape(10000, 4)
_KEPT = np.stack([np.tile(np.arange(10**k) > 0, 10 ** (4 - k)) for k in (4, 3, 2, 1)], -1)
_DIGITS = np.concatenate([_DIGITS, _DIGITS * _KEPT]).view("V4").ravel()


def _float_column(column: np.ndarray, in_json: bool) -> list[str]:
    """Each cell's format_float text (in JSON, its _json_float): the cells in
    %g's fixed notation, at exponents X from -4 to 14, as one block of UCS4
    codes laid out a slice per X and sign; the others one at a time."""
    a = np.abs(column)
    fixed = (a >= 1e-5) & (a < 1e15)  # False for 0, inf and nan
    a = np.where(fixed, a, 1.0)
    # 10^X <= a < 10^(X + 1) in doubles: a double 10^X rounded down reads as X, as its digits do
    exponent = np.searchsorted(_POW10, a, side="right") - 6
    # m = round-half-even(a * 10^(14 - X)), exactly: Dekker's product, by Veltkamp's
    # 26-bit halves and no FMA, is p + err; with e the even integer nearest p,
    # (p - e) + err is exact (a multiple of 2^-51 below 2): e + its rint ties to even
    scale = _POW10[19 - exponent]
    p = a * scale
    a_hi, s_hi = (134217729.0 * v - (134217729.0 * v - v) for v in (a, scale))  # 2^27 + 1
    a_lo, s_lo = a - a_hi, scale - s_hi
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    even = 2.0 * np.rint(0.5 * p)
    m = even + np.rint((p - even) + err)
    exponent += m == 1e15  # rounded up to 10^(X + 1), which is m = 10^14 at X + 1
    fixed &= (exponent >= -4) & (exponent <= 14)
    # rows sorted by exponent and sign (int8 keys sort by radix), so that each group is a slice
    key = 2 * np.where(fixed, exponent, 0) + (column < 0)
    order = np.argsort(key.astype(np.int8), kind="stable")
    key = key[order]
    m = np.where(m == 1e15, 1e14, m)[order].astype(np.int64)
    # digits: five "0"s, then m's 15 digits, with its trailing zeros NUL, then NULs
    index = np.full((len(m), 6), 10000)
    for col in 4, 3, 2, 1:
        m, group = np.divmod(m, 10**4)
        index[:, col] = group + 10000 * (index[:, col + 1] == 10000)
    index[:, 0] = 0
    digits = _DIGITS[index].view(np.uint8)
    block = np.zeros((len(m), 21), np.uint32)
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(m)]
    for start, stop in zip(bounds, bounds[1:]):
        x, sign = divmod(int(key[start]), 2)
        rows, point, width = slice(start, stop), 6 + x, 1 + max(x, 0)
        out = block[rows, sign:]
        block[rows, 0] = 45 * sign  # "-"
        # the integer digits (a trailing zero of m, NUL in digits, is "0" here)
        # or "0", a point and the 14 - x decimals
        np.maximum(digits[rows, point - width : point], 48, out=out[:, :width])
        out[:, width + 1 : width + 15 - x] = digits[rows, point:20]
        # a whole number has no point; in JSON it ends in ".0", as repr writes
        # it (repr's text of a float of at most 15 digits is those digits)
        if in_json:
            out[:, width] = 46
            np.maximum(digits[rows, point], 48, out=out[:, width + 1])
        else:
            np.minimum(digits[rows, point], 46, out=out[:, width])
    text = np.empty(len(m), "U21")
    text[order] = block.view("U21")[:, 0]
    cells = text.tolist()
    to_text = _json_float if in_json else format_float
    for i in np.flatnonzero(~fixed).tolist():
        cells[i] = to_text(float(column[i]))
    return cells


def _cells(column: np.ndarray, fmt: str) -> list[str]:
    """The text of each cell of a column in fmt ("csv" or "json"): floats
    to 15 significant digits (in JSON, the repr of that float, as json.dumps
    writes it), true/false for bools, an enum's value (quoted in JSON),
    "" or null for None, or else str (a str cell verbatim)."""
    in_json = fmt == "json"
    if column.dtype == np.float64 and len(column) >= COLUMN_MIN_CELLS:
        return _float_column(column, in_json)
    values = column.tolist()
    if column.dtype.kind == "f":
        return list(map(_json_float if in_json else format_float, values))
    if column.dtype.kind == "b":
        return ["true" if value else "false" for value in values]
    if isinstance(values[0], Enum):
        return [f'"{value._value_}"' if in_json else value._value_ for value in values]
    if values[0] is None:
        return ["null" if in_json else ""] * len(values)
    return list(map(str, values))


def _json(value, indent: str = "") -> str:
    """value as json.dumps(value, indent=2) lays it out, nested at indent: a
    dict as an object, a list or 1-D array as an array whose cells are one
    _cells call, anything else as one cell.  No container is empty, as every
    payload list is a checked, non-empty vector, so none is written as [] or {}."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = (f'{inner}"{key}": {_json(item, inner)}' for key, item in value.items())
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, np.ndarray)):
        cells = _cells(np.asarray(value), "json")
        return "[\n" + ",\n".join(inner + cell for cell in cells) + f"\n{indent}]"
    return _cells(np.atleast_1d(value), "json")[0]


def _text(result: Columns, fmt: str):
    """The CSV or JSON text of a columnar result in pieces, BLOCK_POINTS rows
    at a time, ending in a newline: the header line of the column names and
    one line per row, or an array of row objects keyed by column name, each
    laid out by _json."""
    names, columns = list(result), list(result.values())
    if fmt == "json":
        row = ("  " + _json(dict.fromkeys(names, "%s"), "  ")).__mod__
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        row, head, sep, tail = ",".join, ",".join(names) + "\n", "\n", "\n"
    yield head
    for block in _blocks(len(columns[0])):
        rows = zip(*(_cells(column[block], fmt) for column in columns))
        yield (sep if block.start else "") + sep.join(map(row, rows))
    yield tail


def records_to_csv(result: Columns) -> str:
    """CSV text: a header line of the column names, then one line per row."""
    return "".join(_text(result, "csv"))


def records_to_json(result: Columns) -> str:
    """JSON array of row objects with the same field names as the CSV
    columns, as json.dumps(..., indent=2) writes it: no final newline."""
    return "".join(_text(result, "json"))[:-1]
