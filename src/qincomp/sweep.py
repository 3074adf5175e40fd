"""Parameter sweeps as columnar results, their summaries, and the one
CSV/JSON serializer that every command's rows go through.

A sweep builds its parameter grid as arrays and certifies it in blocks of
BLOCK_POINTS points, each with one stacked Jacobi call whose point 0 is the
scenario's initial state, through a certified kernel in cases: _certify,
which returns the columns A, B, lam1 .. lam3, entropy_i, entropy_f,
observed, predicted and agree, or _certify_gamma, which sweep_gamma shares
with gamma-demo.  Either raises ContractViolationError on a failed check.
A sweep's result is a dict of numpy columns keyed by the CSV header's names,
one entry per grid point: phi and delta (None in a real sweep), then the
kernel's columns in that order: floats, the PairLabel and Prediction enums,
and bools.  One cell formatter picks a column's text once, from its dtype,
in either format; one generator writes a result BLOCK_POINTS rows at a time
as CSV lines or as the JSON array that json.dumps(..., indent=2) would write.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

# ContractViolationError is bound here too: bench/run.py catches it as sweep's
from .cases import ContractViolationError, _certify, _certify_gamma
from .majorization import PairLabel

# Grid points per call of the certified kernel (and of the stacked Jacobi)
# in the sweeps, and rows per formatting step, so array temporaries stay
# bounded for any grid.  A chosen round number, not a measured optimum.
BLOCK_POINTS = 4096

_CATEGORY = {
    PairLabel.INCOMPARABLE: "incomparable",
    PairLabel.CONVERTIBLE_BACKWARD: "increase",
    PairLabel.EQUAL: "equal",
    PairLabel.CONVERTIBLE_FORWARD: "convertible",
}

Columns = dict[str, np.ndarray]


@dataclass(frozen=True)
class GammaSweepSummary:
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


def _json_float(cell: str) -> str:
    """repr(float(cell)) of a format_float cell: its digits, as no shorter
    text names a normal float of at most 15 digits, with ".0" on a whole
    number; by the round trip at exponent +15 (repr's starts at 16) and at
    the exponents "e-3" matches: -30 to -39, and below -299 (subnormals have fewer digits)."""
    if "e+15" in cell or "e-3" in cell:
        return repr(float(cell))
    return cell if "." in cell or "e" in cell or "n" in cell else cell + ".0"


def _cells(column: np.ndarray, fmt: str) -> list[str]:
    """The text of each cell of a column in fmt ("csv" or "json"): floats
    to 15 significant digits (in JSON, the repr of that float, as json.dumps
    writes it), true/false for bools, an enum's value (quoted in JSON),
    "" or null for None, or else str."""
    values = column.tolist()
    in_json = fmt == "json"
    if column.dtype.kind == "f":
        cells = list(map(format_float, values))
        return list(map(_json_float, cells)) if in_json else cells
    if column.dtype.kind == "b":
        return ["true" if value else "false" for value in values]
    if isinstance(values[0], Enum):
        return [f'"{value.value}"' if in_json else value.value for value in values]
    if values[0] is None:
        return ["null" if in_json else ""] * len(values)
    return list(map(str, values))


def _text(result: Columns, fmt: str, lone: bool = False):
    """The CSV or JSON text of a columnar result in pieces, BLOCK_POINTS rows
    at a time, ending in a newline: the header line of the column names and
    one line per row, or an array of row objects keyed by column name, laid
    out as json.dumps(..., indent=2) lays it out.  With lone, the JSON of a
    one-row result is its row object alone."""
    names, columns = list(result), list(result.values())
    if fmt == "json":
        template = "{\n" + ",\n".join(f'  "{name}": %s' for name in names) + "\n}"
        if lone:
            head, sep, tail = "", "", "\n"
        else:
            template, head, sep, tail = "  " + template.replace("\n", "\n  "), "[\n", ",\n", "\n]\n"
        row = template.__mod__
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
