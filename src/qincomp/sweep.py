"""Parameter sweeps as columnar results, their summaries, and the one
CSV/JSON formatter that every command's output goes through.

A sweep builds its parameter grid as arrays and certifies it in blocks of
BLOCK_POINTS points with the grid kernel cases._certify, which
cross-checks the trigonometric spectrum against the Jacobi spectrum of the
directly constructed state, raises ContractViolationError on disagreement,
and returns the columns A .. agree under their CSV_HEADER names.  A
sweep's result is a dict of numpy columns keyed by the CSV_HEADER names,
one entry per grid point: phi and delta (None in a real sweep), then the
kernel's columns: floats, the PairLabel and Prediction enums, and bools.
The formatters pick a cell format once per column, from its dtype.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cases import ContractViolationError, _certify
from .majorization import PairLabel
from .scenarios import CHI_FINAL_SCHMIDT, _chi_final_amplitudes
from .states import _schmidt_vectors

GAMMA_DEVIATION_TOL = 1e-10
# Grid points per call of the certified kernel (and of the stacked Jacobi)
# in the sweeps, and rows per formatting step, so array temporaries stay
# bounded for any grid.  A chosen round number, not a measured optimum.
BLOCK_POINTS = 4096

CSV_HEADER = "phi,delta,A,B,lam1,lam2,lam3,entropy_i,entropy_f,observed,predicted,agree"
_COLUMNS = tuple(CSV_HEADER.split(","))

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
    """Index arrays of the consecutive blocks of at most BLOCK_POINTS grid points."""
    for start in range(0, total, BLOCK_POINTS):
        yield np.arange(start, min(start + BLOCK_POINTS, total))


def _grid_angles(*sizes: int):
    """Per block of the row-major grid of the given axis sizes, each axis's
    angles 2 pi i / n at the block's points."""
    for index in _blocks(math.prod(sizes)):
        yield [2.0 * math.pi * i / n for i, n in zip(np.unravel_index(index, sizes), sizes)]


def _certified(alpha: np.ndarray, beta: np.ndarray) -> Columns:
    """The columns A .. agree of the certified kernel at (N,) amplitude arrays."""
    grid = _certify(alpha, beta)
    return {name: grid[name] for name in _COLUMNS[2:]}


def _joined(blocks: list[Columns]) -> Columns:
    return {name: np.concatenate([block[name] for block in blocks]) for name in _COLUMNS}


def sweep_real(n: int) -> Columns:
    """Classify n equally spaced real parameter points phi in [0, 2pi)."""
    if n < 2:
        raise ValueError("sweep_real requires n >= 2")
    blocks = []
    for (phi,) in _grid_angles(n):
        delta = np.full(len(phi), None)
        blocks.append({"phi": phi, "delta": delta, **_certified(np.cos(phi), np.sin(phi))})
    return _joined(blocks)


def sweep_complex(n_phi: int, n_delta: int) -> Columns:
    """Classify the (phi, delta) grid with alpha = cos(phi), beta = e^{i delta} sin(phi)."""
    if n_phi < 2 or n_delta < 1:
        raise ValueError("sweep_complex requires n_phi >= 2 and n_delta >= 1")
    blocks = []
    for phi, delta in _grid_angles(n_phi, n_delta):
        beta = np.exp(1j * delta) * np.sin(phi)
        blocks.append({"phi": phi, "delta": delta, **_certified(np.cos(phi), beta)})
    return _joined(blocks)


def sweep_gamma(n_theta: int, n_a: int, n_b: int) -> GammaSweepSummary:
    """Max deviation of the anti-unitary scenario's final Schmidt vector from
    its parameter-free value, over an (n_theta x n_a x n_b) angle grid whose
    axes start at 0.

    Deviation at or above 1e-10 is an internal contract violation.
    """
    if n_theta < 1 or n_a < 1 or n_b < 1:
        raise ValueError("sweep_gamma requires positive grid sizes")
    worst = 0.0
    for angles in _grid_angles(n_theta, n_a, n_b):
        vecs = _schmidt_vectors(_chi_final_amplitudes(*angles))
        worst = max(worst, float(np.max(np.abs(vecs - CHI_FINAL_SCHMIDT))))
    if worst >= GAMMA_DEVIATION_TOL:
        raise ContractViolationError(
            f"final Schmidt vector deviates by {worst:.3e} from its parameter-free value"
        )
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


def _csv_cells(column: np.ndarray) -> list[str]:
    """The CSV cells of a column: 15-digit floats, "" for None, true/false
    for bools, an enum's value, or else str."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return list(map(format_float, values))
    if column.dtype.kind == "b":
        return ["true" if value else "false" for value in values]
    if isinstance(values[0], Enum):
        return [value.value for value in values]
    if values[0] is None:
        return [""] * len(values)
    return list(map(str, values))


def _json_cells(column: np.ndarray) -> list:
    """The JSON values of a column: floats rounded to 15 significant digits,
    an enum's value, or else the value itself."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return [float(format_float(value)) for value in values]
    if isinstance(values[0], Enum):
        return [value.value for value in values]
    return values


def _json_rows(result: Columns) -> list[dict[str, object]]:
    """The rows of a columnar result as JSON objects keyed by column name."""
    names = list(result)
    return [dict(zip(names, row)) for row in zip(*map(_json_cells, result.values()))]


def _csv_blocks(result: Columns):
    """The CSV text of a columnar result in pieces: the header line of the
    column names, then the lines of each block of BLOCK_POINTS rows."""
    columns = list(result.values())
    yield ",".join(result) + "\n"
    for index in _blocks(len(columns[0])):
        cells = [_csv_cells(column[index]) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def records_to_csv(result: Columns) -> str:
    """CSV text: a header line of the column names, then one line per row."""
    return "".join(_csv_blocks(result))


def records_to_json(result: Columns) -> str:
    """JSON array of row objects with the same field names as the CSV columns."""
    return json.dumps(_json_rows(result), indent=2)
