"""Parameter sweeps with per-point classification records and summaries.

A sweep builds its parameter grid as arrays and certifies it in blocks of
cases.BLOCK_POINTS points with the grid kernel behind cases.verify_prediction,
which cross-checks the trigonometric spectrum against the Jacobi spectrum
of the directly constructed state and raises ContractViolationError on
disagreement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cases import _PREDICTIONS, ContractViolationError, Prediction, _blocks, _certify
from .majorization import _LABELS, PairLabel
from .qubits import IppParams
from .scenarios import CHI_FINAL_SCHMIDT, _chi_final_amplitudes
from .states import _schmidt_vectors

GAMMA_DEVIATION_TOL = 1e-10

CSV_HEADER = "phi,delta,A,B,lam1,lam2,lam3,entropy_i,entropy_f,observed,predicted,agree"
_COLUMNS = tuple(CSV_HEADER.split(","))

_CATEGORY = {
    PairLabel.INCOMPARABLE: "incomparable",
    PairLabel.CONVERTIBLE_BACKWARD: "increase",
    PairLabel.EQUAL: "equal",
    PairLabel.CONVERTIBLE_FORWARD: "convertible",
}


@dataclass(frozen=True)
class SweepRecord:
    phi: float
    delta: float | None
    big_a: float
    big_b: float
    lam1: float
    lam2: float
    lam3: float
    entropy_initial: float
    entropy_final: float
    observed: PairLabel
    predicted: Prediction
    agree: bool


@dataclass(frozen=True)
class GammaSweepSummary:
    n_theta: int
    n_a: int
    n_b: int
    grid_points: int
    max_deviation: float


def _point_columns(alpha: np.ndarray, beta: np.ndarray) -> list[list]:
    """Columns A .. agree of the sweep rows of (N,) amplitude arrays, as
    lists of Python values, from one call of the certified grid kernel."""
    grid = _certify(alpha, beta)
    return [
        grid["big_a"].tolist(),
        grid["big_b"].tolist(),
        *grid["eigenvalues"].T.tolist(),
        grid["entropy_initial"].tolist(),
        grid["entropy_final"].tolist(),
        np.array(_LABELS, dtype=object)[grid["observed"]].tolist(),
        np.array(_PREDICTIONS, dtype=object)[grid["predicted"]].tolist(),
        grid["agree"].tolist(),
    ]


def _point_row(p: IppParams) -> dict[str, object]:
    """The columns A .. agree of the sweep row of one parameter point."""
    columns = _point_columns(np.array([p.alpha]), np.array([p.beta]))
    return dict(zip(_COLUMNS[2:], (column[0] for column in columns)))


def _records(
    phi: np.ndarray, delta: np.ndarray | None, alpha: np.ndarray, beta: np.ndarray
) -> list[SweepRecord]:
    deltas = [None] * len(phi) if delta is None else delta.tolist()
    return [
        SweepRecord(*fields)
        for fields in zip(phi.tolist(), deltas, *_point_columns(alpha, beta))
    ]


def sweep_real(n: int) -> list[SweepRecord]:
    """Classify n equally spaced real parameter points phi in [0, 2pi)."""
    if n < 2:
        raise ValueError("sweep_real requires n >= 2")
    records = []
    for k in _blocks(n):
        phi = 2.0 * math.pi * k / n
        records += _records(phi, None, np.cos(phi), np.sin(phi))
    return records


def sweep_complex(n_phi: int, n_delta: int) -> list[SweepRecord]:
    """Classify the (phi, delta) grid with alpha = cos(phi), beta = e^{i delta} sin(phi)."""
    if n_phi < 2 or n_delta < 1:
        raise ValueError("sweep_complex requires n_phi >= 2 and n_delta >= 1")
    records = []
    for index in _blocks(n_phi * n_delta):
        k, j = np.divmod(index, n_delta)
        phi = 2.0 * math.pi * k / n_phi
        delta = 2.0 * math.pi * j / n_delta
        records += _records(phi, delta, np.cos(phi), np.exp(1j * delta) * np.sin(phi))
    return records


def sweep_gamma(n_theta: int, n_a: int, n_b: int) -> GammaSweepSummary:
    """Max deviation of the anti-unitary scenario's final Schmidt vector from
    its parameter-free value, over an (n_theta x n_a x n_b) angle grid whose
    axes start at 0.

    Deviation at or above 1e-10 is an internal contract violation.
    """
    if n_theta < 1 or n_a < 1 or n_b < 1:
        raise ValueError("sweep_gamma requires positive grid sizes")
    worst = 0.0
    for index in _blocks(n_theta * n_a * n_b):
        i, j, k = np.unravel_index(index, (n_theta, n_a, n_b))
        amplitudes = _chi_final_amplitudes(
            2.0 * math.pi * i / n_theta,
            2.0 * math.pi * j / n_a,
            2.0 * math.pi * k / n_b,
        )
        vecs = _schmidt_vectors(amplitudes)
        worst = max(worst, float(np.max(np.abs(vecs - CHI_FINAL_SCHMIDT))))
    if worst >= GAMMA_DEVIATION_TOL:
        raise ContractViolationError(
            f"final Schmidt vector deviates by {worst:.3e} from its parameter-free value"
        )
    return GammaSweepSummary(n_theta, n_a, n_b, n_theta * n_a * n_b, worst)


def summarize(records: list[SweepRecord]) -> dict[str, dict[str, float]]:
    """Category counts and fractions over a record sequence."""
    counts = {name: 0 for name in ("incomparable", "increase", "equal", "convertible")}
    for record in records:
        counts[_CATEGORY[record.observed]] += 1
    total = len(records)
    fractions = {name: count / total for name, count in counts.items()}
    return {"counts": counts, "fractions": fractions, "total": total}


def format_float(x: float) -> str:
    """Render a float with 15 significant digits."""
    return f"{x:.15g}"


def _csv_cell(value: object) -> str:
    """15-digit float, "" for None, true/false for bools, an enum's value."""
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _json_value(value: object) -> object:
    if isinstance(value, float):
        return float(format_float(value))
    if isinstance(value, Enum):
        return value.value
    return value


def _csv_line(row: dict[str, object]) -> str:
    """One CSV line holding the values of an output row."""
    return ",".join(_csv_cell(value) for value in row.values())


def _json_row(row: dict[str, object]) -> dict[str, object]:
    """An output row as a JSON object, floats rounded to 15 significant digits."""
    return {name: _json_value(value) for name, value in row.items()}


def _record_row(record: SweepRecord) -> dict[str, object]:
    return dict(zip(_COLUMNS, vars(record).values()))


def records_to_csv(records: list[SweepRecord]) -> str:
    """CSV text with the fixed sweep header."""
    lines = [CSV_HEADER]
    lines.extend(_csv_line(_record_row(record)) for record in records)
    return "\n".join(lines) + "\n"


def records_to_json(records: list[SweepRecord]) -> str:
    """JSON array of records with the same field names as the CSV columns."""
    return json.dumps([_json_row(_record_row(record)) for record in records], indent=2)
