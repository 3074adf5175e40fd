"""Parameter sweeps with per-point classification records and summaries.

Every record comes from cases.verify_prediction, which cross-checks the
trigonometric spectrum against the Jacobi spectrum of the directly
constructed state and raises ContractViolationError on disagreement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cases import ContractViolationError, Prediction, PredictionCheck, verify_prediction
from .majorization import PairLabel
from .qubits import IppParams, UnitaryParams
from .scenarios import CHI_FINAL_SCHMIDT, chi_final
from .states import schmidt_vector

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


def _point_columns(check: PredictionCheck) -> dict[str, object]:
    """The per-point columns A .. agree of a sweep row."""
    spectrum = check.spectrum
    values = (
        spectrum.big_a,
        spectrum.big_b,
        *spectrum.eigenvalues.tolist(),
        check.entropy_initial,
        check.entropy_final,
        check.observed.label,
        check.predicted.predicted,
        check.agree,
    )
    return dict(zip(_COLUMNS[2:], values))


def _evaluate(phi: float, delta: float | None, p: IppParams) -> SweepRecord:
    return SweepRecord(phi, delta, *_point_columns(verify_prediction(p)).values())


def sweep_real(n: int) -> list[SweepRecord]:
    """Classify n equally spaced real parameter points phi in [0, 2pi)."""
    if n < 2:
        raise ValueError("sweep_real requires n >= 2")
    records = []
    for k in range(n):
        phi = 2.0 * math.pi * k / n
        records.append(_evaluate(phi, None, IppParams(math.cos(phi), math.sin(phi))))
    return records


def sweep_complex(n_phi: int, n_delta: int) -> list[SweepRecord]:
    """Classify the (phi, delta) grid with alpha = cos(phi), beta = e^{i delta} sin(phi)."""
    if n_phi < 2 or n_delta < 1:
        raise ValueError("sweep_complex requires n_phi >= 2 and n_delta >= 1")
    records = []
    for k in range(n_phi):
        phi = 2.0 * math.pi * k / n_phi
        for j in range(n_delta):
            delta = 2.0 * math.pi * j / n_delta
            p = IppParams(math.cos(phi), np.exp(1j * delta) * math.sin(phi))
            records.append(_evaluate(phi, delta, p))
    return records


def sweep_gamma(
    n_theta: int,
    n_a: int,
    n_b: int,
    theta0: float = 0.0,
    phi_a0: float = 0.0,
    phi_b0: float = 0.0,
) -> GammaSweepSummary:
    """Max deviation of the anti-unitary scenario's final Schmidt vector from
    its parameter-free value, over an (n_theta x n_a x n_b) angle grid.

    The optional offsets shift each grid axis, so single-point grids can
    probe any chosen parameter triple.  Deviation at or above 1e-10 is an
    internal contract violation.
    """
    if n_theta < 1 or n_a < 1 or n_b < 1:
        raise ValueError("sweep_gamma requires positive grid sizes")
    worst = 0.0
    for i in range(n_theta):
        theta = theta0 + 2.0 * math.pi * i / n_theta
        for j in range(n_a):
            phi_a = phi_a0 + 2.0 * math.pi * j / n_a
            for k in range(n_b):
                phi_b = phi_b0 + 2.0 * math.pi * k / n_b
                vec = schmidt_vector(chi_final(UnitaryParams(theta, phi_a, phi_b)))
                worst = max(worst, float(np.max(np.abs(vec - CHI_FINAL_SCHMIDT))))
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
