"""Decision procedure over the cubic data (A, B): predict the pair verdict
from the sign of B and the position of A relative to 1/4, and verify the
prediction against direct numerical classification.

For A > 1/4 the prediction is conditional on a boundary expression.  Two
sign-symmetric candidate forms exist.  At eigen-angle in [0, pi/3], B > 0
forces the largest final root above the initial one, so incomparability
hinges on the smallest roots: governing expression 2 sqrt(A) cos(angle),
incomparable iff it is below sqrt(3)/2.  B < 0 forces the smallest final
root below the initial one, so the largest roots govern: expression
2 sqrt(A) cos(2 pi/3 + angle), incomparable iff it is above -sqrt(3)/2.
This assignment is confirmed empirically by boundary_agreement_counts
(the B < 0, A > 1/4 region turns out to be unrealizable, so its branch
is exercised only analytically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .majorization import _LABELS, PairLabel, PairVerdict, _pair_codes
from .qubits import IppParams, _unit_amplitudes
from .scenarios import (
    CubicSpectrum,
    _cubic_ab,
    _pi_final_amplitudes,
    _pqr,
    _spectra,
    build_pi_initial,
    spectrum_from_ab,
)
from .states import _schmidt_vectors, entropy_of_entanglement, schmidt_vector

CASE_BAND = 1e-12
SOLVER_AGREE_TOL = 1e-10
SQRT3_HALF = math.sqrt(3.0) / 2.0
# Grid points per call of the certified kernel (and of the stacked Jacobi)
# in the sweeps and boundary_agreement_counts, so array temporaries stay
# bounded for any grid.  A chosen round number, not a measured optimum.
BLOCK_POINTS = 4096

BOUNDARY_NOTE = (
    "two candidate boundary expressions exist for the A>1/4 subcases; the "
    "min-branch governs B>0 and the max-branch governs B<0, fixed by the root "
    "ranges at eigen-angle in [0, pi/3] and confirmed by "
    "boundary_agreement_counts"
)


class CaseId(Enum):
    B_NEG = "B_NEG"
    B_ZERO = "B_ZERO"
    B_POS = "B_POS"


class Subcase(Enum):
    A_LT_QUARTER = "A_LT_QUARTER"
    A_EQ_QUARTER = "A_EQ_QUARTER"
    A_GT_QUARTER = "A_GT_QUARTER"


class Prediction(Enum):
    INCOMPARABLE = "INCOMPARABLE"
    ENTANGLEMENT_INCREASE = "ENTANGLEMENT_INCREASE"
    INCOMPARABLE_OR_INCREASE = "INCOMPARABLE_OR_INCREASE"
    NOT_INCOMPARABLE = "NOT_INCOMPARABLE"
    CONDITIONAL = "CONDITIONAL"


@dataclass(frozen=True)
class BoundaryCondition:
    """Both candidate boundary expressions plus the validated implication."""

    expr_max_branch: float
    expr_min_branch: float
    governing: str
    incomparable: bool


@dataclass(frozen=True)
class CaseVerdict:
    case_id: CaseId
    subcase: Subcase
    predicted: Prediction
    condition_value: float | None = None
    condition: BoundaryCondition | None = None


@dataclass(frozen=True)
class PredictionCheck:
    """One certified point: the prediction, the observed pair, and the
    trig spectrum that agreed with the Jacobi spectrum of the final state."""

    predicted: CaseVerdict
    observed: PairVerdict
    agree: bool
    spectrum: CubicSpectrum
    entropy_initial: float
    entropy_final: float

    @property
    def entropy_delta(self) -> float:
        return self.entropy_final - self.entropy_initial


class ContractViolationError(RuntimeError):
    """An internal cross-check failed beyond its stated tolerance."""


# A case is the sign class of B and a subcase the position of A against
# 1/4, each coded 0 (below), 1 (within CASE_BAND) or 2 (above).
_CASE_IDS = (CaseId.B_NEG, CaseId.B_ZERO, CaseId.B_POS)
_SUBCASES = (Subcase.A_LT_QUARTER, Subcase.A_EQ_QUARTER, Subcase.A_GT_QUARTER)
_PREDICTIONS = tuple(Prediction)
_CONDITIONAL = _PREDICTIONS.index(Prediction.CONDITIONAL)
_INCOMPARABLE = _LABELS.index(PairLabel.INCOMPARABLE)
# The decision table: the prediction, as an index into _PREDICTIONS, for
# each (case, subcase).
_DECISION = np.array(
    [
        [_PREDICTIONS.index(p) for p in row]
        for row in (
            (Prediction.INCOMPARABLE_OR_INCREASE, Prediction.INCOMPARABLE, Prediction.CONDITIONAL),
            (Prediction.ENTANGLEMENT_INCREASE, Prediction.NOT_INCOMPARABLE, Prediction.NOT_INCOMPARABLE),
            (Prediction.INCOMPARABLE_OR_INCREASE, Prediction.INCOMPARABLE, Prediction.CONDITIONAL),
        )
    ]
)
# The pair labels each unconditional prediction admits, also as a table over
# (prediction, label) indices.  CONDITIONAL admits INCOMPARABLE exactly
# where its boundary condition holds.
_ADMITS = {
    Prediction.INCOMPARABLE: {PairLabel.INCOMPARABLE},
    Prediction.ENTANGLEMENT_INCREASE: {PairLabel.CONVERTIBLE_BACKWARD},
    Prediction.INCOMPARABLE_OR_INCREASE: {PairLabel.INCOMPARABLE, PairLabel.CONVERTIBLE_BACKWARD},
    Prediction.NOT_INCOMPARABLE: set(PairLabel) - {PairLabel.INCOMPARABLE},
}
_ADMITTED = np.array([[label in _ADMITS.get(p, ()) for label in _LABELS] for p in _PREDICTIONS])


def _band_class(values: np.ndarray, centre: float) -> np.ndarray:
    """0 below centre, 1 within CASE_BAND of it, 2 above (and for NaN)."""
    return np.where(np.abs(values - centre) < CASE_BAND, 1, np.where(values < centre, 0, 2))


def _decide(big_a: np.ndarray, big_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Case, subcase and prediction codes of arrays of cubic data."""
    case, subcase = _band_class(big_b, 0.0), _band_class(big_a, 0.25)
    return case, subcase, _DECISION[case, subcase]


def _condition(case: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Governing boundary expression and whether it implies incomparability.

    B > 0 is governed by the min branch, 2 sqrt(A) cos(angle), incomparable
    below sqrt(3)/2; B < 0 by the max branch, 2 sqrt(A) cos(2 pi/3 + angle),
    incomparable above -sqrt(3)/2.
    """
    min_branch = case == _CASE_IDS.index(CaseId.B_POS)
    value = np.where(min_branch, roots[..., 1], roots[..., 0])
    return value, np.where(min_branch, value < SQRT3_HALF, value > -SQRT3_HALF)


def _verdict(case: int, subcase: int, predicted: int, roots: np.ndarray | None) -> CaseVerdict:
    """The CaseVerdict of one point's codes; the roots are read only for a
    CONDITIONAL prediction."""
    case_id, sub, prediction = _CASE_IDS[case], _SUBCASES[subcase], _PREDICTIONS[predicted]
    if prediction is not Prediction.CONDITIONAL:
        return CaseVerdict(case_id, sub, prediction)
    value, incomparable = _condition(np.array(case), roots)
    condition = BoundaryCondition(
        float(roots[0]),
        float(roots[1]),
        "min_branch" if case_id is CaseId.B_POS else "max_branch",
        bool(incomparable),
    )
    return CaseVerdict(case_id, sub, prediction, float(value), condition)


def predict_case(big_a: float, big_b: float) -> CaseVerdict:
    """Predicted verdict for the cubic data (A, B) of a final-state spectrum."""
    big_a, big_b = float(big_a), float(big_b)
    case, subcase, predicted = (int(code) for code in _decide(np.array(big_a), np.array(big_b)))
    roots = None
    if predicted == _CONDITIONAL:
        roots = np.array(spectrum_from_ab(big_a, big_b).roots)
    return _verdict(case, subcase, predicted, roots)


def prediction_consistent(verdict: CaseVerdict, label: PairLabel) -> bool:
    """Whether an observed pair label is consistent with a predicted verdict."""
    if verdict.predicted is Prediction.CONDITIONAL:
        return verdict.condition.incomparable == (label is PairLabel.INCOMPARABLE)
    return label in _ADMITS[verdict.predicted]


@lru_cache(maxsize=1)
def _pi_initial_schmidt() -> tuple[np.ndarray, float]:
    vec = schmidt_vector(build_pi_initial())
    return vec, entropy_of_entanglement(vec)


def _blocks(total: int):
    """Index arrays of the consecutive blocks of at most BLOCK_POINTS grid points."""
    for start in range(0, total, BLOCK_POINTS):
        yield np.arange(start, min(start + BLOCK_POINTS, total))


def _certify(alpha: np.ndarray, beta: np.ndarray) -> dict[str, np.ndarray]:
    """The certified grid kernel: predict from (A, B) and check against the
    directly classified pair at every point of (N,) amplitude arrays.

    The cubic is solved once per point and its spectrum must match the
    Jacobi spectrum of the directly built final state (one stacked Jacobi
    call for all points) within SOLVER_AGREE_TOL; otherwise
    ContractViolationError is raised for the first failing point.  Returns
    arrays with one entry (or row) per point: big_a, big_b, and angle,
    roots and eigenvalues as spectrum_from_ab gives them; final, the Jacobi
    Schmidt vector, and its entropy_final; the codes case, subcase,
    predicted and observed (an index into majorization's labels), with the
    partial sums sums_initial and sums_final that observed was read from;
    agree; and entropy_initial.
    """
    alpha, beta = _unit_amplitudes(alpha, beta)
    big_a, big_b = _cubic_ab(*_pqr(alpha, beta))
    final = _schmidt_vectors(_pi_final_amplitudes(alpha, beta))
    angle, roots, eigenvalues = _spectra(big_a, big_b)
    gap = np.max(np.abs(eigenvalues - final), axis=-1)
    failing = np.flatnonzero(gap > SOLVER_AGREE_TOL)
    if failing.size:
        i = failing[0]
        raise ContractViolationError(
            f"trig and Jacobi spectra disagree by {gap[i]:.3e} at "
            f"alpha={complex(alpha[i])!r}, beta={complex(beta[i])!r}"
        )
    initial_vec, initial_entropy = _pi_initial_schmidt()
    case, subcase, predicted = _decide(big_a, big_b)
    observed, sums_initial, sums_final = _pair_codes(initial_vec, final)
    incomparable_if = _condition(case, roots)[1]
    agree = np.where(
        predicted == _CONDITIONAL,
        incomparable_if == (observed == _INCOMPARABLE),
        _ADMITTED[predicted, observed],
    )
    return {
        "big_a": big_a, "big_b": big_b, "angle": angle, "roots": roots,
        "eigenvalues": eigenvalues, "final": final,
        "entropy_final": entropy_of_entanglement(final), "case": case,
        "subcase": subcase, "predicted": predicted, "observed": observed,
        "sums_initial": np.broadcast_to(sums_initial, sums_final.shape),
        "sums_final": sums_final, "agree": agree,
        "entropy_initial": np.full(len(final), initial_entropy),
    }


def verify_prediction(p: IppParams) -> PredictionCheck:
    """Predict from (A, B) and check against the directly classified pair:
    the one-point case of the grid kernel, which raises
    ContractViolationError where the trig and Jacobi spectra disagree."""
    grid = _certify(np.array([p.alpha]), np.array([p.beta]))
    point = {name: value[0] for name, value in grid.items()}
    roots = point["roots"]
    return PredictionCheck(
        predicted=_verdict(point["case"], point["subcase"], point["predicted"], roots),
        observed=PairVerdict(
            _LABELS[point["observed"]], point["sums_initial"], point["sums_final"]
        ),
        agree=bool(point["agree"]),
        spectrum=CubicSpectrum(
            float(point["big_a"]), float(point["big_b"]), float(point["angle"]),
            point["eigenvalues"], tuple(roots.tolist()),
        ),
        entropy_initial=float(point["entropy_initial"]),
        entropy_final=float(point["entropy_final"]),
    )


def boundary_agreement_counts(
    n_phi: int = 240, n_delta: int = 24
) -> dict[tuple[str, str], tuple[int, int]]:
    """Empirical arbitration of the candidate boundary expressions.

    Sweeps parameters alpha = cos(phi), beta = e^{i delta} sin(phi),
    keeps the A > 1/4 points off the zero-band of B, and counts how often
    each candidate expression's implication matches observed
    incomparability.  Keys are (case label, expression label); values are
    (matches, points).
    """
    columns = ("observed", "roots", "predicted", "case")
    blocks = []
    for index in _blocks(n_phi * n_delta):
        i, j = np.divmod(index, n_delta)
        phi = 2.0 * math.pi * i / n_phi
        delta = 2.0 * math.pi * j / n_delta
        grid = _certify(np.cos(phi), np.exp(1j * delta) * np.sin(phi))
        blocks.append([grid[name] for name in columns])
    grid = dict(zip(columns, map(np.concatenate, zip(*blocks))))
    incomparable = grid["observed"] == _INCOMPARABLE
    implications = {
        "max_branch": grid["roots"][:, 0] > -SQRT3_HALF,
        "min_branch": grid["roots"][:, 1] < SQRT3_HALF,
    }
    counts = {}
    for case in (CaseId.B_NEG, CaseId.B_POS):
        kept = (grid["predicted"] == _CONDITIONAL) & (grid["case"] == _CASE_IDS.index(case))
        for expr, implied in implications.items():
            hits = int(np.count_nonzero(implied[kept] == incomparable[kept]))
            counts[(case.value, expr)] = (hits, int(np.count_nonzero(kept)))
    return counts
