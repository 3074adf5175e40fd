"""Decision procedure over the cubic data (A, B): predict the pair verdict
from the sign of B and the position of A relative to 1/4, and verify the
prediction against direct numerical classification.

Every valid (alpha, beta) has B >= (3/2)(A - 1/4).  With a = |alpha|,
b = |beta| and delta = arg beta - arg alpha, B - (3/2)(A - 1/4) equals b^2
times a 15-term polynomial in (a, b, cos delta, sin delta) that is positive
on the whole (phi, delta) torus; its minimum is about 0.065.
tests/test_cases.py proves the identity and certifies the polynomial above
0.005.  So A above 1/4 + CASE_BAND forces B above 1.5 CASE_BAND, and no
amplitudes realize A > 1/4 with B not above 0: predict_case refuses such
data.  For A > 1/4 the prediction is conditional.  At eigen-angle in
[0, pi/3], B > 0 forces the largest final root above the initial one, so
incomparability hinges on the smallest roots: it holds iff
2 sqrt(A) cos(angle) is below sqrt(3)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .majorization import _LABELS, PairLabel, PairVerdict, _pair_codes
from .qubits import IppParams, _unit_amplitudes
from .scenarios import _cubic_ab, _pi_final_amplitudes, _pqr, _spectra, build_pi_initial
from .states import _schmidt_vectors, entropy_of_entanglement, schmidt_vector

CASE_BAND = 1e-12
SOLVER_AGREE_TOL = 1e-10
SQRT3_HALF = math.sqrt(3.0) / 2.0


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
class CaseVerdict:
    """A predicted verdict; a CONDITIONAL one also carries its boundary
    expression and whether that expression implies incomparability."""

    case_id: CaseId
    subcase: Subcase
    predicted: Prediction
    condition_value: float | None = None
    condition: bool | None = None


@dataclass(frozen=True)
class PredictionCheck:
    """One certified point: the prediction, the observed pair, whether they
    agree, and the entropies of the initial and final states."""

    predicted: CaseVerdict
    observed: PairVerdict
    agree: bool
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
_LABEL_ENUMS = np.array(_LABELS, dtype=object)
_PREDICTION_ENUMS = np.array(_PREDICTIONS, dtype=object)
_CONDITIONAL = _PREDICTIONS.index(Prediction.CONDITIONAL)
_INCOMPARABLE = _LABELS.index(PairLabel.INCOMPARABLE)
# The decision table: the prediction, as an index into _PREDICTIONS, for
# each (case, subcase), or _UNREALIZABLE where A > 1/4 and B is not above 0.
_UNREALIZABLE = -1
_DECISION = np.array(
    [
        [_UNREALIZABLE if p is None else _PREDICTIONS.index(p) for p in row]
        for row in (
            (Prediction.INCOMPARABLE_OR_INCREASE, Prediction.INCOMPARABLE, None),
            (Prediction.ENTANGLEMENT_INCREASE, Prediction.NOT_INCOMPARABLE, None),
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
    """Case, subcase and prediction codes of arrays of cubic data; ValueError
    if any point has A above 1/4 and B not above 0."""
    case, subcase = _band_class(big_b, 0.0), _band_class(big_a, 0.25)
    predicted = _DECISION[case, subcase]
    if np.any(predicted == _UNREALIZABLE):
        raise ValueError("A above 1/4 needs B above 0: no amplitudes realize these cubic data")
    return case, subcase, predicted


def _condition(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The boundary expression 2 sqrt(A) cos(angle) (the second root) and
    whether it implies incomparability: it is below sqrt(3)/2."""
    value = roots[..., 1]
    return value, value < SQRT3_HALF


def _verdict(case: int, subcase: int, prediction: Prediction, roots: np.ndarray) -> CaseVerdict:
    """The CaseVerdict of one point's codes and prediction; the roots are
    read only for a CONDITIONAL prediction."""
    case_id, sub = _CASE_IDS[case], _SUBCASES[subcase]
    if prediction is not Prediction.CONDITIONAL:
        return CaseVerdict(case_id, sub, prediction)
    value, incomparable = _condition(roots)
    return CaseVerdict(case_id, sub, prediction, float(value), bool(incomparable))


def predict_case(big_a: float, big_b: float) -> CaseVerdict:
    """Predicted verdict for the cubic data (A, B) of a final-state spectrum.

    ValueError unless (A, B) is finite, in the cubic's domain and realized
    by some amplitudes (A at least 1/12, and A above 1/4 needs B above 0).
    """
    big_a, big_b = np.array(float(big_a)), np.array(float(big_b))
    roots = _spectra(big_a, big_b)[1]
    case, subcase, predicted = (int(code) for code in _decide(big_a, big_b))
    return _verdict(case, subcase, _PREDICTIONS[predicted], roots)


def prediction_consistent(verdict: CaseVerdict, label: PairLabel) -> bool:
    """Whether an observed pair label is consistent with a predicted verdict."""
    if verdict.predicted is Prediction.CONDITIONAL:
        return verdict.condition == (label is PairLabel.INCOMPARABLE)
    return label in _ADMITS[verdict.predicted]


@lru_cache(maxsize=1)
def _pi_initial_schmidt() -> tuple[np.ndarray, float]:
    vec = schmidt_vector(build_pi_initial())
    return vec, entropy_of_entanglement(vec)


def _certify(alpha: np.ndarray, beta: np.ndarray) -> dict[str, np.ndarray]:
    """The certified grid kernel: predict from (A, B) and check against the
    directly classified pair at every point of (N,) amplitude arrays.

    The cubic is solved once per point and its spectrum must match the
    Jacobi spectrum of the directly built final state (one stacked Jacobi
    call for all points) within SOLVER_AGREE_TOL; otherwise
    ContractViolationError is raised for the first failing point.  Returns
    (N,) arrays under a sweep's column names, in its column order: A, B,
    the trig eigenvalues lam1 .. lam3, entropy_i and entropy_f, observed
    and predicted as PairLabel and Prediction objects, and agree.  Then,
    for verify_prediction, the case and subcase codes, and the (N, 3) roots
    and final-state partial sums sums_final.
    """
    alpha, beta = _unit_amplitudes(alpha, beta)
    big_a, big_b = _cubic_ab(*_pqr(alpha, beta))
    final = _schmidt_vectors(_pi_final_amplitudes(alpha, beta))
    roots, eigenvalues = _spectra(big_a, big_b)[1:]
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
    observed, _, sums_final = _pair_codes(initial_vec, final)
    incomparable_if = _condition(roots)[1]
    agree = np.where(
        predicted == _CONDITIONAL,
        incomparable_if == (observed == _INCOMPARABLE),
        _ADMITTED[predicted, observed],
    )
    return {
        "A": big_a, "B": big_b,
        "lam1": eigenvalues[:, 0], "lam2": eigenvalues[:, 1], "lam3": eigenvalues[:, 2],
        "entropy_i": np.full(len(final), initial_entropy),
        "entropy_f": entropy_of_entanglement(final),
        "observed": _LABEL_ENUMS[observed], "predicted": _PREDICTION_ENUMS[predicted],
        "agree": agree, "case": case, "subcase": subcase, "roots": roots,
        "sums_final": sums_final,
    }


def verify_prediction(p: IppParams) -> PredictionCheck:
    """Predict from (A, B) and check against the directly classified pair:
    the one-point case of the grid kernel, which raises
    ContractViolationError where the trig and Jacobi spectra disagree."""
    grid = _certify(np.array([p.alpha]), np.array([p.beta]))
    point = {name: value[0] for name, value in grid.items()}
    sums_initial = np.cumsum(_pi_initial_schmidt()[0])
    return PredictionCheck(
        predicted=_verdict(point["case"], point["subcase"], point["predicted"], point["roots"]),
        observed=PairVerdict(point["observed"], sums_initial, point["sums_final"]),
        agree=bool(point["agree"]),
        entropy_initial=float(point["entropy_i"]),
        entropy_final=float(point["entropy_f"]),
    )
