"""Decision procedure over the cubic data (A, B): predict_case codes the pair
verdict from the sign of B and the position of A relative to 1/4; and the
one certified grid kernel, which checks every prediction against the directly
classified pair and is the route of every prediction the CLI prints.

The final cubic is f(x) = x^3 - 3Ax + B, with roots x = 1 - 3 lam at the
final eigenvalues lam, and the initial vector sits at x = -c, 0, c with
c = sqrt(3)/2.  Every valid (alpha, beta) has A <= 2/3 < c^2, so +-c lie
beyond the turning points +-sqrt(A), and the two linear forms L+- = f(+-c)
= B +- (3 sqrt(3)/8)(1 - 4A) decide the verdict: L+ > 0 iff the final smallest eigenvalue
exceeds the initial one, L- > 0 iff the final largest one does, and the
pair is incomparable iff both are non-zero with the same sign.

Every valid (alpha, beta) has B >= (3/2)(A - 1/4).  With a = |alpha|,
b = |beta| and delta = arg beta - arg alpha, B - (3/2)(A - 1/4) equals b^2
times a 15-term polynomial in (a, b, cos delta, sin delta) that is positive
on the whole (phi, delta) torus; its minimum is about 0.065.
tests/test_cases.py proves the identity and certifies the polynomial above
0.005, and proves the linear-form facts above.  So A above 1/4 + CASE_BAND
forces B above 1.5 CASE_BAND, and no amplitudes realize A > 1/4 with B not
above 0: predict_case refuses such data.  For A > 1/4, B > 0 makes L-
positive, so the prediction is conditional on the sign of L+, read with a
3 MAJORIZATION_TOL margin.  The decision reads (A, B) alone and shares no
code with either eigen-route.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from enum import Enum

import numpy as np

from .majorization import _LABELS, MAJORIZATION_TOL, PairLabel, _pair_codes
from .scenarios import (
    PI_INITIAL_SCHMIDT,
    _discriminant_root,
    cubic_coefficients,
    pi_final,
    pqr,
    spectrum_from_ab,
)
from .states import entropy_of_entanglement, schmidt_vector

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


class ContractViolationError(RuntimeError):
    """An internal cross-check failed beyond its stated tolerance."""


@contextmanager
def _internal():
    """Past input validation, a ValueError (a refused NaN that a kernel
    made, say) is the program's fault: re-raise it as ContractViolationError."""
    try:
        yield
    except ValueError as exc:
        raise ContractViolationError(str(exc)) from exc


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


def predict_case(big_a: np.ndarray, big_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Case, subcase and prediction codes of arrays of cubic data, the
    prediction as an index into _PREDICTIONS; ValueError if any point has A
    above 1/4 and B not above 0, which no amplitudes realize."""
    case, subcase = _band_class(big_b, 0.0), _band_class(big_a, 0.25)
    predicted = _DECISION[case, subcase]
    if np.any(predicted == _UNREALIZABLE):
        raise ValueError("A above 1/4 needs B above 0: no amplitudes realize these cubic data")
    return case, subcase, predicted


def _conditional_incomparable(big_a: np.ndarray, big_b: np.ndarray) -> np.ndarray:
    """Whether a CONDITIONAL point is predicted incomparable: f(x) = x^3 -
    3Ax + B is positive at x = sqrt(3)/2 - 3 MAJORIZATION_TOL, which lies
    above sqrt(A), so the largest root, 1 - 3 lam3, is below x and the final
    smallest eigenvalue exceeds the initial one by more than classify_pair's
    tie band."""
    x = SQRT3_HALF - 3.0 * MAJORIZATION_TOL
    return x**3 - 3.0 * big_a * x + big_b > 0.0


def _closed_form_deviation(vecs: np.ndarray, closed_form: np.ndarray, which: str) -> float:
    """Max distance of Schmidt vectors (Jacobi) from their parameter-free
    closed form; ContractViolationError unless within SOLVER_AGREE_TOL, so a
    NaN deviation fails too."""
    deviation = float(np.max(np.abs(vecs - closed_form)))
    if not deviation <= SOLVER_AGREE_TOL:
        raise ContractViolationError(
            f"{which} Schmidt vector deviates by {deviation:.3e} from its parameter-free value"
        )
    return deviation


def _certify(alpha: np.ndarray, beta: np.ndarray) -> dict[str, np.ndarray]:
    """The certified grid kernel: predict from (A, B) and check against the
    directly classified pair at every point of unchecked (N,) amplitude arrays.

    The cubic is solved once per point, with the root of its discriminant
    taken from p, q, r as a sum of squares, and its spectrum must match the
    Jacobi spectrum of the directly built final state within
    SOLVER_AGREE_TOL; otherwise ContractViolationError is raised for the
    first failing point.  One stacked Jacobi call diagonalizes the final
    states behind point 0, (alpha, beta) = (1, 0): the identity map, whose
    final state is the initial one, so its vector must lie within
    SOLVER_AGREE_TOL of PI_INITIAL_SCHMIDT in every call.  Returns (N,)
    arrays under a sweep's column names, in its column order: A, B, the trig
    eigenvalues lam1 .. lam3, entropy_i and entropy_f, observed and
    predicted as PairLabel and Prediction objects, and agree.  A NaN gap
    fails the check too, and a ValueError is _internal.
    """
    with _internal():
        coefficients = pqr(alpha, beta)
        big_a, big_b = cubic_coefficients(*coefficients)
        root = _discriminant_root(*coefficients, big_a, big_b)
        eigenvalues = spectrum_from_ab(big_a, big_b, root)
        vecs = schmidt_vector(pi_final(np.concatenate(([1.0], alpha)), np.concatenate(([0.0], beta))))
        initial, final = vecs[0], vecs[1:]
        gap = np.max(np.abs(eigenvalues - final), axis=-1)
        failing = np.flatnonzero(~(gap <= SOLVER_AGREE_TOL))
        if failing.size:
            i = failing[0]
            raise ContractViolationError(
                f"trig and Jacobi spectra disagree by {gap[i]:.3e} at "
                f"alpha={complex(alpha[i])!r}, beta={complex(beta[i])!r}"
            )
        _closed_form_deviation(initial, PI_INITIAL_SCHMIDT, "initial")
        entropy = entropy_of_entanglement(vecs)
        predicted = predict_case(big_a, big_b)[2]
        observed = _pair_codes(initial, final)[0]
        agree = np.where(
            predicted == _CONDITIONAL,
            _conditional_incomparable(big_a, big_b) == (observed == _INCOMPARABLE),
            _ADMITTED[predicted, observed],
        )
        return {
            "A": big_a, "B": big_b,
            "lam1": eigenvalues[:, 0], "lam2": eigenvalues[:, 1], "lam3": eigenvalues[:, 2],
            "entropy_i": np.full(len(final), entropy[0]),
            "entropy_f": entropy[1:],
            "observed": _LABEL_ENUMS[observed], "predicted": _PREDICTION_ENUMS[predicted],
            "agree": agree,
        }
