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

from .majorization import PairLabel, PairVerdict, classify_pair
from .qubits import IppParams
from .scenarios import (
    CubicSpectrum,
    build_pi_initial,
    cubic_coefficients,
    pi_final,
    pqr,
    spectrum_from_ab,
)
from .states import entropy_of_entanglement, schmidt_vector

CASE_BAND = 1e-12
SOLVER_AGREE_TOL = 1e-10
SQRT3_HALF = math.sqrt(3.0) / 2.0

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


def _boundary(spectrum: CubicSpectrum, case_id: CaseId) -> BoundaryCondition:
    expr_max, expr_min, _ = spectrum.roots
    if case_id is CaseId.B_POS:
        return BoundaryCondition(expr_max, expr_min, "min_branch", expr_min < SQRT3_HALF)
    return BoundaryCondition(expr_max, expr_min, "max_branch", expr_max > -SQRT3_HALF)


def predict_case(big_a: float, big_b: float) -> CaseVerdict:
    """Predicted verdict for the cubic data (A, B) of a final-state spectrum."""
    return _predict(float(big_a), float(big_b), None)


def _predict(big_a: float, big_b: float, spectrum: CubicSpectrum | None) -> CaseVerdict:
    """predict_case, reusing spectrum when the caller has already solved (A, B)."""
    if abs(big_b) < CASE_BAND:
        case_id = CaseId.B_ZERO
    elif big_b < 0.0:
        case_id = CaseId.B_NEG
    else:
        case_id = CaseId.B_POS
    if abs(big_a - 0.25) < CASE_BAND:
        subcase = Subcase.A_EQ_QUARTER
    elif big_a < 0.25:
        subcase = Subcase.A_LT_QUARTER
    else:
        subcase = Subcase.A_GT_QUARTER

    if case_id is CaseId.B_ZERO:
        predicted = (
            Prediction.ENTANGLEMENT_INCREASE
            if subcase is Subcase.A_LT_QUARTER
            else Prediction.NOT_INCOMPARABLE
        )
        return CaseVerdict(case_id, subcase, predicted)
    if subcase is Subcase.A_EQ_QUARTER:
        return CaseVerdict(case_id, subcase, Prediction.INCOMPARABLE)
    if subcase is Subcase.A_LT_QUARTER:
        return CaseVerdict(case_id, subcase, Prediction.INCOMPARABLE_OR_INCREASE)
    if spectrum is None:
        spectrum = spectrum_from_ab(big_a, big_b)
    condition = _boundary(spectrum, case_id)
    value = (
        condition.expr_min_branch
        if condition.governing == "min_branch"
        else condition.expr_max_branch
    )
    return CaseVerdict(case_id, subcase, Prediction.CONDITIONAL, value, condition)


def prediction_consistent(verdict: CaseVerdict, label: PairLabel) -> bool:
    """Whether an observed pair label is consistent with a predicted verdict."""
    if verdict.predicted is Prediction.INCOMPARABLE:
        return label is PairLabel.INCOMPARABLE
    if verdict.predicted is Prediction.ENTANGLEMENT_INCREASE:
        return label is PairLabel.CONVERTIBLE_BACKWARD
    if verdict.predicted is Prediction.INCOMPARABLE_OR_INCREASE:
        return label in (PairLabel.INCOMPARABLE, PairLabel.CONVERTIBLE_BACKWARD)
    if verdict.predicted is Prediction.NOT_INCOMPARABLE:
        return label is not PairLabel.INCOMPARABLE
    return verdict.condition.incomparable == (label is PairLabel.INCOMPARABLE)


@lru_cache(maxsize=1)
def _pi_initial_schmidt() -> tuple[np.ndarray, float]:
    vec = schmidt_vector(build_pi_initial())
    return vec, entropy_of_entanglement(vec)


def verify_prediction(p: IppParams) -> PredictionCheck:
    """Predict from (A, B) and check against the directly classified pair.

    The cubic is solved once and its spectrum must match the Jacobi
    spectrum of the directly built final state within SOLVER_AGREE_TOL;
    otherwise ContractViolationError is raised.
    """
    big_a, big_b = cubic_coefficients(pqr(p))
    initial_vec, initial_entropy = _pi_initial_schmidt()
    final_vec = schmidt_vector(pi_final(p))
    spectrum = spectrum_from_ab(big_a, big_b)
    gap = float(np.max(np.abs(spectrum.eigenvalues - final_vec)))
    if gap > SOLVER_AGREE_TOL:
        raise ContractViolationError(
            f"trig and Jacobi spectra disagree by {gap:.3e} at alpha={p.alpha!r}, beta={p.beta!r}"
        )
    verdict = _predict(big_a, big_b, spectrum)
    observed = classify_pair(initial_vec, final_vec)
    return PredictionCheck(
        predicted=verdict,
        observed=observed,
        agree=prediction_consistent(verdict, observed.label),
        spectrum=spectrum,
        entropy_initial=initial_entropy,
        entropy_final=entropy_of_entanglement(final_vec),
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
    counts = {
        (case, expr): [0, 0]
        for case in ("B_NEG", "B_POS")
        for expr in ("max_branch", "min_branch")
    }
    for i in range(n_phi):
        phi = 2.0 * math.pi * i / n_phi
        for j in range(n_delta):
            delta = 2.0 * math.pi * j / n_delta
            p = IppParams(math.cos(phi), np.exp(1j * delta) * math.sin(phi))
            check = verify_prediction(p)
            verdict = check.predicted
            if verdict.subcase is not Subcase.A_GT_QUARTER or verdict.condition is None:
                continue
            incomparable = check.observed.label is PairLabel.INCOMPARABLE
            cond = verdict.condition
            implications = {
                "max_branch": cond.expr_max_branch > -SQRT3_HALF,
                "min_branch": cond.expr_min_branch < SQRT3_HALF,
            }
            for expr, implied in implications.items():
                hit, total = counts[(verdict.case_id.value, expr)]
                counts[(verdict.case_id.value, expr)] = [hit + (implied == incomparable), total + 1]
    return {key: (hit, total) for key, (hit, total) in counts.items()}
