"""Numerical toolkit for detecting nonphysical qubit operations through
LOCC-incomparable bipartite pure states.

Anti-unitary maps and restricted inner-product-preserving superposition
maps, applied to one qubit of a shared 3x4 probe state, deterministically
convert between pairs of states that majorization forbids in both
directions.  This package builds the probe scenarios, computes Schmidt
vectors by two independent eigensolvers, classifies pairs, and sweeps the
operation's parameter space.
"""

from .cases import (
    CaseId,
    CaseVerdict,
    Prediction,
    PredictionCheck,
    Subcase,
    predict_case,
    prediction_consistent,
    verify_prediction,
)
from .linalg import (
    JacobiConvergenceError,
    dagger,
    eigenvalues_hermitian_jacobi,
    eigenvalues_hermitian_trig,
    is_hermitian,
    is_normalized,
    tensor_product,
)
from .majorization import (
    PairLabel,
    PairVerdict,
    classify_pair,
    incomparable_strict3,
    majorizes,
)
from .qubits import (
    IppParams,
    SpinLabel,
    UnitaryParams,
    apply_antiunitary,
    general_unitary,
    ipp_image,
    named_ket,
)
from .scenarios import (
    CHI_FINAL_SCHMIDT,
    CHI_INITIAL_SCHMIDT,
    PI_INITIAL_SCHMIDT,
    CubicSpectrum,
    PqrCoefficients,
    build_chi_initial,
    build_pi_initial,
    chi_final,
    chi_final_unitary_only,
    chi_initial_density_closed_form,
    cubic_coefficients,
    pi_final,
    pi_final_density_closed_form,
    pi_initial_density_closed_form,
    pqr,
    real_ab,
    spectrum_from_ab,
)
from .states import BipartiteState, entropy_of_entanglement, reduced_density_a, schmidt_vector
from .sweep import (
    ContractViolationError,
    GammaSweepSummary,
    SweepRecord,
    records_to_csv,
    records_to_json,
    summarize,
    sweep_complex,
    sweep_gamma,
    sweep_real,
)

__all__ = [
    "BipartiteState",
    "CHI_FINAL_SCHMIDT",
    "CHI_INITIAL_SCHMIDT",
    "CaseId",
    "CaseVerdict",
    "ContractViolationError",
    "CubicSpectrum",
    "GammaSweepSummary",
    "IppParams",
    "JacobiConvergenceError",
    "PI_INITIAL_SCHMIDT",
    "PairLabel",
    "PairVerdict",
    "PqrCoefficients",
    "Prediction",
    "PredictionCheck",
    "SpinLabel",
    "Subcase",
    "SweepRecord",
    "UnitaryParams",
    "apply_antiunitary",
    "build_chi_initial",
    "build_pi_initial",
    "chi_final",
    "chi_final_unitary_only",
    "chi_initial_density_closed_form",
    "classify_pair",
    "cubic_coefficients",
    "dagger",
    "eigenvalues_hermitian_jacobi",
    "eigenvalues_hermitian_trig",
    "entropy_of_entanglement",
    "general_unitary",
    "incomparable_strict3",
    "ipp_image",
    "is_hermitian",
    "is_normalized",
    "majorizes",
    "named_ket",
    "pi_final",
    "pi_final_density_closed_form",
    "pi_initial_density_closed_form",
    "pqr",
    "predict_case",
    "prediction_consistent",
    "real_ab",
    "records_to_csv",
    "records_to_json",
    "reduced_density_a",
    "schmidt_vector",
    "spectrum_from_ab",
    "summarize",
    "sweep_complex",
    "sweep_gamma",
    "sweep_real",
    "tensor_product",
    "verify_prediction",
]

__version__ = "0.1.0"
