"""The two 3x4 probe scenarios and their closed-form spectral data.

Both scenarios share a qutrit with Alice and give Bob two qubits; the
candidate operation always acts on Bob's last qubit.  Alongside the
direct state constructions, this module carries the closed-form reduced
density matrices, the off-diagonal coefficients (p, q, r), the cubic
data (A, B), and the trigonometric spectrum of the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEGENERATE_A_TOL, _cubic_roots, tensor_product
from .qubits import (
    IppParams,
    SpinLabel,
    UnitaryParams,
    apply_antiunitary,
    general_unitary,
    ipp_image,
    named_ket,
)
from .states import BipartiteState

CUBIC_DOMAIN_TOL = 1e-12
REAL_PARAM_TOL = 1e-12
SPECTRUM_SUM_TOL = 1e-10

CHI_INITIAL_SCHMIDT = np.array([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])
PI_INITIAL_SCHMIDT = np.array(
    [
        1.0 / 3.0 + 1.0 / (2.0 * math.sqrt(3.0)),
        1.0 / 3.0,
        1.0 / 3.0 - 1.0 / (2.0 * math.sqrt(3.0)),
    ]
)
# The conjugation scenario's final vector coincides with the superposition
# scenario's initial one.
CHI_FINAL_SCHMIDT = PI_INITIAL_SCHMIDT

_CHI_BRANCHES = (
    (SpinLabel.Z, SpinLabel.Z),
    (SpinLabel.X, SpinLabel.Y),
    (SpinLabel.Y, SpinLabel.X),
)
_PI_BRANCHES = (
    (SpinLabel.Z, SpinLabel.Z),
    (SpinLabel.X, SpinLabel.X),
    (SpinLabel.Y, SpinLabel.Y),
)


@dataclass(frozen=True)
class PqrCoefficients:
    """Off-diagonal entries of the final reduced density matrix, times 3."""

    p: complex
    q: complex
    r: complex


@dataclass(frozen=True)
class CubicSpectrum:
    """Roots of x^3 - 3Ax + B via x = 1 - 3*lambda, with the eigen-angle kept.

    roots holds the three x-roots in the order linalg's cubic formula labels
    them (the 2 pi/3 + angle branch first); all three are 0 when A is
    degenerate.
    """

    big_a: float
    big_b: float
    eigen_angle: float
    eigenvalues: np.ndarray
    roots: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if abs(float(np.sum(self.eigenvalues)) - 1.0) > SPECTRUM_SUM_TOL:
            raise ValueError("spectrum must sum to 1")


def _assemble(branch_kets: list[np.ndarray]) -> BipartiteState:
    """(1/sqrt(3)) sum_i |i>_A |branch_i>_B as a 3x4 bipartite state."""
    amps = np.concatenate(branch_kets) / math.sqrt(3.0)
    return BipartiteState(3, len(branch_kets[0]), amps)


def build_chi_initial() -> BipartiteState:
    """Probe state for the anti-unitary scenario."""
    return _assemble(
        [tensor_product(named_ket(l1, 0), named_ket(l2, 0)) for l1, l2 in _CHI_BRANCHES]
    )


def chi_final(p: UnitaryParams) -> BipartiteState:
    """Probe state after the anti-unitary acts on Bob's last qubit."""
    return _assemble(
        [
            tensor_product(named_ket(l1, 0), apply_antiunitary(p, named_ket(l2, 0)))
            for l1, l2 in _CHI_BRANCHES
        ]
    )


def chi_final_unitary_only(p: UnitaryParams) -> BipartiteState:
    """Probe state after only the unitary part acts (no conjugation)."""
    u = general_unitary(p)
    return _assemble(
        [
            tensor_product(named_ket(l1, 0), u @ named_ket(l2, 0))
            for l1, l2 in _CHI_BRANCHES
        ]
    )


def build_pi_initial() -> BipartiteState:
    """Probe state for the restricted superposition-map scenario."""
    return _assemble(
        [tensor_product(named_ket(l1, 0), named_ket(l2, 0)) for l1, l2 in _PI_BRANCHES]
    )


def pi_final(p: IppParams) -> BipartiteState:
    """Probe state after the superposition map acts on Bob's last qubit."""
    return _assemble(
        [
            tensor_product(named_ket(l1, 0), ipp_image(l2, p))
            for l1, l2 in _PI_BRANCHES
        ]
    )


def _density_from_off_diagonals(k01: complex, k02: complex, k12: complex) -> np.ndarray:
    """(1/3)(I + K) with K Hermitian, zero diagonal, and the given upper entries."""
    k = np.array(
        [
            [0.0, k01, k02],
            [np.conj(k01), 0.0, k12],
            [np.conj(k02), np.conj(k12), 0.0],
        ],
        dtype=complex,
    )
    return (np.eye(3) + k) / 3.0


def chi_initial_density_closed_form() -> np.ndarray:
    """Closed-form initial reduced density matrix: all six off-diagonals 1/2."""
    return _density_from_off_diagonals(0.5, 0.5, 0.5)


def chi_final_density_closed_form() -> np.ndarray:
    """Closed-form final reduced density matrix of the anti-unitary scenario."""
    return _density_from_off_diagonals(0.5, 0.5, -0.5j)


def pi_initial_density_closed_form() -> np.ndarray:
    """Closed-form initial reduced density matrix of the superposition scenario."""
    return _density_from_off_diagonals(0.5, 0.5, -0.5j)


def pi_final_density_closed_form(p: IppParams) -> np.ndarray:
    """Closed-form final reduced density matrix with off-diagonals (p, q, r)."""
    c = pqr(p)
    return _density_from_off_diagonals(c.p, c.q, c.r)


def pqr(p: IppParams) -> PqrCoefficients:
    """Off-diagonal coefficients of the final reduced density matrix.

    p is real for every valid parameter pair and Im(r) is exactly -1/2.
    """
    a, b = p.alpha, p.beta
    cross = a * np.conj(b) + b * np.conj(a)
    return PqrCoefficients(
        p=0.5 * (abs(a) ** 2 - abs(b) ** 2 + cross),
        q=0.5 * (abs(a) ** 2 + 1j * abs(b) ** 2 + a * np.conj(b) - 1j * b * np.conj(a)),
        r=0.5 * (cross - 1j),
    )


def cubic_coefficients(c: PqrCoefficients) -> tuple[float, float]:
    """Cubic data A = (|p|^2+|q|^2+|r|^2)/3 and B = p r conj(q) + conj(p r) q."""
    big_a = (abs(c.p) ** 2 + abs(c.q) ** 2 + abs(c.r) ** 2) / 3.0
    big_b = 2.0 * float((c.p * c.r * np.conj(c.q)).real)
    return float(big_a), big_b


def real_ab(alpha: float, beta: float) -> tuple[float, float]:
    """Shortcut (A, B) for real parameters, bypassing the (p, q, r) route."""
    alpha = float(alpha)
    beta = float(beta)
    if abs(alpha * alpha + beta * beta - 1.0) > REAL_PARAM_TOL:
        raise ValueError("real parameters must satisfy alpha^2 + beta^2 = 1")
    big_a = 0.25 + (2.0 * alpha**2 * beta**2 + 3.0 * alpha * beta * (alpha**2 - beta**2)) / 6.0
    big_b = (
        (beta / 4.0)
        * (alpha**2 - beta**2 + 2.0 * alpha * beta)
        * (alpha * (2.0 * alpha**2 + 1.0) + beta * (alpha**2 - beta**2))
    )
    return big_a, big_b


def spectrum_from_ab(big_a: float, big_b: float) -> CubicSpectrum:
    """Trigonometric roots lambda_k = (1/3)[1 - 2 sqrt(A) cos(...)] of the cubic.

    The eigen-angle satisfies cos(3*angle) = -B / (2 sqrt(A^3)), clamped to
    [-1, 1], with angle in [0, pi/3].  Eigenvalues are returned descending
    (the natural labeling at this angle branch puts the smallest root in
    the middle slot).  A below 1e-15 is the fully degenerate spectrum.
    """
    big_a = float(big_a)
    big_b = float(big_b)
    if big_a < 0.0:
        raise ValueError("A must be nonnegative")
    if big_a >= DEGENERATE_A_TOL and big_b * big_b > 4.0 * big_a**3 + CUBIC_DOMAIN_TOL:
        raise ValueError("B^2 exceeds 4A^3: cubic has no valid spectrum")
    angle, roots, eigenvalues = _cubic_roots(1.0, big_a, big_b)
    return CubicSpectrum(big_a, big_b, angle, eigenvalues, roots)
