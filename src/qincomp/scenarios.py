"""The two 3x4 probe scenarios and their closed-form spectral data.

Both scenarios share a qutrit with Alice and give Bob two qubits; the
candidate operation always acts on Bob's last qubit.  A probe state is its
3x4 amplitude matrix.  Alongside the direct state constructions, this
module carries the off-diagonal coefficients (p, q, r) of the final reduced
density matrix, the cubic data (A, B) with the root of their discriminant,
and the package's one cubic-root formula: the trigonometric spectrum of the
final state, the eigen-route that shares no code with linalg's Jacobi.

The states are built from qubits' read-only axis kets, each branch naming
its two axes by the strings "x", "y" and "z".  pi_final, chi_final, pqr,
cubic_coefficients and spectrum_from_ab take scalars or equal-shape arrays
and do not check them: cli checks the user's angles and amplitudes once,
where it reads them.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import tensor_product
from .qubits import apply_antiunitary, general_unitary, ipp_image, named_ket

SPECTRUM_SUM_TOL = 1e-10

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
CHI_INITIAL_SCHMIDT = np.array([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])

# Each scenario's three branches, as the axes (l1_i, l2_i) of _amplitudes.
_CHI_BRANCHES = (("z", "z"), ("x", "y"), ("y", "x"))
_PI_BRANCHES = (("z", "z"), ("x", "x"), ("y", "y"))


def _amplitudes(branches, image) -> np.ndarray:
    """Amplitude matrices of (1/sqrt(3)) sum_i |i>_A |l1_i>|image(l2_i)>_B,
    matrix-last: shape (3, 4) + image(l2).shape[1:].

    image(l2) is a ket, or a stack of kets along its first axis, for Bob's
    last qubit.  Row i of each matrix is the Kronecker product of the +1 ket
    of axis l1_i with the i-th image.
    """
    amplitudes = np.stack([tensor_product(named_ket(l1, 0), image(l2)) for l1, l2 in branches])
    # / sqrt(3) as numpy divides complex by real, times the reciprocal, but
    # part by part at a fraction of the cost (only a zero's sign can differ)
    amplitudes.view(float)[...] *= 1.0 / math.sqrt(3.0)
    return amplitudes


def build_chi_initial() -> np.ndarray:
    """Probe state for the anti-unitary scenario."""
    return _amplitudes(_CHI_BRANCHES, lambda label: named_ket(label, 0))


def chi_final(theta: object, phi_a: object, phi_b: object) -> np.ndarray:
    """Probe state after the anti-unitary acts on Bob's last qubit, over
    equal-shape angle arrays (or scalars): shape (3, 4) + theta.shape."""
    u = general_unitary(theta, phi_a, phi_b)
    return _amplitudes(_CHI_BRANCHES, lambda label: apply_antiunitary(u, named_ket(label, 0)))


def pi_final(alpha: object, beta: object) -> np.ndarray:
    """Probe state after the superposition map acts on Bob's last qubit,
    over equal-shape amplitude arrays (or scalars): shape (3, 4) +
    alpha.shape.  Each branch ends in alpha|0_l> + beta|1_l> for its axis l.
    The amplitudes are not checked (see the module docstring)."""
    return _amplitudes(_PI_BRANCHES, lambda label: ipp_image(label, alpha, beta))


def pqr(a: object, b: object) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Off-diagonal coefficients (p, q, r) of the final reduced density
    matrix, times 3, over amplitude arrays (or scalars) alpha = a, beta = b.

    p is real for every valid amplitude pair and Im(r) is exactly -1/2.
    The amplitudes are not checked (see the module docstring).
    """
    cross = a * np.conj(b) + b * np.conj(a)
    return (
        0.5 * (np.abs(a) ** 2 - np.abs(b) ** 2 + cross),
        0.5 * (np.abs(a) ** 2 + 1j * np.abs(b) ** 2 + a * np.conj(b) - 1j * b * np.conj(a)),
        0.5 * (cross - 1j),
    )


def cubic_coefficients(p: object, q: object, r: object) -> tuple[np.ndarray, np.ndarray]:
    """Cubic data A = (|p|^2+|q|^2+|r|^2)/3 and B = p r conj(q) + conj(p r) q,
    over arrays (or scalars) of p, q, r."""
    big_a = (np.abs(p) ** 2 + np.abs(q) ** 2 + np.abs(r) ** 2) / 3.0
    return big_a, 2.0 * (p * r * np.conj(q)).real


def _discriminant_root(p, q, r, big_a: np.ndarray, big_b: np.ndarray) -> np.ndarray:
    """sqrt(4A^3 - B^2) over arrays of p, q, r and their cubic data, free of
    cancellation: K = 3 rho_final - I (zero diagonal, upper entries p, q, r)
    projected off span{I, K} is R = K^2 - 2A I - (B/2A) K, and
    4A^3 - B^2 = (2A/3) ||R||_F^2, where each entry of R is exactly 0 at a
    double root.  A >= 1/12, so dividing by A is safe."""
    pp, qq, rr = np.abs(p) ** 2, np.abs(q) ** 2, np.abs(r) ** 2
    two_a, b_over_2a = 2.0 * big_a, big_b / (2.0 * big_a)
    diagonal = (pp + qq - two_a) ** 2 + (pp + rr - two_a) ** 2 + (qq + rr - two_a) ** 2
    upper = (
        np.abs(q * np.conj(r) - b_over_2a * p) ** 2
        + np.abs(p * r - b_over_2a * q) ** 2
        + np.abs(np.conj(p) * q - b_over_2a * r) ** 2
    )
    return np.sqrt(two_a / 3.0 * (diagonal + 2.0 * upper))


def spectrum_from_ab(big_a: np.ndarray, big_b: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Trigonometric spectrum of the cubic over equal-shape arrays of (A, B)
    and of the root sqrt(4A^3 - B^2) of their discriminant: with 3 angle =
    atan2(root, -B), the cubic's roots are x = 2 sqrt(A) cos(angle + 2 pi
    k/3), and the eigenvalues (1 - x)/3 are returned, descending along a new
    last axis that is held point-last (as the first axis of a C-contiguous
    array), ordered by a compare-exchange network: np.sort's values for any
    input without NaN.  ValueError unless every spectrum sums to 1, as a nan
    or inf discriminant root does not."""
    angle = np.arctan2(root, -big_b) / 3.0
    third = 2.0 * math.pi / 3.0
    cosines = np.cos(np.stack([third + angle, angle, third - angle]))
    lam = (1.0 - 2.0 * np.sqrt(big_a) * cosines) / 3.0
    top, low = np.maximum(lam[0], lam[1]), np.minimum(lam[0], lam[1])
    mid = np.minimum(top, lam[2])
    descending = [np.maximum(top, lam[2]), np.maximum(low, mid), np.minimum(low, mid)]
    eigenvalues = np.moveaxis(np.stack(descending), 0, -1)
    # a nan sum fails this comparison, so it is refused too
    if not np.all(np.abs(np.sum(eigenvalues, axis=-1) - 1.0) <= SPECTRUM_SUM_TOL):
        raise ValueError("spectrum must sum to 1")
    return eigenvalues
