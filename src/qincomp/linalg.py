"""Dense complex linear algebra with two independent Hermitian eigensolvers.

The trigonometric solver evaluates the closed-form roots of the 3x3
characteristic cubic; the cyclic Jacobi solver diagonalizes by plane
rotations.  They share no code so each can vouch for the other.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
DEGENERATE_A_TOL = 1e-15
JACOBI_OFF_TOL = 1e-14
JACOBI_SWEEP_CAP = 100


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi iteration hit its sweep cap before converging."""


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two normalized kets; entry i*dim(b)+j is a_i*b_j."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for v in (a, b):
        if not is_normalized(v):
            raise ValueError("tensor_product operands must be normalized kets")
    return np.kron(a, b)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def is_normalized(v: np.ndarray, tol: float = NORM_TOL) -> bool:
    """True iff the squared-modulus sum of v is 1 within tol."""
    return abs(float(np.sum(np.abs(np.asarray(v)) ** 2)) - 1.0) <= tol


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True iff m equals its conjugate transpose entrywise within tol."""
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(
        np.max(np.abs(m - m.conj().T)) <= tol
    )


def _require_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError(f"{what} requires a Hermitian matrix")
    return m


def _det3(m: np.ndarray) -> complex:
    """Cofactor expansion of a 3x3 determinant (keeps this path LAPACK-free)."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _cubic_roots(
    t: float, big_a: float, big_b: float
) -> tuple[float, tuple[float, float, float], np.ndarray]:
    """Roots of x^3 - 3Ax + B and the eigenvalues (t - x)/3 they label.

    Returns the eigen-angle, with cos(3*angle) = -B / (2 sqrt(A^3)) clamped
    to [-1, 1] and angle in [0, pi/3]; the roots 2 sqrt(A) cos(2 pi/3 + angle),
    2 sqrt(A) cos(angle) and 2 sqrt(A) cos(2 pi/3 - angle), in that order; and
    the eigenvalues descending.  A below 1e-15 is the fully degenerate
    spectrum: angle 0, roots 0, every eigenvalue t/3.
    """
    if big_a < DEGENERATE_A_TOL:
        return 0.0, (0.0, 0.0, 0.0), np.full(3, t / 3.0)
    cos3 = np.clip(-big_b / (2.0 * math.sqrt(big_a**3)), -1.0, 1.0)
    angle = float(np.arccos(cos3)) / 3.0
    root = 2.0 * math.sqrt(big_a)
    xs = (
        root * math.cos(2.0 * math.pi / 3.0 + angle),
        root * math.cos(angle),
        root * math.cos(2.0 * math.pi / 3.0 - angle),
    )
    return angle, xs, np.sort([(t - x) / 3.0 for x in xs])[::-1]


def eigenvalues_hermitian_trig(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix via the trigonometric cubic formula.

    Shifts to traceless form D0 = m - (t/3)I, writes the characteristic
    polynomial as x^3 - 3Ax + B with x = t - 3*lambda, A = (3/2)tr(D0^2),
    B = 27 det(D0), and evaluates the three cosine roots.  The arccos
    argument is clamped to [-1, 1].  Returns eigenvalues descending.
    If A < 1e-15 the matrix is a scalar multiple of the identity up to
    noise and the common diagonal value t/3 is returned three times.
    """
    m = _require_hermitian(m, "eigenvalues_hermitian_trig")
    if m.shape != (3, 3):
        raise ValueError("eigenvalues_hermitian_trig requires a 3x3 matrix")
    t = float(np.trace(m).real)
    d0 = m - (t / 3.0) * np.eye(3)
    # tr(D0^2) = ||D0||_F^2 for Hermitian D0
    big_a = 1.5 * float(np.sum(np.abs(d0) ** 2))
    big_b = float(_det3(d0).real) * 27.0
    return _cubic_roots(t, big_a, big_b)[2]


def _off_diagonal_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m - np.diag(np.diag(m))))


def eigenvalues_hermitian_jacobi(
    m: np.ndarray, sweep_cap: int = JACOBI_SWEEP_CAP
) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via cyclic complex Jacobi rotations.

    Sweeps all upper-triangle pivots, annihilating each with a unitary
    plane rotation, until the off-diagonal Frobenius mass drops below
    1e-14 times max(1, ||m||_F).  Raises JacobiConvergenceError if
    sweep_cap is exhausted.  Returns eigenvalues descending.
    """
    a = _require_hermitian(m, "eigenvalues_hermitian_jacobi").copy()
    n = a.shape[0]
    # rotations keep ||a||_F fixed, so the stopping mass is fixed too
    off_tol = JACOBI_OFF_TOL * max(1.0, float(np.linalg.norm(a)))
    for _ in range(sweep_cap):
        if _off_diagonal_norm(a) < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                phase = apq / abs(apq)
                # Python floats: past |tau| ~ 1e154, tau * tau becomes inf
                # without an overflow warning and t becomes 0, the limit of
                # 1/(2 tau); math.hypot would round differently elsewhere
                tau = float(a[q, q].real - a[p, p].real) / (2.0 * float(abs(apq)))
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                g = np.eye(n, dtype=complex)
                g[p, p] = c
                g[p, q] = s * phase
                g[q, p] = -s * np.conj(phase)
                g[q, q] = c
                a = g.conj().T @ a @ g
    if _off_diagonal_norm(a) >= off_tol:
        raise JacobiConvergenceError(
            f"off-diagonal mass {_off_diagonal_norm(a):.3e} after {sweep_cap} sweeps"
        )
    return np.sort(np.diag(a).real)[::-1]
