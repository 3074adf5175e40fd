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
        if v.ndim != 1 or not is_normalized(v):
            raise ValueError("tensor_product operands must be normalized kets")
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tensor_product over stacks, unchecked: kets along the last axis of a
    and b, leading axes broadcast."""
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def is_normalized(v: np.ndarray, tol: float = NORM_TOL, axis: object = None) -> bool:
    """True iff the squared-modulus sum of v is 1 within tol; with axis (an
    int or a tuple, as numpy takes it), iff every sum along it is."""
    sums = np.sum(np.abs(np.asarray(v)) ** 2, axis=axis)
    return bool(np.all(np.abs(sums - 1.0) <= tol))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True iff m, or every matrix of an (N, n, n) stack m, equals its
    conjugate transpose entrywise within tol."""
    m = np.asarray(m, dtype=complex)
    return m.ndim in (2, 3) and m.shape[-1] == m.shape[-2] and bool(
        np.all(np.abs(m - m.conj().swapaxes(-1, -2)) <= tol)
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
    t: float, big_a: np.ndarray, big_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of x^3 - 3Ax + B and the eigenvalues (t - x)/3 they label.

    Takes scalars or equal-shape arrays of A and B.  Returns the eigen-angle,
    with cos(3*angle) = -B / (2 sqrt(A^3)) clamped to [-1, 1] and angle in
    [0, pi/3]; the roots 2 sqrt(A) cos(2 pi/3 + angle), 2 sqrt(A) cos(angle)
    and 2 sqrt(A) cos(2 pi/3 - angle), in that order along a new last axis;
    and the eigenvalues descending along that axis.  A below 1e-15 is the
    fully degenerate spectrum: angle 0, roots 0, every eigenvalue t/3.
    """
    big_a = np.asarray(big_a, dtype=float)
    degenerate = big_a < DEGENERATE_A_TOL
    # A = 1 on degenerate entries keeps the formula finite; they are reset below
    safe_a = np.where(degenerate, 1.0, big_a)
    cos3 = np.clip(-np.asarray(big_b, dtype=float) / (2.0 * np.sqrt(safe_a**3)), -1.0, 1.0)
    angle = np.where(degenerate, 0.0, np.arccos(cos3) / 3.0)
    root = 2.0 * np.sqrt(safe_a)
    third = 2.0 * math.pi / 3.0
    cosines = np.cos(np.stack([third + angle, angle, third - angle], axis=-1))
    roots = np.where(degenerate[..., None], 0.0, root[..., None] * cosines)
    return angle, roots, np.sort((t - roots) / 3.0, axis=-1)[..., ::-1]


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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pivot rounds of a round-robin tournament on n indices.

    Each round holds floor(n/2) disjoint pairs (p, q) with p < q, as index
    arrays P and Q; over the n - 1 (n even) or n (n odd) rounds every pair
    appears exactly once.  Circle method: index 0 stays put, the others
    rotate one place per round; with n odd, a phantom index n sits out the
    pair it lands in.
    """
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        seats = [0, *ring]
        pairs = [sorted((seats[i], seats[m - 1 - i])) for i in range(m // 2)]
        pairs = [(p, q) for p, q in pairs if q < n]
        if pairs:
            rounds.append((np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])))
        ring = ring[-1:] + ring[:-1]
    return rounds


def _norms(a: np.ndarray, off_diagonal: bool = False) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, or of its off-diagonal part."""
    squares = a.real**2 + a.imag**2
    if off_diagonal:
        diagonal = np.arange(a.shape[-1])
        squares[:, diagonal, diagonal] = 0.0
    return np.sqrt(np.sum(squares.reshape(len(a), -1), axis=1))


def eigenvalues_hermitian_jacobi(
    m: np.ndarray, sweep_cap: int = JACOBI_SWEEP_CAP
) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix of an (N, n, n)
    stack, via cyclic complex Jacobi rotations.

    A sweep visits every upper-triangle pivot once, in round-robin order:
    each step annihilates floor(n/2) disjoint pivots (p, q) at once in every
    matrix of the stack, with unitary plane rotations that update only rows
    and columns p and q.  A matrix stops at the first sweep that starts with
    its off-diagonal Frobenius mass below tol = 1e-14 max(1, ||m||_F).
    Pivots of modulus at most tol/n are left alone: were every off-diagonal
    entry that small the matrix would already stop, while rotating one
    between (nearly) equal diagonal entries turns by up to 45 degrees and
    undoes the round's other work, which costs round-robin order its
    quadratic convergence on repeated eigenvalues.  A stopped matrix, and a
    pivot left alone, gets the identity rotation (c = 1, s = 0), which
    leaves the matrix unchanged, so each matrix's eigenvalues do not depend
    on the rest of the stack.  Raises ValueError if any matrix is not
    Hermitian and JacobiConvergenceError if any has not stopped after
    sweep_cap sweeps.  Returns eigenvalues descending along the last axis:
    shape (n,) for one matrix, (N, n) for a stack.
    """
    a = _require_hermitian(m, "eigenvalues_hermitian_jacobi")
    single = a.ndim == 2
    a = a[None].copy() if single else a.copy()
    n = a.shape[-1]
    # rotations keep ||a||_F fixed, so the stopping mass is fixed too
    off_tol = JACOBI_OFF_TOL * np.maximum(1.0, _norms(a))
    rounds = _round_robin(n)
    for _ in range(sweep_cap):
        active = _norms(a, off_diagonal=True) >= off_tol
        if not active.any():
            break
        # pivots at or below this modulus get the identity rotation
        pivot_tol = np.where(active, off_tol / n, np.inf)[:, None]
        # past |tau| ~ 1e154, tau * tau overflows to inf and t becomes 0,
        # the limit of 1/(2 tau)
        with np.errstate(over="ignore"):
            for p, q in rounds:
                apq = a[:, p, q]
                size = np.abs(apq)
                rotate = size > pivot_tol
                size = np.where(rotate, size, 1.0)
                tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * size)
                t = np.where(
                    tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                )
                c = np.where(rotate, 1.0 / np.sqrt(1.0 + t * t), 1.0)
                # s e^{i arg a_pq}, zero for the identity rotation
                s = np.where(rotate, t * c, 0.0) * (apq / size)
                col_c, col_s = c[:, None, :], s[:, None, :]
                col_p, col_q = a[:, :, p], a[:, :, q]
                a[:, :, p] = col_c * col_p - col_s.conj() * col_q
                a[:, :, q] = col_s * col_p + col_c * col_q
                row_c, row_s = c[:, :, None], s[:, :, None]
                row_p, row_q = a[:, p, :], a[:, q, :]
                a[:, p, :] = row_c * row_p - row_s * row_q
                a[:, q, :] = row_s.conj() * row_p + row_c * row_q
    off = _norms(a, off_diagonal=True)
    if np.any(off >= off_tol):
        raise JacobiConvergenceError(
            f"off-diagonal mass {np.max(off):.3e} after {sweep_cap} sweeps"
        )
    values = np.sort(np.diagonal(a, axis1=1, axis2=2).real, axis=-1)[:, ::-1]
    return values[0] if single else values
