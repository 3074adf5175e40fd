"""Dense complex linear algebra: normalization and Hermitian checks, tensor
products, and a hand-written cyclic Jacobi Hermitian eigensolver.

Jacobi is one of the package's two eigen-routes; the other, the closed-form
trigonometric cubic, lives in scenarios and shares no code with it, so each
can vouch for the other.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
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


def is_normalized(v: np.ndarray, axis: object = None) -> bool:
    """True iff the squared-modulus sum of v is 1 within NORM_TOL; with axis
    (an int or a tuple, as numpy takes it), iff every sum along it is."""
    sums = np.sum(np.abs(np.asarray(v)) ** 2, axis=axis)
    return bool(np.all(np.abs(sums - 1.0) <= NORM_TOL))


def is_hermitian(m: np.ndarray) -> bool:
    """True iff m, or every matrix of an (N, n, n) stack m, equals its
    conjugate transpose entrywise within HERMITIAN_TOL."""
    m = np.asarray(m, dtype=complex)
    return m.ndim in (2, 3) and m.shape[-1] == m.shape[-2] and bool(
        np.all(np.abs(m - m.conj().swapaxes(-1, -2)) <= HERMITIAN_TOL)
    )


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
    a = np.asarray(m, dtype=complex)
    if not is_hermitian(a):
        raise ValueError("eigenvalues_hermitian_jacobi requires a Hermitian matrix")
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
