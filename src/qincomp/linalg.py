"""Dense complex linear algebra: normalization and Hermitian checks, tensor
products, and a hand-written cyclic Jacobi Hermitian eigensolver.

Jacobi is one of the package's two eigen-routes; the other, the closed-form
trigonometric cubic, lives in scenarios and shares no code with it, so each
can vouch for the other.
"""

from __future__ import annotations

import functools

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
    # a huge amplitude squares to inf, which fails the check below
    with np.errstate(over="ignore"):
        sums = np.sum(np.abs(np.asarray(v)) ** 2, axis=axis)
    return bool(np.all(np.abs(sums - 1.0) <= NORM_TOL))


def is_hermitian(m: np.ndarray) -> bool:
    """True iff m, or every matrix of an (N, n, n) stack m, equals its
    conjugate transpose entrywise within HERMITIAN_TOL."""
    m = np.asarray(m, dtype=complex)
    return m.ndim in (2, 3) and m.shape[-1] == m.shape[-2] and bool(
        np.all(np.abs(m - m.conj().swapaxes(-1, -2)) <= HERMITIAN_TOL)
    )


@functools.cache
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Pivot rounds of a round-robin tournament on n indices, as row-major
    flat indices into an n x n matrix.

    Each round holds k = floor(n/2) disjoint pairs (p, q) with p < q; over
    the n - 1 (n even) or n (n odd) rounds every pair appears exactly once.
    Circle method: index 0 stays put, the others rotate one place per round;
    with n odd, a phantom index n sits out the pair it lands in.  A round is
    (gather, columns, rows): gather lists the k pivots (p, q), the k entries
    (p, p) and the k entries (q, q), then columns; columns is the (2, n, k)
    block of columns p and q, rows the (2, k, n) block of rows p and q.
    Cached per n; the arrays are read-only.
    """
    m = n + n % 2
    ring = list(range(1, m))
    line = np.arange(n)
    rounds = []
    for _ in range(m - 1):
        seats = [0, *ring]
        pairs = [sorted((seats[i], seats[m - 1 - i])) for i in range(m // 2)]
        pairs = [(p, q) for p, q in pairs if q < n]
        if pairs:
            p, q = np.array(pairs).T
            columns = np.stack([line[:, None] * n + p, line[:, None] * n + q])
            rows = np.stack([p[:, None] * n + line, q[:, None] * n + line])
            gather = np.concatenate([p * n + q, p * (n + 1), q * (n + 1), columns.ravel()])
            for index in (gather, columns, rows):
                index.flags.writeable = False
            rounds.append((gather, columns, rows))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _norms(flat: np.ndarray, n: int, off_diagonal: bool = False) -> np.ndarray:
    """Frobenius norm of each matrix of an (n*n, N) stack of row-major
    matrices, one per column, or of its off-diagonal part.  Each matrix's
    squares are summed as one contiguous row, in numpy's pairwise order."""
    squares = flat.real**2 + flat.imag**2
    if off_diagonal:
        squares[:: n + 1] = 0.0
    return np.sqrt(np.sum(np.ascontiguousarray(squares.T), axis=1))


def eigenvalues_hermitian_jacobi(
    m: np.ndarray, sweep_cap: int = JACOBI_SWEEP_CAP
) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix of an (N, n, n)
    stack, via cyclic complex Jacobi rotations.

    A sweep visits every upper-triangle pivot once, in round-robin order:
    each step annihilates floor(n/2) disjoint pivots (p, q) at once in every
    matrix still rotating, with unitary plane rotations that update only rows
    and columns p and q.  A matrix stops at the first sweep that starts with
    its off-diagonal Frobenius mass below tol = 1e-14 max(1, ||m||_F), and
    is not touched again.  Pivots of modulus at most tol/n are left alone
    (the identity rotation, c = 1 and s = 0): were every off-diagonal entry
    that small the matrix would already stop, while rotating one between
    (nearly) equal diagonal entries turns by up to 45 degrees and undoes the
    round's other work, which costs round-robin order its quadratic
    convergence on repeated eigenvalues.  So each matrix's eigenvalues do
    not depend on the rest of the stack.  The stack is held matrix-last, as
    (n*n, N), so that every step works on rows of N contiguous entries.
    Raises ValueError if any matrix is not Hermitian and
    JacobiConvergenceError if any has not stopped after sweep_cap sweeps.
    Returns eigenvalues descending along the last axis: shape (n,) for one
    matrix, (N, n) for a stack.
    """
    a = np.asarray(m, dtype=complex)
    if not is_hermitian(a):
        raise ValueError("eigenvalues_hermitian_jacobi requires a Hermitian matrix")
    single = a.ndim == 2
    stack = a[None] if single else a
    n = a.shape[-1]
    flat = stack.reshape(len(stack), n * n).T.copy()
    k = n // 2
    rounds = _round_robin(n)
    values = np.empty((len(stack), n))
    # the matrices still rotating, as their stack indices, and their stopping
    # masses: rotations keep ||a||_F fixed, so these are fixed too
    live = np.arange(len(stack))
    off_tol = JACOBI_OFF_TOL * np.maximum(1.0, _norms(flat, n))
    for sweep in range(sweep_cap + 1):
        off = _norms(flat, n, off_diagonal=True)
        rotating = off >= off_tol
        if not rotating.all():
            values[live[~rotating]] = flat[:: n + 1, ~rotating].real.T
            live, off, off_tol = live[rotating], off[rotating], off_tol[rotating]
            flat = flat[:, rotating]
        if not live.size:
            break
        if sweep == sweep_cap:
            raise JacobiConvergenceError(
                f"off-diagonal mass {np.max(off):.3e} after {sweep_cap} sweeps"
            )
        # pivots at or below this modulus get the identity rotation
        pivot_tol = off_tol / n
        # past |tau| ~ 1e154, tau * tau overflows to inf and t becomes 0, the
        # limit of 1/(2 tau); a pivot of size 0 gives nan, replaced below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for gather, columns, rows in rounds:
                picked = flat.take(gather, axis=0)
                apq = picked[:k]
                size = np.abs(apq)
                tau = (picked[2 * k : 3 * k].real - picked[k : 2 * k].real) / (2.0 * size)
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                # s e^{i arg a_pq}
                s = (t * c) * (apq / size)
                rotate = size > pivot_tol
                c = np.where(rotate, c, 1.0)
                s = np.where(rotate, s, 0.0)
                # columns p, q times J = [[c, s], [-conj(s), c]], then rows
                # p, q times J^H from the left; x - y is x + (-y) bit for bit.
                # The products with the swapped halves are made in place, so a
                # round allocates one block-sized array per update, not three.
                cross = np.concatenate([-s.conj(), s]).reshape(2, 1, k, -1)
                cols = picked[3 * k :].reshape(2, n, k, -1)
                new = c * cols
                new += np.multiply(cross, cols[::-1], out=cols[::-1])
                flat[columns] = new
                rows_pq = flat.take(rows, axis=0)
                new = c[:, None] * rows_pq
                new += np.multiply(cross.conj().swapaxes(1, 2), rows_pq[::-1], out=rows_pq[::-1])
                flat[rows] = new
    values = np.sort(values, axis=-1)[:, ::-1]
    return values[0] if single else values
