"""Dense complex linear algebra: two kernels that do not check their stated
preconditions: the tensor product of a ket with a ket or a stack of kets,
and a hand-written cyclic Jacobi Hermitian eigensolver, which stops a
matrix by its off-diagonal mass or by the Kato-Temple bound, both relative
to its norm.

Jacobi is one of the package's two eigen-routes; the other, the closed-form
trigonometric cubic, lives in scenarios and shares no code with it, so each
can vouch for the other.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

JACOBI_OFF_TOL = 1e-14
JACOBI_SWEEP_CAP = 100


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi iteration hit its sweep cap before converging."""


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the ket a with the ket b, or with each ket of a
    stack b of kets along its first axis: entry i*dim(b)+j is a_i*b_j.  The
    kets are not checked: the probe kets are built from named_ket constants
    and from amplitudes that cli checks once, where it reads them."""
    a, b = np.asarray(a), np.asarray(b)
    return np.multiply.outer(a, b).reshape((len(a) * len(b),) + b.shape[1:])


@functools.cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), the pairs i < j, cached per n; read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


class _BuiltMoves(Sequence):
    """Flat moves, each built from its (n,) row move when read: O(n^2) bytes, not 8 n^3."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int | slice) -> np.ndarray | _BuiltMoves:
        rows = self.rows[index]
        if rows.ndim == 2:
            return _BuiltMoves(rows)
        move = (rows[:, None] * len(rows) + rows).ravel()
        move.flags.writeable = False
        return move


@functools.cache
def _round_robin(n: int) -> Sequence[np.ndarray]:
    """Flat permutations that move an (n*n, N) stack of row-major matrices
    through the rounds of a round-robin tournament on n indices.

    Each round holds k = floor(n/2) disjoint pairs (p, q) with p < q; over
    the n - 1 (n even) or n (n odd) rounds every pair appears exactly once.
    Circle method: index 0 stays put, the others rotate one place per round;
    with n odd, a phantom index n sits out the pair it lands in.  A round's
    order lists its pairs' p0 .. p(k-1), then their q0 .. q(k-1), then the
    index that sits out (n odd), so in every round pair j sits at positions
    (j, k + j) and its pivot a_pq at the same flat index (see _round_views).
    The moves are indices for np.take along axis 0: canonical order to
    round 0, round r to round r + 1, and the last round back to canonical
    order, so a sweep's moves compose to the identity.  Cached per n; the
    arrays are read-only.  Above n = 32 each is built as read (_BuiltMoves).
    """
    m = n + n % 2
    ring = list(range(1, m))
    orders = [np.arange(n)]
    for _ in range(m - 1):
        seats = [0, *ring]
        pairs = [sorted((seats[i], seats[m - 1 - i])) for i in range(m // 2)]
        pairs = [(p, q) for p, q in pairs if q < n]
        if pairs:
            order = [p for p, _ in pairs] + [q for _, q in pairs]
            orders.append(np.array(order + sorted(set(range(n)) - set(order))))
        ring = ring[-1:] + ring[:-1]
    orders.append(orders[0])
    rows = np.array([np.argsort(before)[after] for before, after in zip(orders, orders[1:])])
    rows.flags.writeable = False
    return tuple(_BuiltMoves(rows)) if n <= 32 else _BuiltMoves(rows)


def _round_views(flat: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The views of a C-contiguous (n*n, N) stack, held in a round's order,
    that a Jacobi round reads and writes, with k = floor(n/2): the (k, N)
    pivots a_pq (the first k entries of the k-th superdiagonal) and the
    real parts of a_pp and a_qq (diagonal entries 0 .. k-1 and k .. 2k-1);
    columns p, q as an (n, 2, k, N) block and rows p, q as a (2, k, n, N)
    one, each as its float pairs (for N = 1 the rows as (2, k, 2n), so that
    c (k, 1) scales a row as one run of 2n floats) and with its halves swapped.
    For n odd the column block skips a column in every row; numpy adds
    such complex blocks several times slower than the same bytes as
    floats, and a complex sum is the float sums of its parts, bit for bit.
    """
    width = flat.shape[1]
    k = n // 2
    diagonal = flat[:: n + 1]
    square = flat.reshape(n, n, width)
    columns = square[:, : 2 * k].reshape(n, 2, k, width, copy=False)
    rows = square[: 2 * k].reshape(2, k, n, width)
    row_floats = (2, k, 2 * n) if width == 1 else (2, k, n, 2 * width)
    return (
        flat[k :: n + 1][:k], diagonal[:k].real, diagonal[k : 2 * k].real,
        columns.view(float), columns[:, ::-1], rows.view(float).reshape(row_floats), rows[::-1],
    )


def _norms(flat: np.ndarray, n: int, off_diagonal: bool = False) -> np.ndarray:
    """Frobenius norm of each matrix of an (n*n, N) stack of row-major
    matrices, one per column, or of its off-diagonal part.  Each matrix's
    squares are summed in row-major order, one entry after another."""
    squares = np.square(flat.real)
    squares += np.square(flat.imag)
    if off_diagonal:
        squares[:: n + 1] = 0.0
    return np.sqrt(np.sum(squares, axis=0))


def eigenvalues_hermitian_jacobi(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix of an (n, n, N)
    stack, via cyclic complex Jacobi rotations.

    A sweep visits every upper-triangle pivot once, in round-robin order:
    each step annihilates floor(n/2) disjoint pivots (p, q) at once in every
    matrix, with unitary plane rotations that update only rows and columns
    p and q.  A matrix's eigenvalues are its diagonal at the first sweep
    that starts with its off-diagonal Frobenius mass eps at most
    b = 1e-14 ||m||_F, or with delta > 2 eps and eps^2 <= b (delta - eps)
    for the least gap delta between its diagonal entries: then by Weyl, or
    by Kato-Temple, each eigenvalue is within eps, or eps^2 / (delta - eps),
    <= b of its diagonal entry, a bound relative to the matrix.  delta <=
    2 ||m||_F, so delta is computed only in sweeps where some eps^2 <= 2 b
    ||m||_F.  Pivots of modulus at most b/n are left alone (the identity
    rotation, c = 1 and s = 0): were every off-diagonal entry that small
    the matrix would already stop, while rotating one between (nearly)
    equal diagonal entries turns by up to 45 degrees and undoes the round's
    other work, which costs round-robin order its quadratic convergence on
    repeated eigenvalues.  A stopped matrix may go on rotating with the
    rest of the stack, but its eigenvalues are already recorded, and every
    step acts on each matrix alone, so they do not depend on the rest of
    the stack.  The stack is read matrix-last, as (n*n, N), so that every
    step works on rows of N contiguous entries.  During a round it is held
    in that round's order (see _round_robin), so the pivots sit at fixed
    places and the column and row updates write into fixed views of it (see
    _round_views); one ndarray.take moves it into the other of two buffers
    in the next round's order, and the stop test reads it in canonical order.
    The buffers are made once per call; m is only read, and is not checked
    to be Hermitian, as numpy.linalg.eigvalsh does not check it: each Gram
    matrix the package builds is its own conjugate transpose exactly.  Each
    matrix is run scaled by the power of two that brings its largest real
    or imaginary part into [1/2, 1), so that ||m||_F^2 neither overflows
    nor goes subnormal, and its eigenvalues and sweep-cap mass are scaled
    back.  Every step commutes with scaling by a power of two, which is
    exact outside the subnormal range, so the scale changes no bits there.
    Raises ValueError if an entry is NaN or inf, and JacobiConvergenceError
    if any matrix has not stopped after JACOBI_SWEEP_CAP sweeps.
    Returns eigenvalues descending along the last axis: shape (n,) for one
    matrix, (N, n) for a stack, held point-last (its transpose is
    C-contiguous), so that each eigenvalue index is a contiguous row.
    """
    a = np.ascontiguousarray(m, dtype=complex)
    n, count = a.shape[0], 1 if a.ndim == 2 else a.shape[2]
    k = n // 2
    moves = _round_robin(n)
    # two stacks that the rounds write in turn, and their round views; a
    # sweep reads flat from the second (side = 1), so m goes there, each
    # matrix scaled by 2^-shift, after the |parts| have been put there to
    # find each matrix's largest, so that no other block-sized array is made;
    # as floats, each entry's real and imaginary parts are adjacent columns
    side = 1
    stacks = [(stack, _round_views(stack, n)) for stack in np.empty((2, n * n, count), complex)]
    flat = stacks[1][0]
    parts, source = flat.view(float), a.reshape(n * n, count).view(float)
    peak = np.max(np.abs(source, out=parts), axis=0)
    shift = np.frexp(np.maximum(peak[0::2], peak[1::2]))[1]
    np.ldexp(source, np.repeat(-shift, 2), out=parts)
    # the stop bound, and the pivot size below which a pivot is left alone:
    # rotations keep ||a||_F fixed, so these are fixed too
    bound = JACOBI_OFF_TOL * _norms(flat, n)
    if not np.isfinite(bound).all():
        raise ValueError("eigenvalues_hermitian_jacobi requires finite entries")
    pivot_tol = bound / n
    near_bound = bound * np.sqrt(2.0 / JACOBI_OFF_TOL)
    values = np.empty((n, count))
    done = np.zeros(count, dtype=bool)
    # the swapped halves' products, one block for the columns and one for the
    # rows, its floats shaped as a stack's view 5; the real rotation parameters,
    # contiguous, as a numpy call on strided operands costs about twice as
    # much, and ones, cheaper a call than 1.0; c twice per pivot, to scale
    # float pairs (as a complex product would, but for the signs of zeros), or
    # c for one matrix's rows; the identity-rotation pairs; cross = (-conj(s), s)
    work = np.empty(2 * k * n * count, dtype=complex)
    column_products, row_products = work.reshape(n, 2, k, count), work.reshape(2, k, n, count)
    column_product_floats = column_products.view(float)
    row_product_floats = work.view(float).reshape(stacks[0][1][5].shape)
    size, tau, t, c = np.empty((4, k, count))
    ones = np.ones((k, count))
    c_twice = np.empty((k, count, 2))
    c_columns, c_rows = c_twice.reshape(k, 2 * count), c if count == 1 else c_twice.reshape(k, 1, 2 * count)
    idle = np.empty((k, count), dtype=bool)
    cross = np.empty((2, k, count), dtype=complex)
    s, cross_rows = cross[1], cross[:, :, None]
    # past |tau| ~ 1e154, tau * tau overflows to inf and t becomes 0, the
    # limit of 1/(2 tau); a pivot of size 0 gives nan, replaced below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sweep in range(JACOBI_SWEEP_CAP + 1):
            off = _norms(flat, n, off_diagonal=True)
            # strict, so that a zero matrix stops; a nan mass stops too
            rotating = off > bound
            near = rotating & (off <= near_bound)
            diagonal = flat[:: n + 1].real
            if near.any():
                i, j = _upper_pairs(n)
                gap = np.min(np.abs(diagonal[i] - diagonal[j]), axis=0) - off
                rotating &= ~(near & (gap > off) & (off * off <= bound * gap))
            if not rotating.all():
                stopping = ~(rotating | done)
                np.copyto(values, diagonal, where=stopping)
                done |= stopping
            if done.all():
                break
            if sweep == JACOBI_SWEEP_CAP:
                mass = np.max(np.ldexp(off, shift)[~done])
                raise JacobiConvergenceError(f"off-diagonal mass {mass:.3e} after {JACOBI_SWEEP_CAP} sweeps")
            # with out=, take's default mode="raise" fills a temporary first;
            # the moves are valid indices, so "clip" changes nothing else
            flat.take(moves[0], axis=0, out=stacks[1 - side][0], mode="clip")
            for move in moves[1:]:
                side = 1 - side
                apq, app, aqq, column_floats, columns_swapped, row_floats, rows_swapped = stacks[side][1]
                # tau = (a_qq - a_pp) / (2 |a_pq|),
                # t = sign(tau) / (|tau| + sqrt(1 + tau^2)),
                # c = 1 / sqrt(1 + t^2) and s = (t c) (a_pq / |a_pq|),
                # each operation in this order, into reused buffers
                np.abs(apq, out=size)
                np.subtract(aqq, app, out=tau)
                np.divide(tau, np.add(size, size, out=c), out=tau)
                np.sqrt(np.add(ones, np.multiply(tau, tau, out=c), out=c), out=c)
                np.add(np.abs(tau, out=t), c, out=c)
                np.divide(np.copysign(ones, tau, out=t), c, out=t)
                np.sqrt(np.add(ones, np.multiply(t, t, out=tau), out=tau), out=tau)
                np.divide(ones, tau, out=c)
                np.multiply(np.multiply(t, c, out=t), np.divide(apq, size, out=s), out=s)
                np.less_equal(size, pivot_tol, out=idle)
                np.putmask(c, idle, 1.0)
                np.putmask(s, idle, 0.0)
                c_twice[..., 0] = c
                c_twice[..., 1] = c
                np.negative(np.conjugate(s, out=cross[0]), out=cross[0])
                # columns p, q times J = [[c, s], [-conj(s), c]], then rows
                # p, q times J^H from the left: c x + cross (swapped x), with
                # cross conjugated for the rows; x - y is x + (-y) bit for bit
                np.multiply(cross, columns_swapped, out=column_products)
                np.multiply(c_columns, column_floats, out=column_floats)
                np.add(column_floats, column_product_floats, out=column_floats)
                np.conjugate(cross, out=cross)
                np.multiply(cross_rows, rows_swapped, out=row_products)
                np.multiply(c_rows, row_floats, out=row_floats)
                np.add(row_floats, row_product_floats, out=row_floats)
                stacks[side][0].take(move, axis=0, out=stacks[1 - side][0], mode="clip")
            side = 1 - side
            flat = stacks[side][0]
    values = np.ascontiguousarray(np.sort(np.ldexp(values, shift, out=values), axis=0)[::-1]).T
    return values[0] if a.ndim == 2 else values
