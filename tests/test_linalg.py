"""Tests for the complex linear algebra layer and the Jacobi eigensolver."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import jacobi_reference, spectrum_at
from qincomp import linalg
from qincomp.linalg import (
    JACOBI_OFF_TOL,
    JACOBI_SWEEP_CAP,
    JacobiConvergenceError,
    _round_robin,
    _round_views,
    _upper_pairs,
    eigenvalues_hermitian_jacobi,
    tensor_product,
)
from qincomp.scenarios import chi_final, pi_final, spectrum_from_ab
from qincomp.states import reduced_density_a, schmidt_vector
from qincomp.sweep import _grid_angles

SQ2 = 1.0 / math.sqrt(2.0)
KET_0X = np.array([SQ2, SQ2], dtype=complex)
KET_0Y = np.array([SQ2, SQ2 * 1j], dtype=complex)
KET_0Z = np.array([1.0, 0.0], dtype=complex)


def density_from_off_diagonals(k01, k02, k12):
    k = np.array(
        [[0, k01, k02], [np.conj(k01), 0, k12], [np.conj(k02), np.conj(k12), 0]],
        dtype=complex,
    )
    return (np.eye(3) + k) / 3.0


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def test_tensor_product_basis_case():
    out = tensor_product(KET_0Z, KET_0Z)
    np.testing.assert_allclose(out, [1, 0, 0, 0], atol=1e-15)


def test_tensor_product_x_with_z():
    out = tensor_product(KET_0X, KET_0Z)
    np.testing.assert_allclose(out, [SQ2, 0, SQ2, 0], atol=1e-15)


def test_tensor_product_x_with_y():
    out = tensor_product(KET_0X, KET_0Y)
    np.testing.assert_allclose(out, [0.5, 0.5j, 0.5, 0.5j], atol=1e-15)


def test_tensor_product_preserves_normalization():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert abs(np.sum(np.abs(tensor_product(a, b)) ** 2) - 1.0) <= 1e-12


def test_tensor_product_over_stacks():
    # a lone ket against a stack of kets along its first axis, and an empty
    # stack keeps the width of its kets' products
    rng = np.random.default_rng(11)
    b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    np.testing.assert_array_equal(tensor_product(KET_0X, b)[:, 3], np.kron(KET_0X, b[:, 3]))
    assert tensor_product(KET_0X, np.ones((2, 3, 0))).shape == (4, 3, 0)


class TestJacobiSolver:
    def test_diagonal_input(self):
        np.testing.assert_allclose(
            eigenvalues_hermitian_jacobi(np.diag([3.0, 1.0, 2.0])), [3, 2, 1], atol=0
        )

    def test_all_half_off_diagonals(self):
        rho = density_from_off_diagonals(0.5, 0.5, 0.5)
        np.testing.assert_allclose(
            eigenvalues_hermitian_jacobi(rho), [2 / 3, 1 / 6, 1 / 6], atol=1e-12
        )

    def test_agrees_with_trig_on_random_hermitian(self):
        # reference: the trigonometric cubic formula of spectrum_from_ab, fed
        # the traceless part D of m scaled to ||D||_F = 1 (so A = 3/2) and
        # shifted to trace 1; B = 27 det(D0)
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = random_hermitian(rng, 3)
            mean = float(np.trace(m).real) / 3.0
            d = m - mean * np.eye(3)
            scale = float(np.linalg.norm(d))
            d0 = d / scale
            big_a = 1.5 * float(np.sum(np.abs(d0) ** 2))
            big_b = 27.0 * float(np.linalg.det(d0).real)
            lambdas = np.array(spectrum_at(big_a, big_b))
            np.testing.assert_allclose(
                eigenvalues_hermitian_jacobi(m),
                mean + scale * (lambdas - 1.0 / 3.0),
                atol=1e-10,
            )

    def test_agrees_with_library_solver_on_larger_sizes(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                m = random_hermitian(rng, n)
                np.testing.assert_allclose(
                    eigenvalues_hermitian_jacobi(m),
                    np.sort(np.linalg.eigvalsh(m))[::-1],
                    atol=1e-10,
                )

    def test_scaled_matrices_match_library_solver(self):
        # both stop rules are relative to ||m||_F, so large matrices
        # converge and small ones do not stop early; each matrix runs scaled
        # by its own power of two, so ||m||_F^2 overflows at no scale, 1e155
        # and 1e300 included.  A product X D X^H at scale 1e6 is Hermitian
        # only up to its rounding, which leaves its entries 1e-10 to 4e-9
        # (about 1e-16 relative) off their conjugates
        rng = np.random.default_rng(29)
        matrices = [
            scale * random_hermitian(rng, n)
            for scale in (1e-300, 1e-200, 1e-160, 1e-150, 1e-10, 1e3, 1e6, 1e150, 1e155, 1e300)
            for n in (3, 4, 5)
            for _ in range(25)
        ]
        products = []
        for n in (3, 4, 5):
            for _ in range(40):
                x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                products.append(1e6 * (x * rng.normal(size=n)) @ x.conj().T)
        assert max(np.max(np.abs(m - m.conj().T)) for m in products) > 1e-10
        for m in matrices + products:
            expected = np.sort(np.linalg.eigvalsh(m))[::-1]
            np.testing.assert_allclose(
                eigenvalues_hermitian_jacobi(m),
                expected,
                rtol=0,
                atol=1e-12 * np.max(np.abs(expected)),
            )

    def test_scaling_by_a_power_of_two_scales_the_eigenvalues_exactly(self):
        # each matrix runs at its own power of two, so 2^k m has 2^k times
        # the eigenvalues of m, bit for bit and sign of zero included, alone
        # and in a stack, far below 1 and far past where ||m||_F^2 overflows
        rng = np.random.default_rng(53)
        powers = (-1000, -600, -1, 1, 500, 600, 1000)
        for n in (3, 4, 5, 24):
            m = random_hermitian(rng, n)
            values = eigenvalues_hermitian_jacobi(m)
            scaled = [power_of_two_times(m, power) for power in powers]
            rows = eigenvalues_hermitian_jacobi(as_stack(scaled))
            for power, matrix, row in zip(powers, scaled, rows):
                same_bits(eigenvalues_hermitian_jacobi(matrix), np.ldexp(values, power))
                same_bits(row, np.ldexp(values, power))

    def test_rejects_non_finite_entries_without_warning(self):
        # a NaN or inf entry, in either part, makes ||m||_F non-finite: the
        # bound would not be finite and the stop rules would mean nothing
        nan_off_diagonal, inf_diagonal, nan_imaginary = (np.eye(4, dtype=complex) for _ in range(3))
        nan_off_diagonal[0, 1] = nan_off_diagonal[1, 0] = math.nan
        inf_diagonal[2, 2] = math.inf
        nan_imaginary[3, 3] = complex(1.0, math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (nan_off_diagonal, inf_diagonal, nan_imaginary):
                with pytest.raises(ValueError, match="finite"):
                    eigenvalues_hermitian_jacobi(bad)
                with pytest.raises(ValueError, match="finite"):
                    eigenvalues_hermitian_jacobi(as_stack([np.eye(4), bad]))

    def test_sweep_cap_raises(self):
        m = density_from_off_diagonals(0.5, 0.5, 0.5)
        with pytest.raises(JacobiConvergenceError):
            capped_jacobi(m, 0)


def random_hermitian_stack(rng, count, n):
    """count random Hermitian n x n matrices, as a sequence along axis 0."""
    m = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return m + m.conj().swapaxes(-1, -2)


def as_stack(matrices):
    """The matrix-last (n, n, N) stack of a sequence of matrices."""
    return np.stack(list(matrices), axis=-1)


def power_of_two_times(m, power):
    """2^power m, exactly where no entry goes subnormal: each part of each
    entry is scaled by np.ldexp."""
    scaled = np.empty_like(m)
    scaled.real, scaled.imag = np.ldexp(m.real, power), np.ldexp(m.imag, power)
    return scaled


def capped_jacobi(m, cap):
    """eigenvalues_hermitian_jacobi(m) with JACOBI_SWEEP_CAP set to cap."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "JACOBI_SWEEP_CAP", cap)
        return eigenvalues_hermitian_jacobi(m)


def sweeps_to_converge(m):
    """The smallest sweep cap at which Jacobi converges on the one matrix m."""
    for cap in range(JACOBI_SWEEP_CAP + 1):
        try:
            capped_jacobi(m, cap)
        except JacobiConvergenceError:
            continue
        return cap
    raise AssertionError("no convergence within JACOBI_SWEEP_CAP sweeps")


class TestStackedJacobi:
    def test_rows_equal_single_matrix_calls_exactly(self):
        # a matrix's eigenvalues are recorded at the sweep where it stops,
        # and every step acts on each matrix alone, so no row depends on the
        # rest of the stack
        rng = np.random.default_rng(31)
        zero_pivot = np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 3.0]], dtype=complex)
        stack = np.concatenate(
            [
                np.diag([3.0, 1.0, 2.0])[None].astype(complex),
                (np.eye(3) / 3.0)[None],
                zero_pivot[None],
                1e6 * random_hermitian_stack(rng, 1, 3),
                random_hermitian_stack(rng, 12, 3),
                # each runs at its own power of two, far below 1 and past
                # where ||m||_F^2 overflows
                np.array([1e-300, 1e-160, 1e300])[:, None, None] * random_hermitian_stack(rng, 3, 3),
            ]
        )
        # members stop at different sweeps, so later sweeps also rotate
        # matrices whose eigenvalues are already recorded
        assert len({sweeps_to_converge(matrix) for matrix in stack}) >= 3
        rows = eigenvalues_hermitian_jacobi(as_stack(stack))
        assert rows.shape == (19, 3)
        for matrix, row in zip(stack, rows):
            same_bits(row, eigenvalues_hermitian_jacobi(matrix))

    def test_stacks_match_library_solver(self):
        rng = np.random.default_rng(37)
        for n in range(2, 34):
            stack = random_hermitian_stack(rng, 3, n)
            expected = np.sort(np.linalg.eigvalsh(stack), axis=-1)[:, ::-1]
            np.testing.assert_allclose(
                eigenvalues_hermitian_jacobi(as_stack(stack)),
                expected,
                rtol=0,
                atol=1e-12 * np.max(np.abs(expected)),
            )

    def test_stacked_results_are_point_last(self):
        # each eigenvalue index is one contiguous row of N values: the
        # transpose of every stacked (N, n) result is C-contiguous
        rng = np.random.default_rng(43)
        gram = as_stack(random_hermitian_stack(rng, 5, 3))
        amplitudes = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
        big_a, big_b = np.full(5, 0.3), np.linspace(-0.05, 0.05, 5)
        root = np.sqrt(4.0 * big_a**3 - big_b**2)
        for result in (
            eigenvalues_hermitian_jacobi(gram),
            schmidt_vector(amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2, axis=(0, 1)))),
            spectrum_from_ab(big_a, big_b, root),
        ):
            assert result.shape == (5, 3)
            assert result.T.flags.c_contiguous

    def test_sweep_cap_raises_on_stack(self):
        # at every cap below the slowest member's sweep count the stack
        # raises, also once the other members have stopped
        rng = np.random.default_rng(43)
        nearly_diagonal = np.diag([3.0, 1.0, 2.0]).astype(complex)
        # 1e-5, not smaller: its eps^2 must exceed tol (delta - eps), or
        # the Kato-Temple rule stops it before the first sweep
        nearly_diagonal[0, 1] = nearly_diagonal[1, 0] = 1e-5
        stack = np.concatenate(
            [
                np.diag([3.0, 1.0, 2.0])[None].astype(complex),
                nearly_diagonal[None],
                random_hermitian_stack(rng, 4, 3),
            ]
        )
        needed = [sweeps_to_converge(matrix) for matrix in stack]
        assert needed[0] == 0 and 0 < needed[1] < max(needed)
        for cap in range(max(needed)):
            with pytest.raises(JacobiConvergenceError):
                capped_jacobi(as_stack(stack), cap)
        np.testing.assert_array_equal(
            capped_jacobi(as_stack(stack), max(needed)),
            eigenvalues_hermitian_jacobi(as_stack(stack)),
        )

    def test_sweep_cap_reports_mass_of_matrices_not_stopped(self):
        # the first matrix stops at once by the Kato-Temple rule with a mass
        # of 1.4e-5; the second, far smaller, has not stopped
        stopped = 1e6 * np.diag([3.0, 1.0, 2.0]) + 1e-5 * (np.ones((3, 3)) - np.eye(3))
        going = 1e-8 * density_from_off_diagonals(0.5, 0.5, 0.5)
        with pytest.raises(JacobiConvergenceError, match="mass 4.082e-09 "):
            capped_jacobi(as_stack([stopped, going]), 0)
        # each matrix runs scaled by its own power of two, and its mass is
        # reported at its own scale, not at the scaled copy's
        tiny = 1e-200 * density_from_off_diagonals(0.5, 0.5, 0.5)
        with pytest.raises(JacobiConvergenceError, match="mass 4.082e-201 "):
            capped_jacobi(as_stack([stopped, tiny]), 0)

    def test_empty_stack(self):
        assert eigenvalues_hermitian_jacobi(np.zeros((3, 3, 0), dtype=complex)).shape == (0, 3)

    def test_input_left_unchanged(self):
        # one matrix, a stack of one and a stack: the solver rotates a copy
        rng = np.random.default_rng(47)
        one = random_hermitian(rng, 4)
        for m in (one, as_stack(random_hermitian_stack(rng, 1, 4)), as_stack(random_hermitian_stack(rng, 3, 4))):
            before = m.copy()
            eigenvalues_hermitian_jacobi(m)
            np.testing.assert_array_equal(m, before)


PLAN_SIZES = range(1, 34)


def round_orders(n):
    """The index order of each round, read off the canonical flat labels
    i*n + j as the moves carry them, and the labels after the last move."""
    labels = np.arange(n * n)
    orders = []
    for move in _round_robin(n):
        labels = labels[move]
        order = labels[:: n + 1] // n
        # the stack is always the canonical matrix with rows and columns
        # reordered alike
        np.testing.assert_array_equal(labels, (order[:, None] * n + order).ravel())
        orders.append(order)
    return orders[:-1], labels


def same_bits(actual, expected):
    """Equal arrays, bit for bit: sign of zero included."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestRoundPlan:
    def test_moves_are_permutations_composing_to_the_identity(self):
        for n in PLAN_SIZES:
            moves = _round_robin(n)
            # n - 1 rounds for n even, n for n odd, none for n = 1; then the
            # move back to canonical order
            assert len(moves) == (n if n % 2 else n - 1) + (n > 1)
            for move in moves:
                np.testing.assert_array_equal(np.sort(move), np.arange(n * n))
                assert not move.flags.writeable
            np.testing.assert_array_equal(round_orders(n)[1], np.arange(n * n))

    def test_moves_above_32_keep_quadratic_bytes(self):
        # n flat moves of n^2 indices would keep 8 n^3 bytes, 64 MB at
        # n = 200; above n = 32 only the (n,) row moves are kept, and each
        # flat move is built when it is read
        n = 200
        _round_robin.cache_clear()
        tracemalloc.start()
        try:
            moves = _round_robin(n)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 4 * n * n * np.dtype(np.intp).itemsize
        assert len(moves) == n and moves[0].shape == (n * n,) and not moves[0].flags.writeable
        np.testing.assert_array_equal(round_orders(n)[1], np.arange(n * n))

    def test_upper_pairs_are_cached_and_read_only(self):
        for n in range(1, 7):
            pairs = _upper_pairs(n)
            np.testing.assert_array_equal(pairs, np.triu_indices(n, 1))
            assert _upper_pairs(n) is pairs
            for index in pairs:
                assert not index.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    index[...] = 0

    def test_pairs_are_disjoint_and_meet_once_per_sweep(self):
        for n in PLAN_SIZES:
            k = n // 2
            met = []
            for order in round_orders(n)[0]:
                pairs = list(zip(order[:k], order[k : 2 * k]))
                assert all(p < q for p, q in pairs)
                assert len(set(order[: 2 * k])) == 2 * k
                met.extend(pairs)
            assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    def test_views_read_each_rounds_pivots_and_blocks(self):
        # pair j of a round sits at positions (j, k + j) of its order: the
        # pivot views read entries (j, k + j), (j, j) and (k + j, k + j),
        # the blocks columns and rows j and k + j, and every view writes
        # into the stack
        for n in PLAN_SIZES:
            k = n // 2
            labels = np.arange(n * n)
            for order in round_orders(n)[0]:
                p, q = order[:k], order[k : 2 * k]
                stack = (labels[(order[:, None] * n + order).ravel()] * (1 - 2j))[:, None].repeat(3, axis=1)
                apq, app, aqq, column_floats, columns_swapped, row_floats, rows_swapped = _round_views(stack, n)
                columns, rows = column_floats.view(complex), row_floats.view(complex)
                expected = p * n + q
                np.testing.assert_array_equal(apq, (expected * (1 - 2j))[:, None].repeat(3, axis=1))
                np.testing.assert_array_equal(app, (p * (n + 1))[:, None].repeat(3, axis=1))
                np.testing.assert_array_equal(aqq, (q * (n + 1))[:, None].repeat(3, axis=1))
                pq = np.stack([p, q])
                np.testing.assert_array_equal(columns[..., 0].real, order[:, None, None] * n + pq)
                np.testing.assert_array_equal(columns_swapped[..., 0].real, order[:, None, None] * n + pq[::-1])
                np.testing.assert_array_equal(rows[..., 0].real, pq[:, :, None] * n + order)
                np.testing.assert_array_equal(rows_swapped[..., 0].real, pq[::-1, :, None] * n + order)
                np.testing.assert_array_equal(columns.imag, -2 * columns.real)
                np.testing.assert_array_equal(rows.imag, -2 * rows.real)
                for view in (apq, app, aqq, column_floats, columns_swapped, row_floats, rows_swapped):
                    assert view.size == 0 or np.shares_memory(view, stack)

    def test_sizes_one_and_two(self):
        same_bits(eigenvalues_hermitian_jacobi(np.array([[2.5]])), np.array([2.5]))
        same_bits(eigenvalues_hermitian_jacobi(np.array([[-0.0]])), np.array([-0.0]))
        np.testing.assert_allclose(
            eigenvalues_hermitian_jacobi(np.array([[2.0, 1j], [-1j, 2.0]])), [3.0, 1.0], atol=1e-15
        )
        stack = random_hermitian_stack(np.random.default_rng(53), 5, 2)
        np.testing.assert_allclose(
            eigenvalues_hermitian_jacobi(as_stack(stack)),
            np.sort(np.linalg.eigvalsh(stack), axis=-1)[:, ::-1],
            atol=1e-12,
        )


EDGE_MATRICES = {
    "diagonal": np.diag([3.0, 1.0, 2.0]),
    "signed_zero_diagonal": np.diag([-0.0, 0.0, -0.0, 1.0]),
    "identity": np.eye(5),
    "zero": np.zeros((4, 4)),
    "zero_pivot": np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 3.0]]),
    "degenerate": np.array([[1.0, 1e-3, 0.0], [1e-3, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "rank_one": np.ones((4, 4)),
    "repeated_pair": np.kron(np.eye(3), np.array([[1.0, 1j], [-1j, 1.0]])),
}


class TestReferenceBits:
    """The stacked kernel equals jacobi_reference bit for bit: the plan,
    the views and the buffers change where numbers sit, never a result."""

    @pytest.mark.parametrize("n", [*range(2, 10), 16, 24, 32])
    def test_random_matrices_and_stacks(self, n):
        stack = random_hermitian_stack(np.random.default_rng(59 + n), 3, n)
        rows = eigenvalues_hermitian_jacobi(as_stack(stack))
        for matrix, row in zip(stack, rows):
            expected = jacobi_reference(matrix)
            same_bits(row, expected)
            same_bits(eigenvalues_hermitian_jacobi(matrix), expected)

    @pytest.mark.parametrize("n", [2, 3, 11, 24, 25, 33, 40])
    def test_lone_matrix_as_width_one_and_width_three(self, n):
        # a lone matrix and a width-1 stack scale each row as one run of 2n
        # floats, a wider stack as float pairs; above n = 32 each round's
        # move is built as the round reaches it
        matrices = random_hermitian_stack(np.random.default_rng(73 + n), 3, n)
        expected = jacobi_reference(matrices[1])
        same_bits(eigenvalues_hermitian_jacobi(matrices[1]), expected)
        same_bits(eigenvalues_hermitian_jacobi(matrices[1][..., None])[0], expected)
        same_bits(eigenvalues_hermitian_jacobi(as_stack(matrices))[1], expected)

    def test_mixed_convergence_stack(self):
        rng = np.random.default_rng(61)
        stack = np.concatenate(
            [
                np.diag([3.0, 1.0, 2.0])[None].astype(complex),
                (np.eye(3) / 3.0)[None],
                EDGE_MATRICES["zero_pivot"][None].astype(complex),
                1e6 * random_hermitian_stack(rng, 1, 3),
                random_hermitian_stack(rng, 12, 3),
            ]
        )
        assert len({sweeps_to_converge(matrix) for matrix in stack}) >= 3
        for matrix, row in zip(stack, eigenvalues_hermitian_jacobi(as_stack(stack))):
            same_bits(row, jacobi_reference(matrix))

    @pytest.mark.parametrize("name", EDGE_MATRICES)
    def test_edge_matrices(self, name):
        matrix = EDGE_MATRICES[name]
        same_bits(eigenvalues_hermitian_jacobi(matrix), jacobi_reference(matrix))


def _grams(states):
    """The (n, n, N) Gram stack of a matrix-last stack of states, and its
    matrices one by one."""
    grams = reduced_density_a(states)
    return grams, list(np.moveaxis(grams, -1, 0))


def _canonical_grams():
    """Gram matrices of the canonical grids' final states: the 8x10x12
    conjugation grid and every 30th point of the 3600-point real circle."""
    (_, angles), = _grid_angles(8, 10, 12)
    phi = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)[::30]
    return [chi_final(*angles), pi_final(np.cos(phi), np.sin(phi) + 0j)]


class TestKatoTempleStop:
    """A matrix also stops once its off-diagonal mass eps is small against
    the least gap delta between its diagonal entries: delta > 2 eps and
    eps^2 <= b (delta - eps), b = 1e-14 ||m||_F.  Then every eigenvalue is
    within eps^2 / (delta - eps) <= b of its diagonal entry."""

    def test_stopped_matrices_are_within_their_bound(self):
        import mpmath

        stopped = []
        for states in _canonical_grams():
            grams, matrices = _grams(states)
            rows = eigenvalues_hermitian_jacobi(grams)
            for matrix, row in zip(matrices[::4], rows[::4]):
                record = []
                same_bits(row, jacobi_reference(matrix, record))
                if record[0].rule == "kato-temple":
                    stopped.append(record[0])
        assert len(stopped) > 200
        with mpmath.workdps(40):
            for stop in stopped:
                bound = stop.eps**2 / stop.gap
                assert stop.gap > stop.eps and bound <= stop.tol
                exact = sorted(mpmath.eighe(mpmath.matrix(stop.matrix.tolist()), eigvals_only=True))
                diagonal = np.sort(stop.matrix.diagonal().real)
                # the eigenvalues of the matrix as it stopped, from its exact
                # float entries, against its diagonal
                assert max(abs(x - mpmath.mpf(d)) for x, d in zip(exact, diagonal)) <= bound

    def test_stops_a_sweep_earlier_on_the_conjugation_grid(self):
        # after sweep 3 eps is about 1e-11 and delta about 0.29: the mass
        # rule would rotate every matrix once more
        grams, matrices = _grams(_canonical_grams()[0])
        for matrix in matrices[::40]:
            record = []
            jacobi_reference(matrix, record)
            assert (record[0].rule, record[0].sweep) == ("kato-temple", 3)
            assert 1e-12 < record[0].eps < 1e-10 and 0.28 < record[0].gap < 0.3
        with pytest.raises(JacobiConvergenceError):
            capped_jacobi(grams, 2)
        capped_jacobi(grams, 3)

    @pytest.mark.parametrize("phi", [math.pi / 2, math.pi / 2 - 1e-9, math.pi / 2 - 1e-6])
    def test_near_double_roots_stop_by_mass(self, phi):
        # at phi = pi/2 with delta = pi/3 two eigenvalues coincide, and
        # near it they nearly do: delta - eps is too small for the rule
        beta = np.sin(phi) * np.exp(1j * math.pi / 3)
        _, (matrix,) = _grams(pi_final(np.array([math.cos(phi)]), np.array([beta])))
        record = []
        same_bits(eigenvalues_hermitian_jacobi(matrix), jacobi_reference(matrix, record))
        assert record[0].rule == "mass"
        assert record[0].eps < JACOBI_OFF_TOL

    def test_b_zero_points_of_the_real_circle(self):
        # B = 0 on the real circle: at A = 1/6 the mass rule stops first, at
        # phi = 0 and pi (A = 1/4) the spectrum is far from degenerate and
        # the rule stops the matrix a sweep early
        phi = np.array([0.0, 3 * math.pi / 8, math.pi, 7 * math.pi / 8])
        _, matrices = _grams(pi_final(np.cos(phi), np.sin(phi) + 0j))
        rules = []
        for matrix in matrices:
            record = []
            jacobi_reference(matrix, record)
            rules.append(record[0].rule)
        assert rules == ["kato-temple", "mass", "kato-temple", "mass"]

    def test_degenerate_diagonals_never_stop_by_the_rule(self):
        # equal diagonal entries give delta = 0: only the mass rule applies
        for matrix in (np.eye(3) + 1e-9 * (np.ones((3, 3)) - np.eye(3)), np.diag([1.0, 1.0, 2.0]) + 0j):
            record = []
            same_bits(eigenvalues_hermitian_jacobi(matrix), jacobi_reference(matrix, record))
            assert record[0].rule == "mass"




class TestRepeatedCalls:
    """Each call's buffers are its own: no thread or later call writes into
    another call's result."""

    @staticmethod
    def _threads_match_serial_results(inputs):
        # four threads, more than the cores of a small machine, on two
        # inputs of one shape, switching often
        serial = [eigenvalues_hermitian_jacobi(m) for m in inputs]
        results = [[] for _ in range(4)]

        def run(i):
            for _ in range(20):
                results[i].append(eigenvalues_hermitian_jacobi(inputs[i % 2]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, runs in enumerate(results):
            assert len(runs) == 20
            for result in runs:
                same_bits(result, serial[i % 2])

    def test_threads_match_serial_results(self):
        rng = np.random.default_rng(67)
        self._threads_match_serial_results([as_stack(random_hermitian_stack(rng, 960, 3)) for _ in range(2)])

    def test_threads_match_serial_results_on_a_lone_matrix(self):
        # the N = 1 row view and the array of ones belong to one call each
        rng = np.random.default_rng(79)
        self._threads_match_serial_results(list(random_hermitian_stack(rng, 2, 24)))

    def test_results_survive_later_calls(self):
        # the last matrix of the raising stack stops at once, so its done
        # flag is set when the cap is hit: a later call starts clear
        rng = np.random.default_rng(71)
        first = as_stack(random_hermitian_stack(rng, 64, 3))
        second = as_stack([*random_hermitian_stack(rng, 63, 3), np.diag([3.0, 1.0, 2.0])])
        result = eigenvalues_hermitian_jacobi(first)
        expected = result.copy()
        eigenvalues_hermitian_jacobi(second)
        same_bits(result, expected)
        with pytest.raises(JacobiConvergenceError):
            capped_jacobi(second, 0)
        same_bits(result, expected)
        same_bits(eigenvalues_hermitian_jacobi(first), expected)
