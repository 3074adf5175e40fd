"""Independent references that only the tests use, kept outside the package
so they stay outside checks of it: closed-form reduced densities, the real
(A, B) shortcut, the unitary-only conjugation state and the conjugation
scenario's initial Schmidt vector.  Then point(), which reads the package's
certified kernel at one amplitude pair, and jacobi_reference(), the stacked
Jacobi kernel's arithmetic one matrix and one pair at a time.
"""

import numpy as np

from qincomp.cases import _certify
from qincomp.linalg import JACOBI_OFF_TOL, JACOBI_SWEEP_CAP
from qincomp.qubits import general_unitary, named_ket
from qincomp.scenarios import _CHI_BRANCHES, _amplitudes, pqr

REAL_PARAM_TOL = 1e-12

CHI_INITIAL_SCHMIDT = np.array([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])


def chi_final_unitary_only(theta: float, phi_a: float, phi_b: float) -> np.ndarray:
    """Probe state after only the unitary part acts (no conjugation), as its
    3x4 amplitude matrix."""
    u = general_unitary(theta, phi_a, phi_b)
    return _amplitudes(_CHI_BRANCHES, lambda label: u @ named_ket(label, 0))


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


def pi_initial_density_closed_form() -> np.ndarray:
    """Closed-form initial reduced density matrix of the superposition scenario."""
    return _density_from_off_diagonals(0.5, 0.5, -0.5j)


def pi_final_density_closed_form(alpha: complex, beta: complex) -> np.ndarray:
    """Closed-form final reduced density matrix with off-diagonals (p, q, r)."""
    return _density_from_off_diagonals(*pqr(alpha, beta))


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


def point(alpha: complex, beta: complex) -> dict:
    """The certified kernel's columns at one amplitude pair, each as its one
    value: A .. agree, the case and subcase codes, and the three roots."""
    grid = _certify(np.array([alpha]), np.array([beta]))
    return {name: column[0] for name, column in grid.items()}


def _circle_rounds(n: int) -> list[list[tuple[int, int]]]:
    """Round-robin rounds on n indices by the circle method: index 0 stays
    put and the others rotate one seat per round; seat i meets seat m-1-i,
    and with n odd (m = n + 1) whoever meets the phantom index n sits out."""
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        seats = [0, *ring]
        pairs = [tuple(sorted((seats[i], seats[m - 1 - i]))) for i in range(m // 2)]
        rounds.append([(p, q) for p, q in pairs if q < n])
        ring = ring[-1:] + ring[:-1]
    return [pairs for pairs in rounds if pairs]


def jacobi_reference(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of one Hermitian matrix by cyclic Jacobi, with
    the arithmetic of linalg.eigenvalues_hermitian_jacobi in its order, one
    pair at a time: each sweep first tests the off-diagonal mass (squares
    summed in row-major order), then per round takes every pair's (c, s)
    from its pivots, then rotates the columns of each pair, then the rows.
    No stacks, layouts, buffers or index plans."""
    a = np.array(m, dtype=complex)
    n = len(a)
    off_tol = JACOBI_OFF_TOL * max(1.0, np.sqrt(np.sum((a.real**2 + a.imag**2).ravel())))
    rounds = _circle_rounds(n)
    for _ in range(JACOBI_SWEEP_CAP + 1):
        squares = a.real**2 + a.imag**2
        np.fill_diagonal(squares, 0.0)
        if not np.sqrt(np.sum(squares.ravel())) >= off_tol:
            return np.sort(a.diagonal().real)[::-1]
        pivot_tol = off_tol / n
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for pairs in rounds:
                rotations = []
                for p, q in pairs:
                    apq = a[p, q]
                    size = np.abs(apq)
                    tau = (a[q, q].real - a[p, p].real) / (2.0 * size)
                    t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = (t * c) * (apq / size)
                    if not size > pivot_tol:
                        c, s = np.float64(1.0), np.complex128(0.0)
                    rotations.append((p, q, c, s))
                for p, q, c, s in rotations:
                    col_p, col_q = a[:, p].copy(), a[:, q].copy()
                    a[:, p] = c * col_p + -np.conj(s) * col_q
                    a[:, q] = c * col_q + s * col_p
                for p, q, c, s in rotations:
                    row_p, row_q = a[p].copy(), a[q].copy()
                    a[p] = c * row_p + -s * row_q
                    a[q] = c * row_q + np.conj(s) * row_p
    raise AssertionError("jacobi_reference did not converge")
