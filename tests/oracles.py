"""Independent references that only the tests use, kept outside the package
so they stay outside checks of it: closed-form reduced densities, the real
(A, B) shortcut, the unitary-only conjugation state and the conjugation
scenario's initial Schmidt vector.  Last, point(), which reads the package's
certified kernel at one amplitude pair.
"""

import numpy as np

from qincomp.cases import _certify
from qincomp.qubits import IppParams, UnitaryParams, general_unitary, named_ket
from qincomp.scenarios import _CHI_BRANCHES, _amplitudes, _state, pqr
from qincomp.states import BipartiteState

REAL_PARAM_TOL = 1e-12

CHI_INITIAL_SCHMIDT = np.array([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])


def chi_final_unitary_only(p: UnitaryParams) -> BipartiteState:
    """Probe state after only the unitary part acts (no conjugation)."""
    u = general_unitary(p)
    return _state(_amplitudes(_CHI_BRANCHES, lambda label: (u @ named_ket(label, 0))[None, :]))


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


def pi_final_density_closed_form(p: IppParams) -> np.ndarray:
    """Closed-form final reduced density matrix with off-diagonals (p, q, r)."""
    c = pqr(p)
    return _density_from_off_diagonals(c.p, c.q, c.r)


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
