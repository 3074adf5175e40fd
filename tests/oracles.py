"""Independent references that only the tests use, kept outside the package
so they stay outside checks of it: closed-form reduced densities, the real
(A, B) shortcut, the superposition scenario's initial state built from the
axis kets, the unitary-only conjugation state and the conjugation
scenario's initial Schmidt vector.  Then point(), which reads the package's
certified kernel at one amplitude pair; spectrum_at() and verdict_at(),
which read its cubic spectrum and case analysis at cubic data (A, B) given
alone, refusing data that no amplitudes realize; largest_root(), the
cubic's largest root by a trigonometric formula of its own; converts(), the
Nielsen test on two vectors; and jacobi_reference(), the stacked Jacobi
kernel's arithmetic one matrix and one pair at a time.
"""

from types import SimpleNamespace

import numpy as np

from qincomp.cases import (
    _CASE_IDS,
    _PREDICTIONS,
    _SUBCASES,
    Prediction,
    _certify,
    _conditional_incomparable,
    predict_case,
)
from qincomp.linalg import JACOBI_OFF_TOL, JACOBI_SWEEP_CAP
from qincomp.majorization import PairLabel, classify_pair
from qincomp.qubits import general_unitary, named_ket
from qincomp.scenarios import _CHI_BRANCHES, _PI_BRANCHES, _amplitudes, pqr, spectrum_from_ab

REAL_PARAM_TOL = 1e-12
CUBIC_DOMAIN_TOL = 1e-12

CHI_INITIAL_SCHMIDT = np.array([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])


def pi_initial() -> np.ndarray:
    """Probe state for the superposition scenario before the map acts, built
    from the +1 ket of each branch's axis, as its 3x4 amplitude matrix."""
    return _amplitudes(_PI_BRANCHES, lambda label: named_ket(label, 0))


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
    value: A .. agree."""
    grid = _certify(np.array([alpha]), np.array([beta]))
    return {name: column[0] for name, column in grid.items()}


def _ab_discriminant_root(big_a: np.ndarray, big_b: np.ndarray) -> np.ndarray:
    """sqrt(max(4A^3 - B^2, 0)) for cubic data given without p, q, r;
    ValueError unless (A, B) is finite, in the cubic's domain and has
    A >= 1/12 (Im r = -1/2 exactly, so 3A >= |r|^2 >= 1/4 for all amplitudes)."""
    if not (np.all(np.isfinite(big_a)) and np.all(np.isfinite(big_b))):
        raise ValueError("A and B must be finite")
    if np.any(big_a < 1.0 / 12.0):
        raise ValueError("A below 1/12: no amplitudes realize these cubic data")
    # a huge finite A cubes to inf and a huge B squares to inf; inf - inf is
    # nan, and the spectrum-sum check refuses both the inf and the nan root
    with np.errstate(over="ignore", invalid="ignore"):
        cubed, squared = 4.0 * big_a**3, big_b * big_b
        if np.any(squared > cubed + CUBIC_DOMAIN_TOL):
            raise ValueError("B^2 exceeds 4A^3: cubic has no valid spectrum")
        return np.sqrt(np.maximum(cubed - squared, 0.0))


def spectrum_at(big_a: float, big_b: float) -> np.ndarray:
    """The package's cubic spectrum at (A, B) given alone: the descending
    eigenvalues.  ValueError unless (A, B) is finite, in the cubic's domain
    and has A >= 1/12, as every amplitude pair does."""
    big_a, big_b = np.array(float(big_a)), np.array(float(big_b))
    return spectrum_from_ab(big_a, big_b, _ab_discriminant_root(big_a, big_b))


def largest_root(big_a, big_b) -> np.ndarray:
    """The largest root 2 sqrt(A) cos(angle), 3 angle = atan2(sqrt(4A^3 -
    B^2), -B), of x^3 - 3Ax + B over arrays (or scalars) of cubic data in
    its domain, written here apart from the package's spectrum_from_ab."""
    big_a, big_b = np.asarray(big_a, dtype=float), np.asarray(big_b, dtype=float)
    angle = np.arctan2(_ab_discriminant_root(big_a, big_b), -big_b) / 3.0
    return 2.0 * np.sqrt(big_a) * np.cos(angle)


def verdict_at(big_a: float, big_b: float) -> SimpleNamespace:
    """The package's case analysis at (A, B) given alone: case_id, subcase
    and predicted from predict_case's codes, and, for a CONDITIONAL
    prediction, condition, whether incomparability is predicted (else
    None).  ValueError unless (A, B) is finite, in the cubic's domain and
    realized by some amplitudes (A at least 1/12, and A above 1/4 needs B
    above 0)."""
    spectrum_at(big_a, big_b)  # the oracle's and the spectrum's refusals
    case, subcase, predicted = (int(code) for code in predict_case(float(big_a), float(big_b)))
    prediction = _PREDICTIONS[predicted]
    condition = None
    if prediction is Prediction.CONDITIONAL:
        condition = bool(_conditional_incomparable(float(big_a), float(big_b)))
    return SimpleNamespace(
        case_id=_CASE_IDS[case], subcase=_SUBCASES[subcase], predicted=prediction, condition=condition
    )


def converts(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether src converts to dst under deterministic LOCC: src is
    majorized by dst, equal vectors included."""
    return classify_pair(src, dst).label in {PairLabel.CONVERTIBLE_FORWARD, PairLabel.EQUAL}


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


def _running_sum(values: np.ndarray) -> float:
    """The sum of the values, one after another, from the first."""
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


def _scaled(c: float, x: np.ndarray) -> np.ndarray:
    """c x for real c, as real products with the parts of x."""
    return (c * x.view(float)).view(complex)


def jacobi_reference(m: np.ndarray, record: list | None = None) -> np.ndarray:
    """Descending eigenvalues of one Hermitian matrix by cyclic Jacobi, with
    the arithmetic of linalg.eigenvalues_hermitian_jacobi in its order, one
    pair at a time: each sweep first tests the off-diagonal mass eps
    (squares summed in row-major order) against the mass rule, then the
    Kato-Temple rule, then per round takes every pair's (c, s) from its
    pivots, then rotates the columns of each pair, then the rows.  No
    stacks, layouts, buffers or index plans.  With a record list, appends
    how the matrix stopped: the sweep, the rule ("mass" or "kato-temple"),
    the matrix as it stopped, its eps, the rule's bound 1e-14 ||m||_F and
    delta - eps."""
    a = np.array(m, dtype=complex)
    n = len(a)
    bound = JACOBI_OFF_TOL * np.sqrt(_running_sum((a.real**2 + a.imag**2).ravel()))
    rounds = _circle_rounds(n)
    for sweep in range(JACOBI_SWEEP_CAP + 1):
        squares = a.real**2 + a.imag**2
        np.fill_diagonal(squares, 0.0)
        eps = np.sqrt(_running_sum(squares.ravel()))
        rule, gap = ("mass", None) if not eps > bound else (None, None)
        if rule is None and eps <= bound * np.sqrt(2.0 / JACOBI_OFF_TOL):
            gap = np.min(np.diff(np.sort(a.diagonal().real))) - eps
            if gap > eps and eps * eps <= bound * gap:
                rule = "kato-temple"
        if rule is not None:
            if record is not None:
                record.append(SimpleNamespace(sweep=sweep, rule=rule, matrix=a, eps=eps, tol=bound, gap=gap))
            return np.sort(a.diagonal().real)[::-1]
        pivot_tol = bound / n
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
                    a[:, p] = _scaled(c, col_p) + -np.conj(s) * col_q
                    a[:, q] = _scaled(c, col_q) + s * col_p
                for p, q, c, s in rotations:
                    row_p, row_q = a[p].copy(), a[q].copy()
                    a[p] = _scaled(c, row_p) + -s * row_q
                    a[q] = _scaled(c, row_q) + np.conj(s) * row_p
    raise AssertionError("jacobi_reference did not converge")
