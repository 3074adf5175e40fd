"""Tests for amplitude-matrix states: partial trace, Schmidt vectors, entropy."""

import math

import numpy as np
import pytest

from oracles import converts
from qincomp.cli import parse_state_file
from qincomp.scenarios import chi_final, pi_final
from qincomp.states import entropy_of_entanglement, reduced_density_a, schmidt_vector
from qincomp.sweep import _grid_angles

BELL = np.array([[1, 0], [0, 1]], dtype=complex) / math.sqrt(2)


def random_state(rng, dim_a, dim_b):
    amps = rng.normal(size=(dim_a, dim_b)) + 1j * rng.normal(size=(dim_a, dim_b))
    return amps / np.linalg.norm(amps)


def write_state(tmp_path, text):
    path = tmp_path / "state.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


# A state is checked once, where it is read: the state-file parser.
def test_state_validates_norm(tmp_path):
    path = write_state(tmp_path, "2 2\n1 0\n1 0\n0 0\n0 0\n")
    with pytest.raises(ValueError, match="unit norm"):
        parse_state_file(path)


def test_state_validates_dims(tmp_path):
    path = write_state(tmp_path, "0 2\n")
    with pytest.raises(ValueError, match="dimensions must be positive"):
        parse_state_file(path)


def test_reduced_density_product_state():
    s = np.array([[1.0, 0], [0, 0]], dtype=complex)
    np.testing.assert_allclose(reduced_density_a(s), [[1, 0], [0, 0]], atol=1e-15)


def test_reduced_density_bell_state():
    np.testing.assert_allclose(reduced_density_a(BELL), np.eye(2) / 2, atol=1e-15)


def test_reduced_density_entry_formula():
    rng = np.random.default_rng(5)
    amp = random_state(rng, 3, 4)
    expected = np.einsum("ij,kj->ik", amp, amp.conj())
    np.testing.assert_allclose(reduced_density_a(amp), expected, atol=1e-14)


def test_reduced_density_trace_and_positivity():
    rng = np.random.default_rng(29)
    for _ in range(50):
        rho = reduced_density_a(random_state(rng, 3, 4))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def _canonical_final_states():
    """The final-state stacks of the canonical grids, built as the sweeps
    build them: sweep-real 3600, sweep-complex 60x12 and 40x18, and
    sweep-gamma 8x8x8."""
    for sizes in ((3600, 1), (60, 12), (40, 18)):
        for _, (phi, delta) in _grid_angles(*sizes):
            yield pi_final(np.cos(phi), np.exp(1j * delta) * np.sin(phi))
    for _, angles in _grid_angles(8, 8, 8):
        yield chi_final(*angles)


def test_reduced_density_is_exactly_hermitian():
    # m_ij conj(m_kj) and m_kj conj(m_ij) round to exact conjugates, so
    # every Gram matrix, of M or of M^H (schmidt_vector's side for tall
    # states), equals its conjugate transpose exactly (only the sign of a
    # zero may differ): Jacobi relies on this and does not check it
    rng = np.random.default_rng(53)
    random_stacks = [
        np.stack([random_state(rng, *dims) for _ in range(4)], axis=-1)
        for dims in [(2, 3), (3, 2), (5, 5), (24, 32), (32, 24)]
    ]
    for states in [*_canonical_final_states(), *random_stacks]:
        for m in (states, states.conj().swapaxes(0, 1)):
            gram = reduced_density_a(m)
            assert np.array_equal(gram, gram.conj().swapaxes(0, 1))


def test_stack_matches_one_matrix_at_a_time():
    # a matrix-last stack of states is one einsum and one Jacobi call, with
    # the same values as each state alone
    rng = np.random.default_rng(47)
    for dims in [(3, 4), (4, 2)]:
        states = [random_state(rng, *dims) for _ in range(5)]
        stack = np.stack(states, axis=-1)
        rhos, vecs = reduced_density_a(stack), schmidt_vector(stack)
        assert rhos.shape == (dims[0], dims[0], 5) and vecs.shape == (5, min(dims))
        for m, rho, vec in zip(states, np.moveaxis(rhos, -1, 0), vecs):
            np.testing.assert_allclose(rho, reduced_density_a(m), rtol=0, atol=1e-15)
            np.testing.assert_allclose(vec, schmidt_vector(m), rtol=0, atol=1e-15)


def test_schmidt_vector_product_state():
    s = np.array([[0, 1, 0], [0, 0, 0]], dtype=complex)
    np.testing.assert_allclose(schmidt_vector(s), [1, 0], atol=1e-12)


def test_schmidt_vector_bell():
    np.testing.assert_allclose(schmidt_vector(BELL), [0.5, 0.5], atol=1e-12)


def test_schmidt_vector_truncates_to_smaller_dimension():
    # tall states take the B-side Gram matrix, wide and square ones the A
    # side; both must give the squared singular values of the amplitudes
    rng = np.random.default_rng(31)
    u = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
    v = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    rank_one = u @ v / np.linalg.norm(u @ v)
    states = [random_state(rng, *dims) for dims in [(4, 2), (6, 2), (2, 6), (4, 4), (32, 24)]]
    states.append(rank_one)
    for m in states:
        vec = schmidt_vector(m)
        assert vec.size == min(m.shape)
        np.testing.assert_allclose(
            vec, np.linalg.svd(m, compute_uv=False) ** 2, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(schmidt_vector(m.T), vec, rtol=0, atol=1e-13)


def test_schmidt_vector_global_phase_invariance():
    rng = np.random.default_rng(37)
    s = random_state(rng, 3, 4)
    rotated = np.exp(0.421j) * s
    np.testing.assert_allclose(schmidt_vector(s), schmidt_vector(rotated), atol=1e-12)


def test_schmidt_vector_local_unitary_invariance():
    # a unitary on the B side must not move the spectrum
    rng = np.random.default_rng(41)
    for _ in range(20):
        s = random_state(rng, 3, 4)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        np.testing.assert_allclose(
            schmidt_vector(s), schmidt_vector(s @ u.T), atol=1e-10
        )


def test_entropy_bell():
    assert entropy_of_entanglement(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)


def test_entropy_product():
    assert entropy_of_entanglement(np.array([1.0, 0.0, 0.0])) == 0.0
    # a coefficient an ulp above 1 has a positive v log2 v, and one an ulp
    # below 1 a negative one of about 3e-16: both terms drop, giving +0.0;
    # so does 1 + 8e-13, the top coefficient of a state file whose norm is
    # off 1 by less than NORM_TOL
    for top in (1.0 + 2.0**-52, 1.0 - 2.0**-52, 1.0 + 8e-13):
        entropy = entropy_of_entanglement(np.array([top, 0.0]))
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


def test_entropy_direct_sum():
    v = np.array([2 / 3, 1 / 6, 1 / 6])
    expected = -sum(x * math.log2(x) for x in v)
    assert entropy_of_entanglement(v) == pytest.approx(expected, abs=1e-13)


def test_entropy_clamps_noise():
    v = np.array([1.0 - 1e-14, 1e-14])
    assert entropy_of_entanglement(v) == pytest.approx(0.0, abs=1e-12)


def test_entropy_is_schur_concave_on_random_pairs():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 200:
        a = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        b = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        if converts(b, a) and not np.allclose(a, b):
            assert entropy_of_entanglement(a) <= entropy_of_entanglement(b) + 1e-12
            checked += 1
