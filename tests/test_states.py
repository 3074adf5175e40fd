"""Tests for bipartite states, partial trace, Schmidt vectors, entropy."""

import math

import numpy as np
import pytest

from qincomp.majorization import majorizes
from qincomp.states import (
    BipartiteState,
    entropy_of_entanglement,
    reduced_density_a,
    schmidt_vector,
)

BELL = BipartiteState(2, 2, np.array([1, 0, 0, 1]) / math.sqrt(2))


def random_state(rng, dim_a, dim_b):
    amps = rng.normal(size=dim_a * dim_b) + 1j * rng.normal(size=dim_a * dim_b)
    return BipartiteState(dim_a, dim_b, amps / np.linalg.norm(amps))


def test_state_validates_amplitude_count():
    with pytest.raises(ValueError):
        BipartiteState(2, 2, np.array([1.0, 0.0]))


def test_state_validates_norm():
    with pytest.raises(ValueError):
        BipartiteState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))


def test_state_validates_dims():
    with pytest.raises(ValueError):
        BipartiteState(0, 2, np.array([]))


def test_amplitudes_are_read_only():
    with pytest.raises(ValueError):
        BELL.amplitudes[0] = 0.0


def test_reduced_density_product_state():
    s = BipartiteState(2, 2, np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(reduced_density_a(s), [[1, 0], [0, 0]], atol=1e-15)


def test_reduced_density_bell_state():
    np.testing.assert_allclose(reduced_density_a(BELL), np.eye(2) / 2, atol=1e-15)


def test_reduced_density_entry_formula():
    rng = np.random.default_rng(5)
    s = random_state(rng, 3, 4)
    amp = s.amplitudes.reshape(3, 4)
    expected = np.einsum("ij,kj->ik", amp, amp.conj())
    np.testing.assert_allclose(reduced_density_a(s), expected, atol=1e-14)


def test_reduced_density_trace_and_positivity():
    rng = np.random.default_rng(29)
    for _ in range(50):
        rho = reduced_density_a(random_state(rng, 3, 4))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_schmidt_vector_product_state():
    s = BipartiteState(2, 3, np.array([0, 1, 0, 0, 0, 0], dtype=complex))
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
    states.append(BipartiteState(8, 3, rank_one.reshape(-1)))
    for s in states:
        m = s.amplitudes.reshape(s.dim_a, s.dim_b)
        vec = schmidt_vector(s)
        assert vec.size == min(s.dim_a, s.dim_b)
        np.testing.assert_allclose(
            vec, np.linalg.svd(m, compute_uv=False) ** 2, rtol=0, atol=1e-12
        )
        swapped = BipartiteState(s.dim_b, s.dim_a, m.T.reshape(-1))
        np.testing.assert_allclose(schmidt_vector(swapped), vec, rtol=0, atol=1e-13)


def test_schmidt_vector_global_phase_invariance():
    rng = np.random.default_rng(37)
    s = random_state(rng, 3, 4)
    rotated = BipartiteState(3, 4, np.exp(0.421j) * s.amplitudes)
    np.testing.assert_allclose(schmidt_vector(s), schmidt_vector(rotated), atol=1e-12)


def test_schmidt_vector_local_unitary_invariance():
    # a unitary on the B side must not move the spectrum
    rng = np.random.default_rng(41)
    for _ in range(20):
        s = random_state(rng, 3, 4)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        amp = s.amplitudes.reshape(3, 4) @ u.T
        rotated = BipartiteState(3, 4, amp.reshape(-1))
        np.testing.assert_allclose(
            schmidt_vector(s), schmidt_vector(rotated), atol=1e-10
        )


def test_entropy_bell():
    assert entropy_of_entanglement(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)


def test_entropy_product():
    assert entropy_of_entanglement(np.array([1.0, 0.0, 0.0])) == 0.0


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
        if majorizes(a, b) and not np.allclose(a, b):
            assert entropy_of_entanglement(a) <= entropy_of_entanglement(b) + 1e-12
            checked += 1
