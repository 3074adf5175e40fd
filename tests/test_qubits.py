"""Tests for the unitary, the anti-unitary, the axis kets, and the
restricted superposition map."""

import math

import numpy as np
import pytest

from qincomp.cli import _canonical_angles, _unit_amplitudes
from qincomp.qubits import (
    SpinLabel,
    apply_antiunitary,
    general_unitary,
    ipp_image,
    named_ket,
)

SQ2 = 1.0 / math.sqrt(2.0)


def random_angles(rng):
    """Angles (theta, phi_a, phi_b), uniform in the canonical range [0, 2pi)."""
    return rng.uniform(0.0, 2.0 * math.pi, size=3)


def test_unitary_params_reduce_to_canonical_range():
    theta, phi_a, phi_b = (
        float(_canonical_angles(name, value))
        for name, value in (("theta", 2.0 * math.pi + 0.3), ("phi_a", -0.5), ("phi_b", 7.0))
    )
    assert theta == pytest.approx(0.3)
    assert phi_a == pytest.approx(2.0 * math.pi - 0.5)
    assert phi_b == pytest.approx(7.0 - 2.0 * math.pi)
    assert all(0.0 <= v < 2.0 * math.pi for v in (theta, phi_a, phi_b))


def test_unitary_params_reject_non_finite():
    with pytest.raises(ValueError, match="theta must be finite"):
        _canonical_angles("theta", math.nan)


def test_ipp_params_require_normalization():
    _unit_amplitudes(0.6, 0.8)
    with pytest.raises(ValueError, match="must satisfy"):
        _unit_amplitudes(1.0, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        _unit_amplitudes(complex(math.inf, 0), 0)


def test_named_kets_exact_values():
    np.testing.assert_array_equal(named_ket(SpinLabel.Z, 0), [1, 0])
    np.testing.assert_array_equal(named_ket(SpinLabel.Z, 1), [0, 1])
    np.testing.assert_array_equal(named_ket(SpinLabel.X, 0), [SQ2, SQ2])
    np.testing.assert_array_equal(named_ket(SpinLabel.X, 1), [SQ2, -SQ2])
    np.testing.assert_array_equal(named_ket(SpinLabel.Y, 0), [SQ2, SQ2 * 1j])
    np.testing.assert_array_equal(named_ket(SpinLabel.Y, 1), [SQ2, -SQ2 * 1j])


def test_named_kets_orthogonal_partners():
    # vdot may contract with fused multiply-adds, leaving the rounding
    # residue of the first product instead of an exact zero
    for axis in SpinLabel:
        inner = np.vdot(named_ket(axis, 0), named_ket(axis, 1))
        assert abs(inner) < 1e-15


def test_named_ket_rejects_bad_index():
    with pytest.raises(ValueError):
        named_ket(SpinLabel.X, 2)


def test_general_unitary_identity():
    np.testing.assert_allclose(general_unitary(0, 0, 0), np.eye(2), atol=1e-15)


def test_general_unitary_flipper():
    u = general_unitary(math.pi / 2, 0, 0)
    np.testing.assert_allclose(u, [[0, 1], [-1, 0]], atol=1e-15)


def test_general_unitary_is_unitary():
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = general_unitary(*random_angles(rng))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_antiunitary_action_on_axis_kets():
    # closed-form action on the three +1 axis kets, for arbitrary angles
    rng = np.random.default_rng(19)
    for _ in range(50):
        theta, phi_a, phi_b = random_angles(rng)
        p = general_unitary(theta, phi_a, phi_b)
        ct, st = math.cos(theta), math.sin(theta)
        ea, eb = np.exp(-1j * phi_a), np.exp(-1j * phi_b)
        np.testing.assert_allclose(
            apply_antiunitary(p, named_ket(SpinLabel.Z, 0)),
            [ct, -eb * st],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            apply_antiunitary(p, named_ket(SpinLabel.X, 0)),
            [(ct + ea * st) * SQ2, eb * (ea * ct - st) * SQ2],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            apply_antiunitary(p, named_ket(SpinLabel.Y, 0)),
            [(ct - 1j * ea * st) * SQ2, -eb * (1j * ea * ct + st) * SQ2],
            atol=1e-12,
        )


def test_antiunitary_pure_conjugation():
    p = general_unitary(0, 0, 0)
    np.testing.assert_allclose(
        apply_antiunitary(p, named_ket(SpinLabel.Y, 0)), named_ket(SpinLabel.Y, 1), atol=1e-15
    )


def test_antiunitary_flipper_on_up():
    out = apply_antiunitary(general_unitary(math.pi / 2, 0, 0), named_ket(SpinLabel.Z, 0))
    np.testing.assert_allclose(out, [0, -1], atol=1e-15)


def test_antiunitary_is_antilinear():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = general_unitary(*random_angles(rng))
        k = rng.normal(size=2) + 1j * rng.normal(size=2)
        k /= np.linalg.norm(k)
        c = np.exp(1j * rng.uniform(0, 2 * math.pi))
        np.testing.assert_allclose(
            apply_antiunitary(p, c * k), np.conj(c) * apply_antiunitary(p, k), atol=1e-12
        )


def test_antiunitary_preserves_inner_product_modulus():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = general_unitary(*random_angles(rng))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        before = abs(np.vdot(u, v))
        after = abs(np.vdot(apply_antiunitary(p, u), apply_antiunitary(p, v)))
        assert after == pytest.approx(before, abs=1e-12)


def test_antiunitary_over_a_unitary_stack():
    # a matrix-last (2, 2, 5, 7) stack of unitaries gives the (2, 5, 7)
    # stack of one-unitary images, each equal to its one-point call (numpy
    # multiplies complex scalars, not arrays, with other roundings)
    angles = np.random.default_rng(37).uniform(0.0, 2.0 * math.pi, size=(3, 5, 7))
    stack = general_unitary(*angles)
    assert stack.shape == (2, 2, 5, 7)
    k = named_ket(SpinLabel.Y, 0)
    images = apply_antiunitary(stack, k)
    assert images.shape == (2, 5, 7)
    for i, j in np.ndindex(5, 7):
        np.testing.assert_array_equal(stack[..., i, j, None], general_unitary(*angles[:, i, j, None]))
        np.testing.assert_array_equal(images[:, i, j], apply_antiunitary(stack[..., i, j], k))


def test_ipp_image_identity_params():
    out = ipp_image(SpinLabel.Z, 1, 0)
    np.testing.assert_allclose(out, named_ket(SpinLabel.Z, 0), atol=1e-15)


def test_ipp_image_flipping_params():
    out = ipp_image(SpinLabel.X, 0, 1)
    np.testing.assert_allclose(out, named_ket(SpinLabel.X, 1), atol=1e-15)


def test_ipp_image_hadamard_params():
    out = ipp_image(SpinLabel.Z, SQ2, SQ2)
    np.testing.assert_allclose(out, [SQ2, SQ2], atol=1e-15)


def test_ipp_image_normalized_for_random_params():
    rng = np.random.default_rng(31)
    for _ in range(100):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        for m in SpinLabel:
            assert np.linalg.norm(ipp_image(m, raw[0], raw[1])) == pytest.approx(1.0, abs=1e-12)


def test_ipp_image_flipping_preserves_inner_product_modulus():
    # pairwise overlap moduli survive at the flipping point; for generic
    # superposition amplitudes they do not (at Hadamard parameters the x
    # and y images coincide), which is part of why the map is detectable
    p = (0, 1)
    for m in SpinLabel:
        for n in SpinLabel:
            before = abs(np.vdot(named_ket(m, 0), named_ket(n, 0)))
            after = abs(np.vdot(ipp_image(m, *p), ipp_image(n, *p)))
            assert after == pytest.approx(before, abs=1e-12)


def test_ipp_image_overlap_distortion_at_hadamard():
    # the x and y images collapse onto the same ket even though the
    # inputs are not parallel: the map cannot be realized unitarily
    overlap = abs(np.vdot(ipp_image(SpinLabel.X, SQ2, SQ2), ipp_image(SpinLabel.Y, SQ2, SQ2)))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(named_ket(SpinLabel.X, 0), named_ket(SpinLabel.Y, 0))) == pytest.approx(
        SQ2, abs=1e-12
    )
