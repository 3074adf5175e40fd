"""Tests for the probe scenarios, their closed-form densities, and the
cubic spectral data with the root of its discriminant."""

import math

import numpy as np
import pytest

from oracles import (
    CHI_INITIAL_SCHMIDT,
    chi_final_unitary_only,
    chi_initial_density_closed_form,
    pi_final_density_closed_form,
    pi_initial,
    pi_initial_density_closed_form,
    point,
    real_ab,
    spectrum_at,
)
from qincomp.cli import NORM_TOL
from qincomp.linalg import eigenvalues_hermitian_jacobi
from qincomp.majorization import PairLabel, classify_pair
from qincomp import scenarios
from qincomp.scenarios import (
    CHI_FINAL_SCHMIDT,
    PI_INITIAL_SCHMIDT,
    _discriminant_root,
    build_chi_initial,
    chi_final,
    cubic_coefficients,
    pi_final,
    pqr,
)
from qincomp.states import reduced_density_a, schmidt_vector

SQ2 = 1.0 / math.sqrt(2.0)
HADAMARD_SPECTRUM = np.array(
    [0.702386623896256, 0.243468521198185, 0.054144854905559]
)


def random_unitary_params(rng):
    """Angles (theta, phi_a, phi_b), uniform in the canonical range [0, 2pi)."""
    return rng.uniform(0.0, 2.0 * math.pi, size=3)


def random_ipp_params(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw /= np.linalg.norm(raw)
    return raw[0], raw[1]


class TestConjugationScenario:
    def test_initial_schmidt_vector(self):
        np.testing.assert_allclose(
            schmidt_vector(build_chi_initial()), CHI_INITIAL_SCHMIDT, atol=1e-12
        )
        # the closed form gamma-demo checks against at run time
        np.testing.assert_allclose(scenarios.CHI_INITIAL_SCHMIDT, CHI_INITIAL_SCHMIDT, rtol=1e-15)

    def test_initial_density_matches_closed_form(self):
        np.testing.assert_allclose(
            reduced_density_a(build_chi_initial()),
            chi_initial_density_closed_form(),
            atol=1e-12,
        )

    def test_final_schmidt_vector_is_parameter_free(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            vec = schmidt_vector(chi_final(*random_unitary_params(rng)))
            np.testing.assert_allclose(vec, CHI_FINAL_SCHMIDT, atol=1e-10)

    def test_final_density_matches_closed_form(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            np.testing.assert_allclose(
                reduced_density_a(chi_final(*random_unitary_params(rng))),
                # the final state has the superposition scenario's initial density
                pi_initial_density_closed_form(),
                atol=1e-12,
            )

    def test_initial_final_pair_incomparable(self):
        initial = schmidt_vector(build_chi_initial())
        final = schmidt_vector(chi_final(math.pi / 2, 0.0, 0.0))
        assert classify_pair(initial, final).label is PairLabel.INCOMPARABLE

    def test_unitary_only_leaves_density_unchanged(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            rho = reduced_density_a(chi_final_unitary_only(*random_unitary_params(rng)))
            np.testing.assert_allclose(rho, chi_initial_density_closed_form(), atol=1e-12)

    def test_unitary_only_identity_params_reproduces_initial(self):
        state = chi_final_unitary_only(0.0, 0.0, 0.0)
        np.testing.assert_allclose(state, build_chi_initial(), atol=1e-15)

    def test_unitary_only_keeps_schmidt_vector(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            vec = schmidt_vector(chi_final_unitary_only(*random_unitary_params(rng)))
            np.testing.assert_allclose(vec, CHI_INITIAL_SCHMIDT, atol=1e-10)


class TestAntiUnitaryTheorem:
    """The conjugation scenario's Schmidt vectors for every angle, exactly.

    The states are built from the axis kets, not from scenarios, over
    c = cos theta, s = sin theta, U = e^{i phi_a} and V = e^{i phi_b}, with
    s^2 = 1 - c^2, conj U = 1/U and conj V = 1/V.
    """

    @staticmethod
    def _spectra():
        import sympy

        c, s = sympy.symbols("c s", real=True)
        big_u, big_v, x = sympy.symbols("U V x")
        half = 1 / sympy.sqrt(2)
        kets = {
            "z": sympy.Matrix([1, 0]),
            "x": sympy.Matrix([half, half]),
            "y": sympy.Matrix([half, sympy.I * half]),
        }
        unitary = sympy.Matrix([[c, big_u * s], [-big_v * s, big_u * big_v * c]])

        def conj(z):
            return sympy.conjugate(z).xreplace(
                {sympy.conjugate(big_u): 1 / big_u, sympy.conjugate(big_v): 1 / big_v}
            )

        def characteristic(image, branches):
            # (1/sqrt 3) sum_i |i>_A |l1_i> |image(l2_i)>_B, as its amplitude
            # matrix; rho_A = M M^H with s^2 reduced to 1 - c^2
            rows = [
                [a * b for a in kets[l1] for b in image(kets[l2])] for l1, l2 in branches
            ]
            m = sympy.Matrix(rows) / sympy.sqrt(3)
            rho = (m * m.T.applyfunc(conj)).applyfunc(
                lambda z: sympy.reduced(sympy.expand(z), [s**2 + c**2 - 1], s, c)[1]
            )
            return sympy.expand((x * sympy.eye(3) - rho).det(method="berkowitz"))

        def descending_roots(poly):
            roots = sympy.roots(poly, x)
            return sorted(
                (root for root, times in roots.items() for _ in range(times)), key=lambda r: -r
            )

        branches = (("z", "z"), ("x", "y"), ("y", "x"))
        initial = characteristic(lambda k: k, branches)
        final = characteristic(lambda k: (unitary * k).applyfunc(conj), branches)
        return x, final, descending_roots(initial), descending_roots(final)

    def test_final_characteristic_polynomial_is_parameter_free(self):
        import sympy

        x, final, _, roots = self._spectra()
        assert sympy.expand(final - (x**3 - x**2 + x / 4 - sympy.Rational(1, 108))) == 0
        third, gap = sympy.Rational(1, 3), 1 / (2 * sympy.sqrt(3))
        expected = (third + gap, third, third - gap)
        assert all(sympy.simplify(r - e) == 0 for r, e in zip(roots, expected, strict=True))
        np.testing.assert_allclose([float(r) for r in roots], CHI_FINAL_SCHMIDT, rtol=0, atol=1e-15)

    def test_initial_final_pair_incomparable_with_exact_margins(self):
        import sympy

        _, _, initial, final = self._spectra()
        assert initial == [sympy.Rational(2, 3), sympy.Rational(1, 6), sympy.Rational(1, 6)]
        # the partial sums cross: the initial vector leads after one term and
        # trails after two, so neither majorizes the other
        first = initial[0] - final[0]
        second = (final[0] + final[1]) - (initial[0] + initial[1])
        root3 = sympy.sqrt(3)
        assert sympy.simplify(first - (sympy.Rational(1, 3) - 1 / (2 * root3))) == 0
        assert sympy.simplify(second - (1 / (2 * root3) - sympy.Rational(1, 6))) == 0
        assert first > 0 and second > 0
        label = classify_pair([float(v) for v in initial], [float(v) for v in final]).label
        assert label is PairLabel.INCOMPARABLE


def _bits(array):
    """The bytes of an array's values, signs of zero included."""
    return np.ascontiguousarray(array).tobytes()


class TestMatrixLastStacks:
    def test_stacked_pi_final_equals_scalar_calls(self):
        rng = np.random.default_rng(83)
        phi, delta = rng.uniform(0.0, 2.0 * math.pi, size=(2, 50))
        alpha, beta = np.cos(phi), np.sin(phi) * np.exp(1j * delta)
        stack = pi_final(alpha, beta)
        assert stack.shape == (3, 4, 50)
        for i in range(50):
            one = pi_final(complex(alpha[i]), complex(beta[i]))
            assert one.shape == (3, 4)
            assert _bits(stack[..., i]) == _bits(one)

    def test_stacked_chi_final_equals_one_point_calls(self):
        # one-point arrays, not Python floats: numpy multiplies complex
        # scalars with other roundings than complex arrays
        angles = np.random.default_rng(89).uniform(0.0, 2.0 * math.pi, size=(3, 50))
        stack = chi_final(*angles)
        assert stack.shape == (3, 4, 50)
        for i in range(50):
            one = chi_final(*angles[:, i : i + 1])
            assert _bits(stack[..., i : i + 1]) == _bits(one)
        np.testing.assert_allclose(chi_final(*angles[:, 0]), stack[..., 0], rtol=0, atol=1e-15)


class TestEmptyGrids:
    def test_builders_and_schmidt_vector_on_empty_arrays(self):
        empty = np.array([])
        for state in (pi_final(empty, empty), chi_final(empty, empty, empty)):
            assert state.shape == (3, 4, 0)
            assert schmidt_vector(state).shape == (0, 3)


class TestSuperpositionScenario:
    def test_initial_schmidt_vector(self):
        np.testing.assert_allclose(
            schmidt_vector(pi_initial()), PI_INITIAL_SCHMIDT, atol=1e-12
        )

    def test_initial_density_matches_closed_form(self):
        np.testing.assert_allclose(
            reduced_density_a(pi_initial()),
            pi_initial_density_closed_form(),
            atol=1e-12,
        )

    def test_initial_density_corner_entry(self):
        rho = reduced_density_a(pi_initial())
        assert 3.0 * rho[1, 2] == pytest.approx(-0.5j, abs=1e-12)

    def test_identity_params_reproduce_initial_state(self):
        # bit for bit: the certified kernel reads the initial state as this point
        identity, initial = pi_final(1.0, 0.0), pi_initial()
        assert identity.dtype == initial.dtype and identity.shape == initial.shape
        assert identity.tobytes() == initial.tobytes()

    def test_flipping_schmidt_vector(self):
        vec = schmidt_vector(pi_final(0, 1))
        np.testing.assert_allclose(vec, CHI_INITIAL_SCHMIDT, atol=1e-12)

    def test_hadamard_pair_incomparable(self):
        final = schmidt_vector(pi_final(SQ2, SQ2))
        assert classify_pair(PI_INITIAL_SCHMIDT, final).label is PairLabel.INCOMPARABLE

    def test_final_density_matches_closed_form(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            p = random_ipp_params(rng)
            np.testing.assert_allclose(
                reduced_density_a(pi_final(*p)),
                pi_final_density_closed_form(*p),
                atol=1e-12,
            )

    def test_final_state_at_the_norm_tolerance_edge(self):
        # _unit_amplitudes accepts this pair (|alpha|^2 + |beta|^2 is 1 + 9.9987e-13),
        # and rounding puts the 12 derived amplitudes' norm past NORM_TOL;
        # pi_final builds the state anyway, with the kernel's spectrum
        alpha, beta = 0.6236624066638249, -0.35862063110343056 - 0.694576450408638j
        state = pi_final(alpha, beta)
        assert state.shape == (3, 4)
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) > NORM_TOL
        lams = point(alpha, beta)
        np.testing.assert_allclose(
            schmidt_vector(state), [lams["lam1"], lams["lam2"], lams["lam3"]], atol=1e-12
        )

    def test_scenarios_meet_at_flipping_points(self):
        # the superposition scenario's flipping point lands on the other
        # scenario's initial vector, and vice versa
        np.testing.assert_allclose(
            schmidt_vector(pi_final(0, 1)), CHI_INITIAL_SCHMIDT, atol=1e-10
        )
        np.testing.assert_allclose(
            schmidt_vector(chi_final(math.pi / 2, 0, 0)),
            PI_INITIAL_SCHMIDT,
            atol=1e-10,
        )


class TestOffDiagonalCoefficients:
    def test_identity_point(self):
        p, q, r = pqr(1, 0)
        assert p == pytest.approx(0.5)
        assert q == pytest.approx(0.5)
        assert r == pytest.approx(-0.5j)

    def test_flipping_point(self):
        p, q, r = pqr(0, 1)
        assert p == pytest.approx(-0.5)
        assert q == pytest.approx(0.5j)
        assert r == pytest.approx(-0.5j)

    def test_hadamard_point(self):
        p, q, r = pqr(SQ2, SQ2)
        assert p == pytest.approx(0.5)
        assert q == pytest.approx(0.5)
        assert r == pytest.approx(0.5 - 0.5j)

    def test_p_real_and_r_imaginary_part_fixed(self):
        rng = np.random.default_rng(127)
        for _ in range(200):
            p, _, r = pqr(*random_ipp_params(rng))
            assert abs(complex(p).imag) <= 1e-15
            assert complex(r).imag == pytest.approx(-0.5, abs=1e-15)


class TestCubicData:
    def test_cubic_coefficients_frozen_points(self):
        assert cubic_coefficients(*pqr(0, 1)) == pytest.approx((0.25, 0.25))
        assert cubic_coefficients(*pqr(1, 0)) == pytest.approx((0.25, 0.0))
        assert cubic_coefficients(*pqr(SQ2, SQ2)) == pytest.approx(
            (1 / 3, 0.25), abs=1e-12
        )

    def test_real_ab_frozen_points(self):
        assert real_ab(1, 0) == pytest.approx((0.25, 0.0), abs=1e-15)
        assert real_ab(0, 1) == pytest.approx((0.25, 0.25), abs=1e-15)
        assert real_ab(SQ2, SQ2) == pytest.approx((1 / 3, 0.25), abs=1e-12)

    def test_real_ab_requires_normalization(self):
        with pytest.raises(ValueError):
            real_ab(1.0, 0.5)

    def test_real_ab_matches_coefficient_route(self):
        rng = np.random.default_rng(131)
        for _ in range(1000):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            alpha, beta = math.cos(phi), math.sin(phi)
            via_pqr = cubic_coefficients(*pqr(alpha, beta))
            via_shortcut = real_ab(alpha, beta)
            assert via_shortcut[0] == pytest.approx(via_pqr[0], abs=1e-12)
            assert via_shortcut[1] == pytest.approx(via_pqr[1], abs=1e-12)

    def test_big_a_floor_over_random_params(self):
        # Im r = -1/2 exactly, so 3A >= |r|^2 >= 1/4 pins A at or above 1/12
        rng = np.random.default_rng(137)
        for _ in range(1000):
            c = pqr(*random_ipp_params(rng))
            assert c[2].imag == -0.5
            big_a, _ = cubic_coefficients(*c)
            assert big_a >= 1 / 12


class TestSpectrumFromAB:
    def test_flipping_spectrum(self):
        spec = spectrum_at(0.25, 0.25)
        np.testing.assert_allclose(spec, CHI_INITIAL_SCHMIDT, atol=1e-12)

    def test_identity_spectrum(self):
        spec = spectrum_at(0.25, 0.0)
        np.testing.assert_allclose(spec, PI_INITIAL_SCHMIDT, atol=1e-12)

    def test_hadamard_spectrum(self):
        spec = spectrum_at(1 / 3, 0.25)
        np.testing.assert_allclose(spec, HADAMARD_SPECTRUM, atol=1e-12)

    # The next three check the spectrum_at oracle's own refusals in
    # tests/oracles.py, not the package's, which takes no (A, B) alone.
    def test_degenerate_input(self):
        # A below 1/12 is unrealizable, the degenerate spectrum A = 0 included
        for big_a in (0.0, 0.05):
            with pytest.raises(ValueError, match="1/12"):
                spectrum_at(big_a, 0.0)

    def test_rejects_negative_a(self):
        with pytest.raises(ValueError):
            spectrum_at(-0.1, 0.0)

    def test_rejects_domain_violation(self):
        with pytest.raises(ValueError):
            spectrum_at(0.25, 1.0)

    def test_eigen_angle_range_and_sum(self):
        rng = np.random.default_rng(139)
        for _ in range(500):
            big_a, big_b = cubic_coefficients(*pqr(*random_ipp_params(rng)))
            spec = spectrum_at(big_a, big_b)
            # an eigen-angle in [0, pi/3] puts the largest root x = 1 - 3 lam3
            # = 2 sqrt(A) cos(angle) in [sqrt(A), 2 sqrt(A)]
            largest = 1.0 - 3.0 * spec[2]
            assert math.sqrt(big_a) - 1e-14 <= largest <= 2.0 * math.sqrt(big_a) + 1e-14
            assert float(np.sum(spec)) == pytest.approx(1.0, abs=1e-10)
            assert big_b**2 <= 4.0 * big_a**3 + 1e-12

    def test_closed_form_matches_direct_construction(self):
        rng = np.random.default_rng(149)
        for _ in range(1000):
            p = random_ipp_params(rng)
            spec = spectrum_at(*cubic_coefficients(*pqr(*p)))
            np.testing.assert_allclose(
                spec, schmidt_vector(pi_final(*p)), atol=1e-10
            )

    def test_closed_form_matches_jacobi_on_closed_form_density(self):
        rng = np.random.default_rng(151)
        for _ in range(200):
            p = random_ipp_params(rng)
            spec = spectrum_at(*cubic_coefficients(*pqr(*p)))
            jac = eigenvalues_hermitian_jacobi(pi_final_density_closed_form(*p))
            np.testing.assert_allclose(spec, jac, atol=1e-10)

    def test_spectrum_record_rejects_bad_sum(self):
        from qincomp.scenarios import _check_spectrum_sum

        with pytest.raises(ValueError):
            _check_spectrum_sum(np.array([0.5, 0.4, 0.2]))


def _mp_spectrum(alpha, beta):
    """The final-state spectrum at 50 digits, ascending: the eigenvalues of
    (I + K)/3, K Hermitian with zero diagonal and upper entries p, q, r, all
    evaluated in mpmath from the exact values of the float amplitudes."""
    import mpmath

    with mpmath.workdps(50):
        a, b = mpmath.mpc(alpha), mpmath.mpc(beta)
        cross = a * mpmath.conj(b) + b * mpmath.conj(a)
        p = (abs(a) ** 2 - abs(b) ** 2 + cross) / 2
        q = (abs(a) ** 2 + 1j * abs(b) ** 2 + a * mpmath.conj(b) - 1j * b * mpmath.conj(a)) / 2
        r = (cross - 1j) / 2
        k = mpmath.matrix([[0, p, q], [mpmath.conj(p), 0, r], [mpmath.conj(q), mpmath.conj(r), 0]])
        mu = mpmath.eighe(k, eigvals_only=True)
        return [float((1 + m) / 3) for m in mu]


class TestDiscriminantRoot:
    """sqrt(4A^3 - B^2) as sqrt((2A/3) ||R||_F^2), R = K^2 - 2A I - (B/2A) K."""

    def test_identity_is_exact(self):
        import sympy

        # p, q, r and their conjugates as six independent symbols: a linear
        # change of variables from the six real and imaginary parts, so an
        # identity in these is one for every complex p, q, r
        p, q, r, pc, qc, rc = sympy.symbols("p q r pc qc rc")
        conjugate = {p: pc, q: qc, r: rc, pc: p, qc: q, rc: r}
        k = sympy.Matrix([[0, p, q], [pc, 0, r], [qc, rc, 0]])
        big_a = (p * pc + q * qc + r * rc) / 3
        big_b = p * r * qc + pc * rc * q
        # 2A R, so that 4A^3 - B^2 = (2A/3) ||R||^2 reads
        # 6A (4A^3 - B^2) = ||2A R||^2 with no division
        scaled = (2 * big_a * k**2 - 4 * big_a**2 * sympy.eye(3) - big_b * k).expand()
        norm = sum(z * z.xreplace(conjugate) for z in scaled)
        assert sympy.expand(6 * big_a * (4 * big_a**3 - big_b**2) - norm) == 0

    def test_matches_high_precision_reference(self):
        import mpmath

        rng = np.random.default_rng(157)
        for _ in range(50):
            coefficients = pqr(*random_ipp_params(rng))
            root = float(_discriminant_root(*coefficients, *cubic_coefficients(*coefficients)))
            with mpmath.workdps(50):
                c = [mpmath.mpc(complex(z)) for z in coefficients]
                big_a = sum(abs(z) ** 2 for z in c) / 3
                big_b = 2 * mpmath.re(c[0] * c[2] * mpmath.conj(c[1]))
                exact = float(mpmath.sqrt(4 * big_a**3 - big_b**2))
            assert root == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            # the flipping family where the 12 x 6 grid meets it, phi = pi/2
            *[(math.cos(math.pi / 2), np.exp(2j * math.pi * j / 6) * math.sin(math.pi / 2))
              for j in range(6)],
            (1e-12, 1.0),
            (1.0, 0.0),
            (SQ2, SQ2),
        ],
    )
    def test_kernel_spectrum_to_1e_14(self, alpha, beta):
        # the kernel's trig eigenvalues, including on the double-root family
        # where 4A^3 - B^2 formed directly cancels to 1e-17 noise
        row = point(alpha, beta)
        trig = [row["lam3"], row["lam2"], row["lam1"]]
        np.testing.assert_allclose(trig, _mp_spectrum(alpha, beta), rtol=0, atol=1e-14)
