"""Tests for the (A, B) case analysis and the kernel's verification of its
predictions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import point, spectrum_at, verdict_at
from qincomp.cases import (
    _ADMITTED,
    _PREDICTIONS,
    SQRT3_HALF,
    CaseId,
    Prediction,
    Subcase,
    _verdict,
)
from qincomp.majorization import _LABELS, MAJORIZATION_TOL, PairLabel, classify_pair
from qincomp.scenarios import (
    build_pi_initial,
    cubic_coefficients,
    pi_final,
    pqr,
)
from qincomp.states import schmidt_vector

SQ2 = 1.0 / math.sqrt(2.0)


class TestPredictCase:
    def test_flipping_point_is_incomparable(self):
        verdict = verdict_at(0.25, 0.25)
        assert verdict.case_id is CaseId.B_POS
        assert verdict.subcase is Subcase.A_EQ_QUARTER
        assert verdict.predicted is Prediction.INCOMPARABLE
        assert verdict.condition is None

    def test_identity_point_is_not_incomparable(self):
        verdict = verdict_at(0.25, 0.0)
        assert verdict.case_id is CaseId.B_ZERO
        assert verdict.subcase is Subcase.A_EQ_QUARTER
        assert verdict.predicted is Prediction.NOT_INCOMPARABLE

    def test_zero_b_small_a_is_entanglement_increase(self):
        verdict = verdict_at(1 / 6, 0.0)
        assert verdict.case_id is CaseId.B_ZERO
        assert verdict.subcase is Subcase.A_LT_QUARTER
        assert verdict.predicted is Prediction.ENTANGLEMENT_INCREASE

    def test_positive_b_small_a(self):
        verdict = verdict_at(0.2, 0.1)
        assert verdict.case_id is CaseId.B_POS
        assert verdict.subcase is Subcase.A_LT_QUARTER
        assert verdict.predicted is Prediction.INCOMPARABLE_OR_INCREASE

    def test_negative_b_small_a(self):
        verdict = verdict_at(0.2, -0.1)
        assert verdict.case_id is CaseId.B_NEG
        assert verdict.predicted is Prediction.INCOMPARABLE_OR_INCREASE

    def test_negative_b_quarter_a_is_incomparable(self):
        assert verdict_at(0.25, -0.2).predicted is Prediction.INCOMPARABLE

    def test_positive_b_large_a_conditional_metadata(self):
        verdict = verdict_at(1 / 3, 0.25)
        assert verdict.case_id is CaseId.B_POS
        assert verdict.subcase is Subcase.A_GT_QUARTER
        assert verdict.predicted is Prediction.CONDITIONAL
        # the condition is 2 sqrt(A) cos(angle), the middle cubic root
        assert verdict.condition_value == spectrum_at(1 / 3, 0.25).roots[1]
        assert verdict.condition == (verdict.condition_value < SQRT3_HALF - 3 * MAJORIZATION_TOL)
        # at the Hadamard point the smallest-root expression stays below
        # the threshold, so incomparability is predicted
        assert verdict.condition is True

    @pytest.mark.parametrize(
        "func, big_a, big_b",
        [
            # Self-checks of the oracles: these are refused by
            # tests/oracles.py's _ab_discriminant_root before the package is
            # called, since the kernel takes the discriminant root from the
            # amplitudes and never sees (A, B) alone.
            pytest.param(verdict_at, math.nan, 0.1, id="nan_a"),
            pytest.param(verdict_at, math.inf, 0.0, id="inf_a"),
            pytest.param(verdict_at, -0.1, 0.0, id="negative_a"),
            # A below 1/12: Im r = -1/2 keeps every realizable A at or above it
            pytest.param(verdict_at, 0.0, 0.0, id="zero_a"),
            pytest.param(verdict_at, 0.05, 0.0, id="a_below_twelfth"),
            pytest.param(verdict_at, 0.2, 0.5, id="b_squared_above_4a_cubed"),
            pytest.param(spectrum_at, math.nan, 0.0, id="spectrum_nan_a"),
            # Package refusals, reached through the oracles: the spectrum-sum
            # check of scenarios.spectrum_from_ab and the unrealizable-data
            # check of cases.predict_case.
            # 4 A^3 overflows to inf: refused by the spectrum-sum check,
            # with no numpy overflow warning (warnings are errors here)
            pytest.param(verdict_at, 1e103, 0.1, id="huge_a_1e103"),
            pytest.param(verdict_at, 1.7e308, 0.1, id="huge_a_1.7e308"),
            pytest.param(spectrum_at, 1e200, 0.1, id="spectrum_huge_a_1e200"),
            pytest.param(spectrum_at, 1e300, 0.1, id="spectrum_huge_a_1e300"),
            # 4 A^3 and B^2 both overflow: inf - inf is a nan root, refused
            # by the spectrum-sum check, again with no warning
            pytest.param(verdict_at, 1e200, 1e300, id="huge_a_huge_b"),
            pytest.param(spectrum_at, 1e200, 1e300, id="spectrum_huge_a_huge_b"),
            pytest.param(spectrum_at, 1e200, -1e300, id="spectrum_huge_a_huge_negative_b"),
            # A above 1/4 with B not above 0: no amplitudes realize these
            pytest.param(verdict_at, 1 / 3, -0.25, id="negative_b_large_a"),
            pytest.param(verdict_at, 0.3, -0.1, id="small_negative_b_large_a"),
            pytest.param(verdict_at, 0.3, 0.0, id="zero_b_large_a"),
        ],
    )
    def test_refuses_invalid_or_unrealizable_data(self, func, big_a, big_b):
        with pytest.raises(ValueError):
            func(big_a, big_b)

    def test_band_width_on_b(self):
        assert verdict_at(0.2, 5e-13).case_id is CaseId.B_ZERO
        assert verdict_at(0.2, 5e-12).case_id is CaseId.B_POS
        assert verdict_at(0.2, -5e-12).case_id is CaseId.B_NEG

    def test_band_width_on_a(self):
        assert verdict_at(0.25 + 5e-13, 0.1).subcase is Subcase.A_EQ_QUARTER
        assert verdict_at(0.25 + 5e-12, 0.1).subcase is Subcase.A_GT_QUARTER


def _admitted(prediction, label):
    return bool(_ADMITTED[_PREDICTIONS.index(prediction), _LABELS.index(label)])


class TestPredictionConsistent:
    """The pair labels each unconditional prediction admits, read from the
    table that the kernel's agree column reads."""

    def test_incomparable_prediction(self):
        assert _admitted(Prediction.INCOMPARABLE, PairLabel.INCOMPARABLE)
        assert not _admitted(Prediction.INCOMPARABLE, PairLabel.CONVERTIBLE_FORWARD)

    def test_increase_prediction(self):
        assert _admitted(Prediction.ENTANGLEMENT_INCREASE, PairLabel.CONVERTIBLE_BACKWARD)
        assert not _admitted(Prediction.ENTANGLEMENT_INCREASE, PairLabel.EQUAL)

    def test_two_way_prediction(self):
        assert _admitted(Prediction.INCOMPARABLE_OR_INCREASE, PairLabel.INCOMPARABLE)
        assert _admitted(Prediction.INCOMPARABLE_OR_INCREASE, PairLabel.CONVERTIBLE_BACKWARD)
        assert not _admitted(Prediction.INCOMPARABLE_OR_INCREASE, PairLabel.CONVERTIBLE_FORWARD)

    def test_not_incomparable_prediction(self):
        assert _admitted(Prediction.NOT_INCOMPARABLE, PairLabel.EQUAL)
        assert _admitted(Prediction.NOT_INCOMPARABLE, PairLabel.CONVERTIBLE_FORWARD)
        assert _admitted(Prediction.NOT_INCOMPARABLE, PairLabel.CONVERTIBLE_BACKWARD)
        assert not _admitted(Prediction.NOT_INCOMPARABLE, PairLabel.INCOMPARABLE)

    def test_conditional_prediction_follows_condition(self):
        verdict = verdict_at(1 / 3, 0.25)
        assert verdict.condition
        # the table admits nothing for CONDITIONAL; agree reads the condition
        assert not any(_admitted(Prediction.CONDITIONAL, label) for label in PairLabel)
        hadamard = point(SQ2, SQ2)  # (A, B) = (1/3, 1/4)
        assert hadamard["predicted"] is Prediction.CONDITIONAL
        assert hadamard["observed"] is PairLabel.INCOMPARABLE
        assert hadamard["agree"]


class TestVerifyPrediction:
    """The kernel's check of a prediction against the observed pair, read
    at one point."""

    def test_identity_point(self):
        check = point(1, 0)
        assert check["predicted"] is Prediction.NOT_INCOMPARABLE
        assert check["observed"] is PairLabel.EQUAL
        assert check["entropy_f"] - check["entropy_i"] == pytest.approx(0.0, abs=1e-12)
        assert check["agree"]

    def test_flipping_point(self):
        check = point(0, 1)
        assert check["predicted"] is Prediction.INCOMPARABLE
        assert check["observed"] is PairLabel.INCOMPARABLE
        assert check["entropy_f"] - check["entropy_i"] == pytest.approx(0.09694739822315, abs=1e-10)
        assert check["agree"]

    def test_hadamard_point(self):
        check = point(SQ2, SQ2)
        assert check["predicted"] is Prediction.CONDITIONAL
        verdict = _verdict(check["case"], check["subcase"], check["predicted"], check["roots"])
        assert verdict.condition
        assert check["observed"] is PairLabel.INCOMPARABLE
        assert check["agree"]

    def test_observed_verdict_is_classify_pair(self):
        initial = schmidt_vector(build_pi_initial())
        for alpha, beta in ((1, 0), (0, 1), (SQ2, SQ2), (0.6, 0.8j), (0.8, -0.6)):
            observed = point(alpha, beta)["observed"]
            direct = classify_pair(initial, schmidt_vector(pi_final(alpha, beta)))
            assert observed is direct.label

    def test_agreement_over_complex_grid(self):
        agreements = 0
        total = 0
        for i in range(60):
            phi = 2.0 * math.pi * i / 60
            for j in range(12):
                delta = 2.0 * math.pi * j / 12
                total += 1
                agreements += point(math.cos(phi), np.exp(1j * delta) * math.sin(phi))["agree"]
        assert total == 720
        assert agreements == total


# B - (3/2)(A - 1/4) = b^2 H(a, b, c, s) for a = |alpha|, b = |beta|,
# c = cos(delta), s = sin(delta), delta = arg(beta) - arg(alpha).  Each term
# of H is (coefficient, exponent of a, of b, of c, of s).
H_TERMS = (
    (Fraction(1), 1, 3, 1, 2),
    (Fraction(1), 1, 3, 0, 3),
    (Fraction(-1), 1, 3, 0, 1),
    (Fraction(-1), 1, 1, 1, 2),
    (Fraction(-1), 1, 1, 0, 3),
    (Fraction(1), 1, 1, 0, 1),
    (Fraction(1), 0, 4, 1, 1),
    (Fraction(-2), 0, 4, 0, 2),
    (Fraction(2), 0, 4, 0, 0),
    (Fraction(-3, 2), 0, 2, 1, 1),
    (Fraction(3), 0, 2, 0, 2),
    (Fraction(-3), 0, 2, 0, 0),
    (Fraction(1, 2), 0, 0, 1, 1),
    (Fraction(-1), 0, 0, 0, 2),
    (Fraction(5, 4), 0, 0, 0, 0),
)


def _h(a, b, c, s):
    """H over arrays (or scalars) of a, b, c, s."""
    return sum(float(k) * a**i * b**j * c**m * s**n for k, i, j, m, n in H_TERMS)


class TestBoundaryArbitration:
    """A > 1/4 forces B > 0, proved rather than sampled: B - (3/2)(A - 1/4)
    is b^2 H exactly, and H is positive on the whole (phi, delta) torus."""

    def test_identity_is_exact(self):
        import sympy

        a, b, c, s = sympy.symbols("a b c s", real=True)
        h = sum(sympy.Rational(k.numerator, k.denominator) * a**i * b**j * c**m * s**n
                for k, i, j, m, n in H_TERMS)
        # the pqr formulas at alpha = a, beta = b e^{i delta}; the global
        # phase cancels in every one of them
        alpha, beta = a, b * (c + sympy.I * s)
        cross = alpha * sympy.conjugate(beta) + beta * sympy.conjugate(alpha)
        p = (a**2 - b**2 + cross) / 2
        q = (a**2 + sympy.I * b**2 + alpha * sympy.conjugate(beta)
             - sympy.I * beta * sympy.conjugate(alpha)) / 2
        r = (cross - sympy.I) / 2
        big_a = sum(sympy.expand(z * sympy.conjugate(z)) for z in (p, q, r)) / 3
        big_b = sympy.expand(2 * sympy.re(sympy.expand(p * r * sympy.conjugate(q))))
        difference = sympy.expand(big_b - sympy.Rational(3, 2) * (big_a - sympy.Rational(1, 4)) - b**2 * h)
        _, remainder = sympy.reduced(
            difference, [a**2 + b**2 - 1, c**2 + s**2 - 1], a, b, c, s, domain="QQ"
        )
        assert remainder == 0

    def test_h_is_positive_on_the_torus(self):
        # With a = cos(phi), b = sin(phi), each of a, b has derivative at
        # most 1 in phi, so |dH/dphi| <= sum |k| (i + j); likewise in delta.
        d_phi = sum(abs(k) * (i + j) for k, i, j, _, _ in H_TERMS)
        d_delta = sum(abs(k) * (m + n) for k, _, _, m, n in H_TERMS)
        assert (d_phi, d_delta) == (53, 32)
        # Cell-centred grid over [0, 2 pi)^2: every point of the torus lies
        # within half a cell, pi/cells (widened for the rounded centres), of
        # a centre in each angle.
        cells = 4452
        half = math.pi / cells * (1 + 1e-9)
        centres = (np.arange(cells) + 0.5) * (2.0 * math.pi / cells)
        cos, sin = np.cos(centres), np.sin(centres)
        # H = F G^T with F holding the (a, b) factors and G the (c, s) ones
        f = np.stack([float(k) * cos**i * sin**j for k, i, j, _, _ in H_TERMS], axis=1)
        g = np.stack([cos**m * sin**n for _, _, _, m, n in H_TERMS], axis=0)
        lowest = min(float(np.min(f[rows] @ g)) for rows in np.array_split(np.arange(cells), 16))
        # Rounding: each term is its coefficient times at most 7 factors of
        # magnitude <= 1, each factor within a few ulp of the exact cos or
        # sin, and the 15 terms are summed once; with |coefficients| adding
        # to 85/4 the float value of H is within 85/4 * 40 * 1.2e-16 < 1e-12
        # of H at the rounded centre.
        rounding = 1e-9
        certified = lowest - (d_phi + d_delta) * half - rounding
        assert certified > 0.005

    def test_vectorized_coefficients_match_module(self):
        # the package's (A, B) satisfy the identity, whatever the global phase
        rng = np.random.default_rng(163)
        for _ in range(2000):
            phi, delta, phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
            alpha = np.exp(1j * phase) * math.cos(phi)
            beta = np.exp(1j * (phase + delta)) * math.sin(phi)
            big_a, big_b = cubic_coefficients(*pqr(alpha, beta))
            a, b = abs(alpha), abs(beta)
            angle = np.angle(beta) - np.angle(alpha)
            lhs = big_b - 1.5 * (big_a - 0.25)
            assert lhs == pytest.approx(b**2 * _h(a, b, math.cos(angle), math.sin(angle)), abs=1e-12)
