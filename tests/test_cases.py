"""Tests for the (A, B) case analysis and the kernel's verification of its
predictions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import largest_root, pi_initial, point, spectrum_at, verdict_at
from qincomp.cases import (
    _ADMITTED,
    _DECISION,
    _PREDICTIONS,
    _UNREALIZABLE,
    SQRT3_HALF,
    CaseId,
    Prediction,
    Subcase,
    _conditional_incomparable,
)
from qincomp.majorization import _LABELS, MAJORIZATION_TOL, PairLabel, classify_pair
from qincomp.scenarios import (
    PI_INITIAL_SCHMIDT,
    cubic_coefficients,
    pi_final,
    pqr,
)
from qincomp.states import schmidt_vector
from qincomp.sweep import summarize, sweep_complex, sweep_real

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
        # the condition reads (A, B) alone; it is the comparison of the
        # largest cubic root, 1 - 3 lam3 of the trig spectrum, with the threshold
        largest = 1.0 - 3.0 * spectrum_at(1 / 3, 0.25)[2]
        assert largest == pytest.approx(largest_root(1 / 3, 0.25), abs=1e-15)
        assert verdict.condition == (largest < SQRT3_HALF - 3 * MAJORIZATION_TOL)
        # at the Hadamard point the largest root stays below the threshold,
        # so incomparability is predicted
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
        assert _conditional_incomparable(check["A"], check["B"])
        assert check["observed"] is PairLabel.INCOMPARABLE
        assert check["agree"]

    def test_observed_verdict_is_classify_pair(self):
        initial = schmidt_vector(pi_initial())
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


def _symbolic_pqr(a, b, c, s):
    """The pqr formulas at alpha = a, beta = b e^{i delta}, with c, s = cos,
    sin of delta, as sympy expressions; the global phase cancels in every
    one of them."""
    import sympy

    alpha, beta = a, b * (c + sympy.I * s)
    cross = alpha * sympy.conjugate(beta) + beta * sympy.conjugate(alpha)
    return (
        (a**2 - b**2 + cross) / 2,
        (a**2 + sympy.I * b**2 + alpha * sympy.conjugate(beta)
         - sympy.I * beta * sympy.conjugate(alpha)) / 2,
        (cross - sympy.I) / 2,
    )


def _reduced_on_torus(expression, symbols):
    """The remainder of a polynomial in (a, b, c, s) modulo a^2 + b^2 - 1
    and c^2 + s^2 - 1: 0 iff it vanishes for every valid amplitude pair."""
    import sympy

    a, b, c, s = symbols
    _, remainder = sympy.reduced(
        sympy.expand(expression), [a**2 + b**2 - 1, c**2 + s**2 - 1], *symbols, domain="QQ"
    )
    return remainder


def _h(a, b, c, s):
    """H over arrays (or scalars) of a, b, c, s."""
    return sum(float(k) * a**i * b**j * c**m * s**n for k, i, j, m, n in H_TERMS)


class TestBoundaryArbitration:
    """A > 1/4 forces B > 0, proved rather than sampled: B - (3/2)(A - 1/4)
    is b^2 H exactly, and H is positive on the whole (phi, delta) torus."""

    def test_identity_is_exact(self):
        import sympy

        a, b, c, s = symbols = sympy.symbols("a b c s", real=True)
        h = sum(sympy.Rational(k.numerator, k.denominator) * a**i * b**j * c**m * s**n
                for k, i, j, m, n in H_TERMS)
        p, q, r = _symbolic_pqr(*symbols)
        big_a = sum(sympy.expand(z * sympy.conjugate(z)) for z in (p, q, r)) / 3
        big_b = sympy.expand(2 * sympy.re(sympy.expand(p * r * sympy.conjugate(q))))
        difference = sympy.expand(big_b - sympy.Rational(3, 2) * (big_a - sympy.Rational(1, 4)) - b**2 * h)
        assert _reduced_on_torus(difference, symbols) == 0

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


def _sign_variations(values) -> int:
    """Sign changes along a sequence of non-zero numbers."""
    signs = [value > 0 for value in values]
    return sum(left != right for left, right in zip(signs, signs[1:]))


class TestLinearForms:
    """The verdict is decided by the signs of L+- = f(+-c), c = sqrt(3)/2,
    for the final cubic f(x) = x^3 - 3Ax + B, whose roots are x = 1 - 3 lam;
    the initial vector sits at x = -c, 0, c.  Proved exactly with sympy."""

    def test_forms_are_the_cubic_at_the_initial_roots(self):
        import sympy

        x, big_a, big_b = sympy.symbols("x A B", real=True)
        f = x**3 - 3 * big_a * x + big_b
        c = sympy.sqrt(3) / 2
        for sign in (1, -1):
            form = big_b + sign * 3 * sympy.sqrt(3) / 8 * (1 - 4 * big_a)
            assert sympy.expand(f.subs(x, sign * c) - form) == 0
        # the initial vector is the cubic at (A, B) = (1/4, 0): roots -c, 0, c
        initial = sympy.expand(x * (x - c) * (x + c))
        assert sympy.expand(initial - f.subs({big_a: sympy.Rational(1, 4), big_b: 0})) == 0
        np.testing.assert_allclose(
            [1 - 3 * lam for lam in PI_INITIAL_SCHMIDT], [-SQRT3_HALF, 0.0, SQRT3_HALF], atol=1e-15
        )

    def test_a_is_at_most_two_thirds(self):
        # 3A = |p|^2 + |q|^2 + |r|^2 with |p|^2 <= 1/2, |q|^2 <= 1 and
        # |r|^2 <= 1/2, each by a sum of squares that equals the slack for
        # every valid amplitude pair; u, v = cos 2 phi, sin 2 phi and
        # w = c + s, with c, s = cos, sin of delta
        import sympy

        a, b, c, s = symbols = sympy.symbols("a b c s", real=True)
        u, v, w = a**2 - b**2, 2 * a * b, c + s
        p, q, r = _symbolic_pqr(*symbols)
        certificates = (
            (p, 2, (u * c - v) ** 2 + s**2),
            (q, 4, v**2 / 2 + (u - v * w / 2) ** 2 + v**2 * (2 + (c - s) ** 2) / 4
             + u**2 + v**2 * (c - s) ** 2 / 2 + 1),
            (r, 2, u**2 + v**2 * s**2),
        )
        for z, bound, squares in certificates:
            slack = bound - 4 * sympy.expand(z * sympy.conjugate(z))
            assert _reduced_on_torus(slack - squares, symbols) == 0
        # so 12A <= 2 + 4 + 2, and c^2 = 3/4 exceeds that bound: c > sqrt(A)
        a_bound = sympy.Rational(sum(bound for _, bound, _ in certificates), 12)
        assert a_bound == sympy.Rational(2, 3) < (sympy.sqrt(3) / 2) ** 2

    def test_budan_fourier_places_the_extreme_roots(self):
        # With A <= 2/3 the derivative sequence (f, f', f'', f''') has
        # f' = 9/4 - 3A >= 1/4 at +-c, f'' = +-6c and f''' = 6.  All three
        # roots are real (K = 3 rho - I is Hermitian) and V(-inf) - V(inf)
        # = 3, so Budan-Fourier counts the roots of every interval exactly.
        import sympy

        x, big_a = sympy.symbols("x A", real=True)
        c = sympy.sqrt(3) / 2
        f_tail = [sympy.diff(x**3 - 3 * big_a * x, x, k) for k in (1, 2, 3)]
        assert [sympy.expand(g.subs(x, c)) for g in f_tail] == [sympy.Rational(9, 4) - 3 * big_a, 6 * c, 6]
        assert sympy.Rational(9, 4) - 3 * sympy.Rational(2, 3) > 0
        at = {
            "c": [1, 1, 1],  # signs of f', f'', f''' at +c
            "-c": [1, -1, 1],  # at -c
        }
        v_plus_inf, v_minus_inf = _sign_variations([1, 1, 1, 1]), _sign_variations([-1, 1, -1, 1])
        assert v_minus_inf - v_plus_inf == 3
        for form in (1, -1):
            roots_above_c = _sign_variations([form, *at["c"]]) - v_plus_inf
            roots_below_minus_c = v_minus_inf - _sign_variations([form, *at["-c"]])
            # largest root below c iff L+ > 0; smallest below -c iff L- > 0
            assert roots_above_c == (0 if form > 0 else 1)
            assert roots_below_minus_c == (1 if form > 0 else 0)

    def test_decision_table_follows_from_the_form_signs(self):
        # L+- = B +- k d with k = 3 sqrt(3)/8 and d = 1 - 4A.  sign(L+) is
        # the sign of lam3_final - lam3_initial and sign(L-) that of
        # lam1_final - lam1_initial (previous test), so a sign pattern fixes
        # the pair label, read here through classify_pair.
        import sympy

        b_sym, d_sym = sympy.symbols("B d", real=True)
        k = 3 * sympy.sqrt(3) / 8
        assumed = (sympy.Q.negative, None, sympy.Q.positive)

        def signs(expression, facts):
            for sign, holds in ((1, sympy.Q.positive), (-1, sympy.Q.negative), (0, sympy.Q.zero)):
                if sympy.ask(holds(expression), facts):
                    return {sign}
            return {-1, 0, 1}

        def label(plus, minus):
            eps = 0.01
            final = PI_INITIAL_SCHMIDT + eps * np.array([minus, -minus - plus, plus])
            return classify_pair(PI_INITIAL_SCHMIDT, final).label

        derived_prediction = {
            frozenset({PairLabel.INCOMPARABLE}): Prediction.INCOMPARABLE,
            frozenset({PairLabel.CONVERTIBLE_BACKWARD}): Prediction.ENTANGLEMENT_INCREASE,
            frozenset({PairLabel.INCOMPARABLE, PairLabel.CONVERTIBLE_BACKWARD}):
                Prediction.INCOMPARABLE_OR_INCREASE,
            frozenset({PairLabel.EQUAL}): Prediction.NOT_INCOMPARABLE,
            frozenset({PairLabel.INCOMPARABLE, PairLabel.CONVERTIBLE_FORWARD}): Prediction.CONDITIONAL,
        }
        # case codes the sign of B and subcase the sign of A - 1/4, so the
        # sign of d is the subcase's, reversed
        for case in range(3):
            for subcase in range(3):
                values = {}
                facts = sympy.Q.real(b_sym) & sympy.Q.real(d_sym)
                for symbol, code in ((b_sym, case), (d_sym, 2 - subcase)):
                    if assumed[code] is None:
                        values[symbol] = 0
                    else:
                        facts &= assumed[code](symbol)
                plus = signs((b_sym + k * d_sym).subs(values), facts)
                minus = signs((b_sym - k * d_sym).subs(values), facts)
                cell = _DECISION[case, subcase]
                if subcase == 2:
                    # B >= (3/2)(A - 1/4) = -(3/8) d > 0 (TestBoundaryArbitration)
                    assert sympy.ask(sympy.Q.positive(-sympy.Rational(3, 8) * d_sym), facts)
                if subcase == 2 and case < 2:
                    assert cell == _UNREALIZABLE
                    continue
                labels = frozenset(label(sp, sm) for sp in plus for sm in minus)
                assert _PREDICTIONS[cell] is derived_prediction[labels], (case, subcase)
                if _PREDICTIONS[cell] is Prediction.CONDITIONAL:
                    # L- > 0 is forced, and the label is INCOMPARABLE iff L+ > 0
                    assert minus == {1}
                    assert {sp for sp in plus if label(sp, 1) is PairLabel.INCOMPARABLE} == {1}

    def test_condition_is_the_root_comparison_on_the_grids(self):
        # the (A, B) test equals the comparison of the largest root, by the
        # oracle's own trig formula, with sqrt(3)/2 - 3 MAJORIZATION_TOL
        threshold = SQRT3_HALF - 3.0 * MAJORIZATION_TOL
        grids = [sweep_real(3600), sweep_complex(60, 12), sweep_complex(40, 18), sweep_complex(18, 40)]
        conditional = 0
        for grid in grids:
            rows = grid["predicted"] == Prediction.CONDITIONAL
            big_a, big_b = grid["A"][rows].astype(float), grid["B"][rows].astype(float)
            np.testing.assert_array_equal(
                _conditional_incomparable(big_a, big_b), largest_root(big_a, big_b) < threshold
            )
            conditional += int(np.count_nonzero(rows))
        assert conditional > 1000


class TestRealCircleMeasures:
    """Exact measures of the three labels on the real circle alpha = cos
    phi, beta = sin phi, from the raw definition: kets, a partial trace,
    and the forms L+- = f(+-c) as polynomials in t = tan(phi/2).  The
    breakpoints are their real roots; each arc between two is labelled by
    its sign pattern."""

    MEASURES = {
        "incomparable": 0.336213267571774,
        "increase": 0.315469082115229,
        "convertible": 0.348317650312997,
    }

    @staticmethod
    def _cubic_data():
        """(A, B) over symbols a, b = cos phi, sin phi, from the final
        probe state built from the axis kets and traced over Bob."""
        import sympy

        a, b = sympy.symbols("a b", real=True)
        h = 1 / sympy.sqrt(2)
        kets = {  # the +1 and -1 kets of each axis
            "z": (sympy.Matrix([1, 0]), sympy.Matrix([0, 1])),
            "x": (sympy.Matrix([h, h]), sympy.Matrix([h, -h])),
            "y": (sympy.Matrix([h, sympy.I * h]), sympy.Matrix([h, -sympy.I * h])),
        }
        # branch i: |i>_A |l+>|alpha l+ + beta l->_B over the axes z, x, y
        rows = [sympy.kronecker_product(up, a * up + b * down).T for up, down in kets.values()]
        m = sympy.Matrix.vstack(*rows) / sympy.sqrt(3)
        rho = (m * m.H).applyfunc(sympy.expand)
        k = 3 * rho - sympy.eye(3)
        # f(x) = det(x I + K) has the roots x = 1 - 3 lam
        x = sympy.Symbol("x")
        f = sympy.expand((x * sympy.eye(3) + k).det())
        big_a = sympy.expand((k * k).trace() / 6)
        big_b = sympy.expand(k.det())
        return (a, b), x, f, big_a, big_b

    def test_exact_measures_and_the_sampled_fractions(self):
        import mpmath
        import sympy

        (a, b), x, f, big_a, big_b = self._cubic_data()
        t = sympy.Symbol("t", real=True)

        def in_t(expression):
            """(1 + t^2)^6 times expression, a polynomial of degree <= 6 in
            (a, b), at a, b = (1 - t^2, 2t)/(1 + t^2)."""
            terms = sympy.Poly(expression, a, b).terms()
            assert max(i + j for (i, j), _ in terms) <= 6
            return sympy.expand(sum(
                coeff * (1 - t**2) ** i * (2 * t) ** j * (1 + t**2) ** (6 - i - j)
                for (i, j), coeff in terms
            ))

        assert sympy.im(big_a) == 0 and sympy.im(big_b) == 0
        # on the circle f is x^3 - 3Ax + B: trace K = 0, and A, B are the
        # invariants tr(K^2)/6 and det K
        assert f.coeff(x, 3) == 1 and in_t(f.coeff(x, 2)) == 0
        assert in_t(f.coeff(x, 1) + 3 * big_a) == 0 and in_t(f.coeff(x, 0) - big_b) == 0
        # L+- = P +- sqrt(3) Q times (1 + t^2)^-6, P and Q rational
        p_part = sympy.Poly(in_t(big_b), t, domain="QQ")
        q_part = sympy.Poly(in_t(sympy.Rational(3, 8) * (1 - 4 * big_a)), t, domain="QQ")
        assert max(p_part.degree(), q_part.degree()) <= 12
        # the real roots of (P + sqrt(3) Q)(P - sqrt(3) Q), isolated by
        # Descartes' rule of signs (sympy's continued-fraction method)
        product = p_part**2 - 3 * q_part**2
        intervals = product.intervals(eps=sympy.Rational(1, 10**30))
        mpmath.mp.dps = 40
        two_pi = 2 * mpmath.pi
        breaks = {mpmath.mpf(0), mpmath.pi}  # t = 0, and phi = pi at t = inf
        for (low, high), _ in intervals:
            root = (mpmath.mpf(low.p) / low.q + mpmath.mpf(high.p) / high.q) / 2
            breaks.add(2 * mpmath.atan(root) % two_pi)
        breaks = sorted(breaks)
        assert len(breaks) == 14

        forms = [
            sympy.lambdify((a, b), big_b + sign * 3 * sympy.sqrt(3) / 8 * (1 - 4 * big_a), "mpmath")
            for sign in (1, -1)
        ]
        arcs = []
        measures = dict.fromkeys(self.MEASURES, mpmath.mpf(0))
        for low, high in zip(breaks, [*breaks[1:], breaks[0] + two_pi]):
            middle = (low + high) / 2
            plus, minus = (form(mpmath.cos(middle), mpmath.sin(middle)) for form in forms)
            assert min(abs(plus), abs(minus)) > 1e-12
            name = "incomparable" if (plus > 0) == (minus > 0) else "increase" if plus > 0 else "convertible"
            measures[name] += (high - low) / two_pi
            arcs.append((float(low), float(high), name))
        for name, expected in self.MEASURES.items():
            assert float(measures[name]) == pytest.approx(expected, abs=1e-12)

        # the package's sweep: its (A, B) are the raw ones, every point off
        # a breakpoint carries its arc's label, and the fractions lie within
        # one point per breakpoint of the measures
        n = 3600
        result = sweep_real(n)
        raw_ab = sympy.lambdify((a, b), [big_a, big_b], "numpy")
        raw_a, raw_b = raw_ab(np.cos(result["phi"]), np.sin(result["phi"]))
        np.testing.assert_allclose(result["A"], raw_a, rtol=0, atol=1e-14)
        np.testing.assert_allclose(result["B"], raw_b, rtol=0, atol=1e-14)
        category = {label: name for name, label in (
            ("incomparable", PairLabel.INCOMPARABLE), ("increase", PairLabel.CONVERTIBLE_BACKWARD),
            ("convertible", PairLabel.CONVERTIBLE_FORWARD), ("equal", PairLabel.EQUAL),
        )}
        off_breaks = 0
        for phi, observed in zip(result["phi"], result["observed"]):
            for low, high, name in arcs:
                if low + 1e-9 < phi < high - 1e-9 or low + 1e-9 < phi + 2 * math.pi < high - 1e-9:
                    assert category[observed] == name, phi
                    off_breaks += 1
        assert off_breaks >= n - len(breaks)
        fractions = summarize(result)["fractions"]
        for name, expected in self.MEASURES.items():
            assert abs(fractions[name] - expected) <= len(breaks) / n
