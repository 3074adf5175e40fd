"""Tests for the (A, B) case analysis and prediction verification."""

import math

import numpy as np
import pytest

from qincomp.cases import (
    SQRT3_HALF,
    CaseId,
    CaseVerdict,
    Prediction,
    Subcase,
    boundary_agreement_counts,
    predict_case,
    prediction_consistent,
    verify_prediction,
)
from qincomp.majorization import PairLabel, classify_pair
from qincomp.qubits import IppParams
from qincomp.scenarios import build_pi_initial, cubic_coefficients, pi_final, pqr
from qincomp.states import schmidt_vector

SQ2 = 1.0 / math.sqrt(2.0)


class TestPredictCase:
    def test_flipping_point_is_incomparable(self):
        verdict = predict_case(0.25, 0.25)
        assert verdict.case_id is CaseId.B_POS
        assert verdict.subcase is Subcase.A_EQ_QUARTER
        assert verdict.predicted is Prediction.INCOMPARABLE
        assert verdict.condition is None

    def test_identity_point_is_not_incomparable(self):
        verdict = predict_case(0.25, 0.0)
        assert verdict.case_id is CaseId.B_ZERO
        assert verdict.subcase is Subcase.A_EQ_QUARTER
        assert verdict.predicted is Prediction.NOT_INCOMPARABLE

    def test_zero_b_small_a_is_entanglement_increase(self):
        verdict = predict_case(1 / 6, 0.0)
        assert verdict.case_id is CaseId.B_ZERO
        assert verdict.subcase is Subcase.A_LT_QUARTER
        assert verdict.predicted is Prediction.ENTANGLEMENT_INCREASE

    def test_zero_b_large_a_is_not_incomparable(self):
        verdict = predict_case(0.3, 0.0)
        assert verdict.predicted is Prediction.NOT_INCOMPARABLE

    def test_positive_b_small_a(self):
        verdict = predict_case(0.2, 0.1)
        assert verdict.case_id is CaseId.B_POS
        assert verdict.subcase is Subcase.A_LT_QUARTER
        assert verdict.predicted is Prediction.INCOMPARABLE_OR_INCREASE

    def test_negative_b_small_a(self):
        verdict = predict_case(0.2, -0.1)
        assert verdict.case_id is CaseId.B_NEG
        assert verdict.predicted is Prediction.INCOMPARABLE_OR_INCREASE

    def test_negative_b_quarter_a_is_incomparable(self):
        assert predict_case(0.25, -0.2).predicted is Prediction.INCOMPARABLE

    def test_positive_b_large_a_conditional_metadata(self):
        verdict = predict_case(1 / 3, 0.25)
        assert verdict.case_id is CaseId.B_POS
        assert verdict.subcase is Subcase.A_GT_QUARTER
        assert verdict.predicted is Prediction.CONDITIONAL
        cond = verdict.condition
        assert cond is not None
        assert cond.governing == "min_branch"
        assert verdict.condition_value == pytest.approx(cond.expr_min_branch)
        assert cond.incomparable == (cond.expr_min_branch < SQRT3_HALF)
        # at the Hadamard point the smallest-root expression stays below
        # the threshold, so incomparability is predicted
        assert cond.incomparable

    def test_negative_b_large_a_conditional_metadata(self):
        verdict = predict_case(1 / 3, -0.25)
        assert verdict.case_id is CaseId.B_NEG
        assert verdict.predicted is Prediction.CONDITIONAL
        cond = verdict.condition
        assert cond.governing == "max_branch"
        assert verdict.condition_value == pytest.approx(cond.expr_max_branch)
        assert cond.incomparable == (cond.expr_max_branch > -SQRT3_HALF)

    def test_sign_symmetry_of_branch_expressions(self):
        # flipping B swaps the cubic roots about their mean, so the two
        # candidate expressions trade places up to sign
        pos = predict_case(0.3, 0.1).condition
        neg = predict_case(0.3, -0.1).condition
        assert pos.expr_min_branch == pytest.approx(-neg.expr_max_branch, abs=1e-12)
        assert pos.expr_max_branch == pytest.approx(-neg.expr_min_branch, abs=1e-12)

    def test_band_width_on_b(self):
        assert predict_case(0.2, 5e-13).case_id is CaseId.B_ZERO
        assert predict_case(0.2, 5e-12).case_id is CaseId.B_POS
        assert predict_case(0.2, -5e-12).case_id is CaseId.B_NEG

    def test_band_width_on_a(self):
        assert predict_case(0.25 + 5e-13, 0.1).subcase is Subcase.A_EQ_QUARTER
        assert predict_case(0.25 + 5e-12, 0.1).subcase is Subcase.A_GT_QUARTER


class TestPredictionConsistent:
    def _plain(self, predicted):
        return CaseVerdict(CaseId.B_POS, Subcase.A_LT_QUARTER, predicted)

    def test_incomparable_prediction(self):
        verdict = self._plain(Prediction.INCOMPARABLE)
        assert prediction_consistent(verdict, PairLabel.INCOMPARABLE)
        assert not prediction_consistent(verdict, PairLabel.CONVERTIBLE_FORWARD)

    def test_increase_prediction(self):
        verdict = self._plain(Prediction.ENTANGLEMENT_INCREASE)
        assert prediction_consistent(verdict, PairLabel.CONVERTIBLE_BACKWARD)
        assert not prediction_consistent(verdict, PairLabel.EQUAL)

    def test_two_way_prediction(self):
        verdict = self._plain(Prediction.INCOMPARABLE_OR_INCREASE)
        assert prediction_consistent(verdict, PairLabel.INCOMPARABLE)
        assert prediction_consistent(verdict, PairLabel.CONVERTIBLE_BACKWARD)
        assert not prediction_consistent(verdict, PairLabel.CONVERTIBLE_FORWARD)

    def test_not_incomparable_prediction(self):
        verdict = self._plain(Prediction.NOT_INCOMPARABLE)
        assert prediction_consistent(verdict, PairLabel.EQUAL)
        assert prediction_consistent(verdict, PairLabel.CONVERTIBLE_FORWARD)
        assert prediction_consistent(verdict, PairLabel.CONVERTIBLE_BACKWARD)
        assert not prediction_consistent(verdict, PairLabel.INCOMPARABLE)

    def test_conditional_prediction_follows_condition(self):
        verdict = predict_case(1 / 3, 0.25)
        assert verdict.condition.incomparable
        assert prediction_consistent(verdict, PairLabel.INCOMPARABLE)
        assert not prediction_consistent(verdict, PairLabel.CONVERTIBLE_FORWARD)


class TestVerifyPrediction:
    def test_identity_point(self):
        check = verify_prediction(IppParams(1, 0))
        assert check.predicted.predicted is Prediction.NOT_INCOMPARABLE
        assert check.observed.label is PairLabel.EQUAL
        assert check.entropy_delta == pytest.approx(0.0, abs=1e-12)
        assert check.agree

    def test_flipping_point(self):
        check = verify_prediction(IppParams(0, 1))
        assert check.predicted.predicted is Prediction.INCOMPARABLE
        assert check.observed.label is PairLabel.INCOMPARABLE
        assert check.entropy_delta == pytest.approx(0.09694739822315, abs=1e-10)
        assert check.agree

    def test_hadamard_point(self):
        check = verify_prediction(IppParams(SQ2, SQ2))
        assert check.predicted.predicted is Prediction.CONDITIONAL
        assert check.predicted.condition.incomparable
        assert check.observed.label is PairLabel.INCOMPARABLE
        assert check.agree

    def test_observed_verdict_is_classify_pair(self):
        initial = schmidt_vector(build_pi_initial())
        for alpha, beta in ((1, 0), (0, 1), (SQ2, SQ2), (0.6, 0.8j), (0.8, -0.6)):
            p = IppParams(alpha, beta)
            observed = verify_prediction(p).observed
            direct = classify_pair(initial, schmidt_vector(pi_final(p)))
            assert observed.label is direct.label
            assert np.array_equal(observed.partial_sums_src, direct.partial_sums_src)
            assert np.array_equal(observed.partial_sums_dst, direct.partial_sums_dst)

    def test_agreement_over_complex_grid(self):
        agreements = 0
        total = 0
        for i in range(60):
            phi = 2.0 * math.pi * i / 60
            for j in range(12):
                delta = 2.0 * math.pi * j / 12
                p = IppParams(math.cos(phi), np.exp(1j * delta) * math.sin(phi))
                total += 1
                agreements += verify_prediction(p).agree
        assert total == 720
        assert agreements == total


class TestBoundaryArbitration:
    def test_agreement_counts_frozen_grid(self):
        counts = boundary_agreement_counts(n_phi=120, n_delta=12)
        # the B < 0 side of A > 1/4 never occurs, so only the B > 0 rows
        # collect points; there the min-branch expression is the one whose
        # implication always matches observed incomparability
        assert counts[("B_NEG", "max_branch")] == (0, 0)
        assert counts[("B_NEG", "min_branch")] == (0, 0)
        assert counts[("B_POS", "min_branch")] == (608, 608)
        assert counts[("B_POS", "max_branch")] == (284, 608)

    def test_negative_b_with_large_a_unrealizable(self):
        # scan the parameter torus: wherever A > 1/4, B stays positive
        rng = np.random.default_rng(157)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=20000)
        delta = rng.uniform(0.0, 2.0 * math.pi, size=20000)
        alpha = np.cos(phi)
        beta = np.exp(1j * delta) * np.sin(phi)
        ab = np.conj(alpha) * beta
        p = np.abs(alpha) ** 2 - np.abs(beta) ** 2 + 2.0 * ab.real
        p = 0.5 * p
        q = 0.5 * (
            np.abs(alpha) ** 2
            + 1j * np.abs(beta) ** 2
            + np.conj(ab)
            - 1j * ab
        )
        r = 0.5 * (2.0 * ab.real - 1j)
        big_a = (np.abs(p) ** 2 + np.abs(q) ** 2 + np.abs(r) ** 2) / 3.0
        big_b = 2.0 * (p * r * np.conj(q)).real
        above = big_a > 0.25 + 1e-12
        assert np.count_nonzero(above) > 1000
        assert np.all(big_b[above] > 0.0)

    def test_vectorized_coefficients_match_module(self):
        # guard the scan above against drift from the module's formulas
        rng = np.random.default_rng(163)
        for _ in range(25):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            delta = rng.uniform(0.0, 2.0 * math.pi)
            p = IppParams(math.cos(phi), np.exp(1j * delta) * math.sin(phi))
            big_a, big_b = cubic_coefficients(pqr(p))
            alpha, beta = p.alpha, p.beta
            ab = np.conj(alpha) * beta
            pv = 0.5 * (abs(alpha) ** 2 - abs(beta) ** 2 + 2.0 * ab.real)
            qv = 0.5 * (abs(alpha) ** 2 + 1j * abs(beta) ** 2 + np.conj(ab) - 1j * ab)
            rv = 0.5 * (2.0 * ab.real - 1j)
            assert big_a == pytest.approx(
                (abs(pv) ** 2 + abs(qv) ** 2 + abs(rv) ** 2) / 3.0, abs=1e-12
            )
            assert big_b == pytest.approx(2.0 * (pv * rv * np.conj(qv)).real, abs=1e-12)
