"""Tests for the parameter sweeps and their CSV/JSON serialization."""

import json
import math

import numpy as np
import pytest

from qincomp.cases import Prediction
from qincomp.linalg import eigenvalues_hermitian_jacobi
from qincomp.majorization import PairLabel
from qincomp.qubits import IppParams
from qincomp.scenarios import (
    pi_final,
    pi_final_density_closed_form,
    spectrum_from_ab,
)
from qincomp.states import schmidt_vector
from qincomp import cases, sweep
from qincomp.sweep import (
    CSV_HEADER,
    ContractViolationError,
    format_float,
    records_to_csv,
    records_to_json,
    summarize,
    sweep_complex,
    sweep_gamma,
    sweep_real,
)


class TestSweepReal:
    def test_four_point_labels(self):
        records = sweep_real(4)
        assert [r.observed for r in records] == [
            PairLabel.EQUAL,
            PairLabel.INCOMPARABLE,
            PairLabel.EQUAL,
            PairLabel.INCOMPARABLE,
        ]

    def test_identity_row(self):
        record = sweep_real(4)[0]
        assert record.phi == 0.0
        assert record.delta is None
        assert record.big_a == pytest.approx(0.25, abs=1e-12)
        assert record.big_b == pytest.approx(0.0, abs=1e-12)
        assert record.predicted is Prediction.NOT_INCOMPARABLE
        assert record.entropy_final == pytest.approx(record.entropy_initial, abs=1e-12)
        assert record.agree

    def test_flipping_row(self):
        record = sweep_real(4)[1]
        assert record.phi == pytest.approx(math.pi / 2)
        assert record.big_a == pytest.approx(0.25, abs=1e-12)
        assert record.big_b == pytest.approx(0.25, abs=1e-12)
        assert record.predicted is Prediction.INCOMPARABLE
        assert record.lam1 == pytest.approx(2 / 3, abs=1e-12)
        assert record.lam2 == pytest.approx(1 / 6, abs=1e-12)
        assert record.agree

    def test_hadamard_row(self):
        record = sweep_real(8)[1]
        assert record.phi == pytest.approx(math.pi / 4)
        assert record.observed is PairLabel.INCOMPARABLE
        assert record.predicted is Prediction.CONDITIONAL
        assert record.agree

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            sweep_real(1)

    def test_record_invariants(self):
        for record in sweep_real(60):
            lam = (record.lam1, record.lam2, record.lam3)
            assert sum(lam) == pytest.approx(1.0, abs=1e-10)
            assert record.lam1 >= record.lam2 >= record.lam3 >= -1e-12
            assert record.delta is None
            assert record.agree
            if record.observed is PairLabel.CONVERTIBLE_BACKWARD:
                assert record.entropy_final > record.entropy_initial - 1e-12
            if record.observed is PairLabel.CONVERTIBLE_FORWARD:
                assert record.entropy_final < record.entropy_initial + 1e-12
            if record.observed is PairLabel.EQUAL:
                assert record.entropy_final == pytest.approx(
                    record.entropy_initial, abs=1e-10
                )

    def test_records_match_external_jacobi_route(self):
        # re-derive a few spectra from scratch and compare with the stored
        # trig values
        for record in sweep_real(12)[::3]:
            p = IppParams(math.cos(record.phi), math.sin(record.phi))
            direct = schmidt_vector(pi_final(p))
            closed = eigenvalues_hermitian_jacobi(pi_final_density_closed_form(p))
            np.testing.assert_allclose(
                [record.lam1, record.lam2, record.lam3], direct, atol=1e-10
            )
            np.testing.assert_allclose(direct, closed, atol=1e-10)


class TestSweepComplex:
    def test_single_delta_matches_real_sweep(self):
        complex_records = sweep_complex(4, 1)
        real_records = sweep_real(4)
        for cr, rr in zip(complex_records, real_records):
            assert cr.delta == 0.0
            assert rr.delta is None
            assert cr.phi == rr.phi
            assert cr.big_a == pytest.approx(rr.big_a, abs=1e-12)
            assert cr.big_b == pytest.approx(rr.big_b, abs=1e-12)
            assert (cr.lam1, cr.lam2, cr.lam3) == pytest.approx(
                (rr.lam1, rr.lam2, rr.lam3), abs=1e-12
            )
            assert cr.observed is rr.observed
            assert cr.predicted is rr.predicted
            assert cr.agree is rr.agree

    def test_grid_shape_and_agreement(self):
        records = sweep_complex(18, 6)
        assert len(records) == 108
        assert all(r.agree for r in records)
        deltas = {r.delta for r in records}
        assert len(deltas) == 6

    def test_complex_records_match_external_jacobi_route(self):
        for record in sweep_complex(7, 5):
            p = IppParams(
                math.cos(record.phi),
                np.exp(1j * record.delta) * math.sin(record.phi),
            )
            closed = eigenvalues_hermitian_jacobi(pi_final_density_closed_form(p))
            np.testing.assert_allclose(
                [record.lam1, record.lam2, record.lam3], closed, atol=1e-10
            )

    def test_coefficient_route_ill_conditioned_at_double_root(self):
        # one ulp inside the discriminant boundary B^2 = 4A^3 the arccos
        # amplifies coefficient rounding to ~sqrt(eps) in the eigenvalues,
        # so the closed-form route cannot certify 1e-10 there
        spec = spectrum_from_ab(0.25, 0.25 - 2.8e-17)
        split = np.max(np.abs(spec.eigenvalues - np.array([2 / 3, 1 / 6, 1 / 6])))
        assert 1e-10 < split < 1e-8

    def test_double_root_grid_point_refused(self):
        # this grid lands on phi = pi/2 where, with the platform's correctly
        # rounded cos/sin, B rounds just inside the boundary for some deltas;
        # the sweep then refuses to emit spectra it cannot cross-certify
        with pytest.raises(ContractViolationError):
            sweep_complex(12, 6)

    def test_rejects_undersized_grids(self):
        with pytest.raises(ValueError):
            sweep_complex(1, 4)
        with pytest.raises(ValueError):
            sweep_complex(4, 0)

    def test_zero_delta_column_equals_real_sweep(self):
        by_phi = {r.phi: r for r in sweep_real(6)}
        for record in sweep_complex(6, 4):
            if record.delta == 0.0:
                mate = by_phi[record.phi]
                assert record.big_a == pytest.approx(mate.big_a, abs=1e-12)
                assert record.big_b == pytest.approx(mate.big_b, abs=1e-12)
                assert record.observed is mate.observed


class TestSweepGamma:
    def test_single_point_grid(self):
        summary = sweep_gamma(1, 1, 1)
        assert summary.grid_points == 1
        assert summary.max_deviation < 1e-10

    def test_full_grid(self):
        summary = sweep_gamma(8, 8, 8)
        assert (summary.n_theta, summary.n_a, summary.n_b) == (8, 8, 8)
        assert summary.grid_points == 512
        assert summary.max_deviation < 1e-10

    def test_offset_reaches_flipper(self):
        # the theta axis 0, pi/2, pi, 3pi/2 holds the flipper (pi/2, 0, 0)
        summary = sweep_gamma(4, 1, 1)
        assert summary.max_deviation < 1e-10

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            sweep_gamma(0, 1, 1)


class TestBlocks:
    def test_block_boundaries_leave_results_unchanged(self, monkeypatch):
        real, grid, gamma = sweep_real(50), sweep_complex(9, 5), sweep_gamma(3, 4, 5)
        monkeypatch.setattr(cases, "BLOCK_POINTS", 7)
        assert sweep_real(50) == real
        assert sweep_complex(9, 5) == grid
        assert sweep_gamma(3, 4, 5).max_deviation == gamma.max_deviation


class TestSummarize:
    def test_four_point_summary(self):
        summary = summarize(sweep_real(4))
        assert summary["total"] == 4
        assert summary["counts"] == {
            "incomparable": 2,
            "increase": 0,
            "equal": 2,
            "convertible": 0,
        }
        assert summary["fractions"]["incomparable"] == pytest.approx(0.5)

    def test_fractions_sum_to_one(self):
        summary = summarize(sweep_real(36))
        assert sum(summary["fractions"].values()) == pytest.approx(1.0)
        assert sum(summary["counts"].values()) == summary["total"] == 36


class TestSerialization:
    def test_format_float_significant_digits(self):
        assert format_float(math.pi) == "3.14159265358979"
        assert format_float(0.25) == "0.25"
        assert format_float(1.0) == "1"

    def test_csv_header_and_shape(self):
        text = records_to_csv(sweep_real(4))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == (
            "phi,delta,A,B,lam1,lam2,lam3,entropy_i,entropy_f,"
            "observed,predicted,agree"
        )
        assert len(lines) == 5
        assert all(line.count(",") == 11 for line in lines)

    def test_csv_real_rows_leave_delta_empty(self):
        for line in records_to_csv(sweep_real(4)).splitlines()[1:]:
            fields = line.split(",")
            assert fields[1] == ""
            assert fields[11] == "true"

    def test_csv_identity_row_values(self):
        fields = records_to_csv(sweep_real(4)).splitlines()[1].split(",")
        assert fields[0] == "0"
        assert fields[2] == "0.25"
        assert float(fields[4]) == pytest.approx(0.622008467928146, abs=1e-12)
        assert fields[9] == "EQUAL"
        assert fields[10] == "NOT_INCOMPARABLE"

    def test_csv_complex_rows_carry_delta(self):
        lines = records_to_csv(sweep_complex(4, 2)).splitlines()[1:]
        deltas = {line.split(",")[1] for line in lines}
        assert deltas == {"0", format_float(math.pi)}

    def test_csv_deterministic(self):
        assert records_to_csv(sweep_real(16)) == records_to_csv(sweep_real(16))

    def test_json_round_trip(self):
        payload = json.loads(records_to_json(sweep_real(4)))
        assert len(payload) == 4
        first = payload[0]
        assert list(first) == [
            "phi",
            "delta",
            "A",
            "B",
            "lam1",
            "lam2",
            "lam3",
            "entropy_i",
            "entropy_f",
            "observed",
            "predicted",
            "agree",
        ]
        assert first["delta"] is None
        assert first["A"] == pytest.approx(0.25)
        assert first["observed"] == "EQUAL"
        assert first["agree"] is True

    def test_json_complex_delta_is_number(self):
        payload = json.loads(records_to_json(sweep_complex(4, 2)))
        assert payload[1]["delta"] == pytest.approx(math.pi)
