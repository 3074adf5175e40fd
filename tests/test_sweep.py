"""Tests for the parameter sweeps and their CSV/JSON serialization."""

import json
import math

import numpy as np
import pytest

from qincomp.cases import Prediction, verify_prediction
from qincomp.linalg import eigenvalues_hermitian_jacobi
from qincomp.majorization import PairLabel
from qincomp.qubits import IppParams
from qincomp.scenarios import (
    pi_final,
    pi_final_density_closed_form,
    spectrum_from_ab,
)
from qincomp.states import schmidt_vector
from qincomp import sweep
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


def _lam(result):
    """The (N, 3) spectra of a sweep result, one row per point."""
    return np.column_stack([result["lam1"], result["lam2"], result["lam3"]])


class TestSweepReal:
    def test_result_is_columns(self):
        result = sweep_real(6)
        assert list(result) == CSV_HEADER.split(",")
        for column in result.values():
            assert isinstance(column, np.ndarray) and column.shape == (6,)

    def test_four_point_labels(self):
        assert sweep_real(4)["observed"].tolist() == [
            PairLabel.EQUAL,
            PairLabel.INCOMPARABLE,
            PairLabel.EQUAL,
            PairLabel.INCOMPARABLE,
        ]

    def test_identity_row(self):
        result = sweep_real(4)
        assert result["phi"][0] == 0.0
        assert result["delta"][0] is None
        assert result["A"][0] == pytest.approx(0.25, abs=1e-12)
        assert result["B"][0] == pytest.approx(0.0, abs=1e-12)
        assert result["predicted"][0] is Prediction.NOT_INCOMPARABLE
        assert result["entropy_f"][0] == pytest.approx(result["entropy_i"][0], abs=1e-12)
        assert result["agree"][0]

    def test_flipping_row(self):
        result = sweep_real(4)
        assert result["phi"][1] == pytest.approx(math.pi / 2)
        assert result["A"][1] == pytest.approx(0.25, abs=1e-12)
        assert result["B"][1] == pytest.approx(0.25, abs=1e-12)
        assert result["predicted"][1] is Prediction.INCOMPARABLE
        assert result["lam1"][1] == pytest.approx(2 / 3, abs=1e-12)
        assert result["lam2"][1] == pytest.approx(1 / 6, abs=1e-12)
        assert result["agree"][1]

    def test_hadamard_row(self):
        result = sweep_real(8)
        assert result["phi"][1] == pytest.approx(math.pi / 4)
        assert result["observed"][1] is PairLabel.INCOMPARABLE
        assert result["predicted"][1] is Prediction.CONDITIONAL
        assert result["agree"][1]

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            sweep_real(1)

    def test_record_invariants(self):
        result = sweep_real(60)
        lam1, lam2, lam3 = result["lam1"], result["lam2"], result["lam3"]
        observed = result["observed"]
        gain = result["entropy_f"] - result["entropy_i"]
        assert _lam(result).sum(axis=1) == pytest.approx(np.ones(60), abs=1e-10)
        assert np.all((lam1 >= lam2) & (lam2 >= lam3) & (lam3 >= -1e-12))
        assert result["delta"].tolist() == [None] * 60
        assert result["agree"].all()
        assert np.all(gain[observed == PairLabel.CONVERTIBLE_BACKWARD] > -1e-12)
        assert np.all(gain[observed == PairLabel.CONVERTIBLE_FORWARD] < 1e-12)
        equal = observed == PairLabel.EQUAL
        assert result["entropy_f"][equal] == pytest.approx(result["entropy_i"][equal], abs=1e-10)

    def test_records_match_external_jacobi_route(self):
        # re-derive a few spectra from scratch and compare with the stored
        # trig values
        result = sweep_real(12)
        for k in range(0, 12, 3):
            phi = result["phi"][k]
            p = IppParams(math.cos(phi), math.sin(phi))
            direct = schmidt_vector(pi_final(p))
            closed = eigenvalues_hermitian_jacobi(pi_final_density_closed_form(p))
            np.testing.assert_allclose(_lam(result)[k], direct, atol=1e-10)
            np.testing.assert_allclose(direct, closed, atol=1e-10)


class TestSweepComplex:
    def test_single_delta_matches_real_sweep(self):
        grid, real = sweep_complex(4, 1), sweep_real(4)
        assert grid["delta"].tolist() == [0.0] * 4
        assert real["delta"].tolist() == [None] * 4
        np.testing.assert_array_equal(grid["phi"], real["phi"])
        assert grid["A"] == pytest.approx(real["A"], abs=1e-12)
        assert grid["B"] == pytest.approx(real["B"], abs=1e-12)
        assert _lam(grid) == pytest.approx(_lam(real), abs=1e-12)
        assert grid["observed"].tolist() == real["observed"].tolist()
        assert grid["predicted"].tolist() == real["predicted"].tolist()
        assert grid["agree"].tolist() == real["agree"].tolist()

    def test_grid_shape_and_agreement(self):
        grid = sweep_complex(18, 6)
        assert len(grid["phi"]) == 108
        assert grid["agree"].all()
        assert len(set(grid["delta"].tolist())) == 6

    def test_complex_records_match_external_jacobi_route(self):
        grid = sweep_complex(7, 5)
        for k in range(len(grid["phi"])):
            phi, delta = grid["phi"][k], grid["delta"][k]
            p = IppParams(math.cos(phi), np.exp(1j * delta) * math.sin(phi))
            closed = eigenvalues_hermitian_jacobi(pi_final_density_closed_form(p))
            np.testing.assert_allclose(_lam(grid)[k], closed, atol=1e-10)

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
        real = sweep_real(6)
        by_phi = {phi: k for k, phi in enumerate(real["phi"].tolist())}
        grid = sweep_complex(6, 4)
        for k in np.flatnonzero(grid["delta"] == 0.0):
            mate = by_phi[grid["phi"][k]]
            assert grid["A"][k] == pytest.approx(real["A"][mate], abs=1e-12)
            assert grid["B"][k] == pytest.approx(real["B"][mate], abs=1e-12)
            assert grid["observed"][k] is real["observed"][mate]


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


def _assert_same_columns(got, want):
    assert list(got) == list(want)
    for name, column in want.items():
        np.testing.assert_array_equal(got[name], column, err_msg=name, strict=True)


class TestBlocks:
    def test_block_boundaries_leave_results_unchanged(self, monkeypatch):
        real, grid, gamma = sweep_real(50), sweep_complex(9, 5), sweep_gamma(3, 4, 5)
        text = records_to_csv(grid)
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 7)
        _assert_same_columns(sweep_real(50), real)
        _assert_same_columns(sweep_complex(9, 5), grid)
        assert sweep_gamma(3, 4, 5).max_deviation == gamma.max_deviation
        assert records_to_csv(grid) == text


class TestOneKernel:
    @pytest.mark.parametrize(
        "grid", [lambda: sweep_real(8), lambda: sweep_complex(6, 3)], ids=["real-8", "complex-6x3"]
    )
    def test_verify_prediction_is_the_sweep_row(self, grid):
        # the sweeps and verify_prediction read one kernel: every row's
        # verdict and entropies are the one-point check's, floats bit-equal
        result = grid()
        phi, delta = result["phi"], result["delta"]
        alpha = np.cos(phi)
        beta = np.sin(phi) if delta[0] is None else np.exp(1j * delta) * np.sin(phi)
        for i in range(len(phi)):
            check = verify_prediction(IppParams(alpha[i], beta[i]))
            assert check.observed.label is result["observed"][i]
            assert check.predicted.predicted is result["predicted"][i]
            assert check.agree is bool(result["agree"][i])
            assert check.entropy_initial.hex() == float(result["entropy_i"][i]).hex()
            assert check.entropy_final.hex() == float(result["entropy_f"][i]).hex()


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
