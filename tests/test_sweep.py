"""Tests for the parameter sweeps and their CSV/JSON serialization."""

import json
import math
from collections import Counter
from enum import Enum

import numpy as np
import pytest

from oracles import CHI_INITIAL_SCHMIDT, pi_final_density_closed_form, spectrum_at
from test_cli import CSV_HEADER
from qincomp.cases import SQRT3_HALF, ContractViolationError, Prediction, _conditional_incomparable
from qincomp.cli import main
from qincomp.linalg import eigenvalues_hermitian_jacobi
from qincomp.majorization import PairLabel
from qincomp.scenarios import PI_INITIAL_SCHMIDT, build_chi_initial, chi_final, pi_final
from qincomp.states import schmidt_vector
from qincomp import cases, linalg, scenarios, states, sweep
from qincomp.sweep import (
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

    def test_kernel_returns_the_sweep_columns_in_order(self):
        # sweep_complex and ipp-demo use the kernel's columns as it returns them
        grid = cases._certify(np.array([0.6, 1.0]), np.array([0.8j, 0.0]))
        assert list(grid) == CSV_HEADER.split(",")[2:]

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
            p = math.cos(phi), math.sin(phi)
            direct = schmidt_vector(pi_final(*p))
            closed = eigenvalues_hermitian_jacobi(pi_final_density_closed_form(*p))
            np.testing.assert_allclose(_lam(result)[k], direct, atol=1e-10)
            np.testing.assert_allclose(direct, closed, atol=1e-10)


class TestSweepComplex:
    def test_single_delta_matches_real_sweep(self):
        # the real sweep is the one-delta complex sweep: every column but
        # delta is equal bit for bit
        grid, real = sweep_complex(4, 1), sweep_real(4)
        assert grid["delta"].tolist() == [0.0] * 4
        assert real["delta"].tolist() == [None] * 4
        assert list(grid) == list(real)
        for name in set(grid) - {"delta"}:
            np.testing.assert_array_equal(grid[name], real[name], err_msg=name)

    def test_conditional_ties_agree(self):
        # at phi = 11 pi/12 and 23 pi/12, delta = 3 pi/2 the final smallest
        # eigenvalue ties the initial one to rounding, so the pair is
        # comparable and the CONDITIONAL boundary must not predict
        # incomparability there
        grid = sweep_complex(48, 12)
        for row in (22 * 12 + 9, 46 * 12 + 9):
            assert grid["predicted"][row] is Prediction.CONDITIONAL
            assert grid["observed"][row] is PairLabel.CONVERTIBLE_FORWARD
            assert grid["lam3"][row] == pytest.approx(PI_INITIAL_SCHMIDT[2], abs=1e-15)
            # the largest root sits at sqrt(3)/2 to rounding, inside the
            # 3 MAJORIZATION_TOL margin of the (A, B) condition
            assert 1.0 - 3.0 * grid["lam3"][row] == pytest.approx(SQRT3_HALF, abs=1e-14)
            assert not _conditional_incomparable(grid["A"][row], grid["B"][row])
        assert grid["agree"].all()

    def test_grid_shape_and_agreement(self):
        grid = sweep_complex(18, 6)
        assert len(grid["phi"]) == 108
        assert grid["agree"].all()
        assert len(set(grid["delta"].tolist())) == 6

    def test_complex_records_match_external_jacobi_route(self):
        grid = sweep_complex(7, 5)
        for k in range(len(grid["phi"])):
            phi, delta = grid["phi"][k], grid["delta"][k]
            p = math.cos(phi), np.exp(1j * delta) * math.sin(phi)
            closed = eigenvalues_hermitian_jacobi(pi_final_density_closed_form(*p))
            np.testing.assert_allclose(_lam(grid)[k], closed, atol=1e-10)

    def test_coefficient_route_ill_conditioned_at_double_root(self):
        # one ulp inside the discriminant boundary B^2 = 4A^3 the arccos
        # amplifies coefficient rounding to ~sqrt(eps) in the eigenvalues,
        # so the closed-form route cannot certify 1e-10 there
        spec = spectrum_at(0.25, 0.25 - 2.8e-17)
        split = np.max(np.abs(spec - np.array([2 / 3, 1 / 6, 1 / 6])))
        assert 1e-10 < split < 1e-8

    def test_double_root_grid_point_certified(self):
        # this grid lands on phi = pi/2, the flipping family, where the
        # spectrum has a double root and 4A^3 - B^2 formed directly cancels
        # to rounding noise; the kernel's sum-of-squares root does not
        grid = sweep_complex(12, 6)
        assert grid["agree"].all()
        flipping = grid["phi"] == math.pi / 2
        assert np.count_nonzero(flipping) == 6
        np.testing.assert_allclose(
            _lam(grid)[flipping], np.tile(CHI_INITIAL_SCHMIDT, (6, 1)), atol=1e-14
        )

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

    @pytest.mark.parametrize("shift, raises", [(2e-10, True), (5e-11, False)])
    def test_refuses_a_closed_form_more_than_the_tolerance_off(self, monkeypatch, shift, raises):
        monkeypatch.setattr(cases, "CHI_FINAL_SCHMIDT", cases.CHI_FINAL_SCHMIDT + shift)
        if raises:
            with pytest.raises(ContractViolationError, match="final Schmidt vector deviates by"):
                sweep_gamma(2, 2, 2)
        else:
            assert sweep_gamma(2, 2, 2).max_deviation == pytest.approx(shift, rel=1e-5)

    def test_deviation_equal_to_the_tolerance_certifies(self, monkeypatch):
        # the kernel's rule: only a deviation above SOLVER_AGREE_TOL raises,
        # on the initial row 0 as on the final rows 1:
        angles = np.array([[0.3, 2.0], [1.1, 0.0], [4.0, 5.5]])
        for name, which, rows in (("CHI_FINAL_SCHMIDT", "final", slice(1, None)),
                                  ("CHI_INITIAL_SCHMIDT", "initial", 0)):
            monkeypatch.setattr(cases, name, getattr(cases, name) + np.array([3e-11, 0.0, 0.0]))
            vecs, final_deviation = cases._certify_gamma(*angles)
            deviation = float(np.max(np.abs(vecs[rows] - getattr(cases, name))))
            assert which == "initial" or final_deviation == deviation
            monkeypatch.setattr(cases, "SOLVER_AGREE_TOL", deviation)
            assert cases._certify_gamma(*angles)[0].tobytes() == vecs.tobytes()
            monkeypatch.setattr(cases, "SOLVER_AGREE_TOL", np.nextafter(deviation, 0.0))
            with pytest.raises(ContractViolationError, match=f"^{which} Schmidt vector deviates by"):
                cases._certify_gamma(*angles)
            monkeypatch.undo()

    @pytest.mark.parametrize("width", [1, 7, 960])
    def test_kernel_rows_equal_lone_calls_exactly(self, width):
        # the initial state rides as point 0 of the kernel's one Jacobi call;
        # Jacobi treats each matrix alone, so no row changes a bit
        angles = np.random.default_rng(width).uniform(0.0, 2.0 * math.pi, size=(3, width))
        vecs = cases._certify_gamma(*angles)[0]
        assert vecs.shape == (width + 1, 3)
        assert vecs[0].tobytes() == schmidt_vector(build_chi_initial()).tobytes()
        assert vecs[1:].tobytes() == schmidt_vector(chi_final(*angles)).tobytes()

    def test_grid_deviation_is_that_of_the_final_states_alone(self):
        # 2^-51 on this grid when its final states ran through Jacobi alone
        assert sweep_gamma(8, 10, 12).max_deviation == 2.0**-51


def _assert_same_columns(got, want):
    assert list(got) == list(want)
    for name, column in want.items():
        np.testing.assert_array_equal(got[name], column, err_msg=name, strict=True)


def _json_rows(result):
    """The rows of a sweep result as the objects json.dumps is given: floats
    rounded to 15 significant digits, an enum's value, None and bools."""
    def value(x):
        if isinstance(x, float):
            return float(format_float(x))
        if isinstance(x, (PairLabel, Prediction)):
            return x.value
        return x  # None, or a bool

    names, columns = list(result), [column.tolist() for column in result.values()]
    return [dict(zip(names, map(value, row))) for row in zip(*columns)]


class TestBlocks:
    def test_block_boundaries_leave_results_unchanged(self, monkeypatch):
        real, grid, gamma = sweep_real(50), sweep_complex(9, 5), sweep_gamma(3, 4, 5)
        text = records_to_csv(grid)
        texts = [records_to_json(real), records_to_json(grid)]
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 7)
        _assert_same_columns(sweep_real(50), real)
        _assert_same_columns(sweep_complex(9, 5), grid)
        assert sweep_gamma(3, 4, 5).max_deviation == gamma.max_deviation
        assert records_to_csv(grid) == text
        assert [records_to_json(real), records_to_json(grid)] == texts
        # the real grid's delta column is all None; both cross block seams
        assert all(delta is None for delta in real["delta"])
        for result, got in zip([real, grid], texts):
            assert got == json.dumps(_json_rows(result), indent=2)

    def test_kept_buffers_leave_results_unchanged(self, monkeypatch):
        # a thread keeps a stack's block buffers for the next call of its
        # shape (linalg._kept); with blocks of 7, each sweep has full blocks
        # and a remainder, so its calls meet buffers kept by full blocks,
        # remainders and other sweeps, and a lone matrix keeps nothing
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 7)
        vars(linalg._THREAD).clear()
        grid = sweep_complex(6, 5)
        lone = np.eye(3, 4, dtype=complex) / math.sqrt(3.0)
        for _ in range(2):
            sweep_gamma(2, 3, 4)
            schmidt_vector(lone)
            got = sweep_complex(6, 5)
            _assert_same_columns(got, grid)
            for name in ("phi", "delta", "A", "B", "lam1", "lam2", "lam3", "entropy_i", "entropy_f"):
                np.testing.assert_array_equal(got[name].view(np.uint64), grid[name].view(np.uint64), err_msg=name)
        vars(linalg._THREAD).clear()
        gamma = sweep_gamma(2, 3, 4)
        for _ in range(2):
            sweep_real(9)
            got = sweep_gamma(2, 3, 4)
            assert got == gamma and got.max_deviation.hex() == gamma.max_deviation.hex()

    def test_kernels_reach_schmidt_vectors_through_public_names(self, monkeypatch):
        # the benchmark's tracer wraps public functions only: its per-layer
        # metrics see the sweeps' layers only if the kernels call them by
        # these names, once per block (ipp_image once per branch)
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[f"{module.__name__}.{name}"] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        count(cases, "schmidt_vector")
        count(states, "reduced_density_a")
        for name in ("pqr", "cubic_coefficients", "pi_final", "entropy_of_entanglement"):
            count(cases, name)
        count(scenarios, "ipp_image")
        count(cases, "chi_final")
        sweep_gamma(2, 2, 2)
        assert calls == {
            "qincomp.cases.chi_final": 1,
            "qincomp.cases.schmidt_vector": 1,
            "qincomp.states.reduced_density_a": 1,
        }
        calls.clear()
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 7)
        sweep_real(50)
        assert calls == {
            "qincomp.cases.pqr": 8,
            "qincomp.cases.cubic_coefficients": 8,
            "qincomp.cases.pi_final": 8,
            "qincomp.cases.entropy_of_entanglement": 8,
            "qincomp.scenarios.ipp_image": 24,
            "qincomp.cases.schmidt_vector": 8,
            "qincomp.states.reduced_density_a": 8,
        }


def _literal(z: complex) -> str:
    """A complex amplitude as the CLI's re+im i literal, parsing back exactly."""
    return f"{z.real!r}{z.imag:+}i"


class TestOneKernel:
    @pytest.mark.parametrize(
        "grid", [lambda: sweep_real(16), lambda: sweep_complex(6, 3)], ids=["real-16", "complex-6x3"]
    )
    def test_case_analyze_and_ipp_demo_print_the_sweep_row(self, grid, capsys):
        # every verdict the CLI prints comes from the one certified kernel:
        # at each grid point case-analyze prints the sweep row's A, B and
        # predicted cells, and ipp-demo the row itself, byte for byte
        result = grid()
        rows = records_to_csv(result).splitlines()[1:]
        phi, delta = result["phi"], result["delta"]
        alpha = np.cos(phi)
        beta = np.sin(phi) if delta[0] is None else np.exp(1j * delta) * np.sin(phi)
        for i, row in enumerate(rows):
            cells = row.split(",")
            amplitudes = [
                f"--alpha={_literal(complex(alpha[i]))}", f"--beta={_literal(complex(beta[i]))}"
            ]
            assert main(["case-analyze", *amplitudes]) == 0
            header, values = capsys.readouterr().out.splitlines()
            analyzed = dict(zip(header.split(","), values.split(",")))
            assert [analyzed[name] for name in ("A", "B", "predicted")] == [cells[2], cells[3], cells[10]]
            assert main(["ipp-demo", *amplitudes]) == 0
            assert capsys.readouterr().out.splitlines()[1] == ",".join(cells[2:])


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

    @pytest.mark.parametrize(
        "x",
        [
            *(sign * np.nextafter(edge, edge * step) for sign in (1.0, -1.0)
              for edge in (1e15, 1e16) for step in (0.0, 1.0, 2.0)),
            -0.0, 0.0, 1e-05, 1e-4, 0.1 + 0.2, 123.0, -7.0, 1.5e300, 1.5e-35,
            2.2250738585072014e-308, 5e-324,
            math.inf, -math.inf, math.nan,
        ],
    )
    def test_json_float_cell_is_the_repr_of_the_rounded_float(self, x):
        # the cell skips the parse and second format where it can; it must
        # still be what json.dumps writes for the 15-digit float, including
        # just below and above 1e15 and 1e16, where %.15g and repr switch
        # to an exponent at different places; and at 1.5e-35, whose "e-35"
        # takes the round trip that only subnormals need
        want = repr(float(format_float(x)))
        assert sweep._cells(np.array([x]), "json") == [want]
        if math.isfinite(x):
            assert want == json.dumps(float(format_float(x)))

    def test_json_float_cells_over_magnitudes(self):
        rng = np.random.default_rng(71)
        column = rng.standard_normal(20000) * 10.0 ** rng.integers(-330, 300, 20000).astype(float)
        want = [repr(float(format_float(x))) for x in column.tolist()]
        assert sweep._cells(column, "json") == want

    def test_json_complex_delta_is_number(self):
        payload = json.loads(records_to_json(sweep_complex(4, 2)))
        assert payload[1]["delta"] == pytest.approx(math.pi)

    @pytest.mark.parametrize(
        "value",
        [
            {
                "counts": {"incomparable": 2, "increase": 0, "equal": 1, "convertible": 3},
                "fractions": {"incomparable": 1 / 3, "increase": 0.0, "equal": 1 / 6, "convertible": 0.5},
                "total": 6,
            },
            {"schmidt": [0.0], "entropy": -0.0},
            {"schmidt": np.array([1e16, 1e-05, 0.1 + 0.2, 0.0, -0.0]), "entropy": 1e-05},
            [-0.0, 1e-05, 1e16, 2 / 3, 0.0],
            np.array([1e16]),
            {
                "A": np.float64(0.25),
                "total": 3,
                "condition_value": None,
                "agree": np.True_,
                "observed": PairLabel.INCOMPARABLE,
            },
        ],
        ids=["summary", "one-entry-list", "five-entry-array", "five-entry-list", "one-entry-array", "row"],
    )
    def test_json_is_json_dumps_of_the_15_digit_values(self, value):
        def dumped(v):
            # what json.dumps reads for v: its floats at the cells' 15 digits,
            # enums as their values, numpy arrays and bools as Python's
            if isinstance(v, dict):
                return {key: dumped(item) for key, item in v.items()}
            if isinstance(v, (list, np.ndarray)):
                return [dumped(item) for item in list(v)]
            if isinstance(v, float):
                return float(format_float(v))
            if isinstance(v, Enum):
                return v.value
            return bool(v) if isinstance(v, np.bool_) else v

        assert sweep._json(value) == json.dumps(dumped(value), indent=2)


def _adversarial_floats(rng: np.random.Generator) -> np.ndarray:
    """Floats on which a formatter that rounds other than exactly and half to
    even, or mislays the exponent or the switch to scientific notation,
    writes other text than %.15g, each with both signs."""
    # decimal ties (m + 1/2) 10^e as their nearest doubles, at exponents -7 to 15
    digits, exponents = rng.integers(10**14, 10**15, 6000).tolist(), rng.integers(-22, 1, 6000).tolist()
    near_ties = np.array([float(f"{m}5e{e}") for m, e in zip(digits, exponents)])
    # ties that are doubles, at exponents -4 to 14: 16 digits q 5^j / 10^j = q / 2^j, q odd
    exact_ties = np.concatenate([
        np.ldexp((rng.integers(-(-10**15 // 5**j), 10**16 // 5**j, 300) | 1).astype(float), -j)
        for j in range(1, 20)
    ])
    carries = np.array([float(f"9.99999999999999{d}e{e}") for d in range(10) for e in range(-8, 18)])
    ties = np.concatenate([near_ties, exact_ties, carries])
    edges = np.array([1e-5, 1e-4, 9.99999999999995e-5, 1.0, 99999.99999999995, 99999.9999999999,
                      1e14, 999999999999999.4, 999999999999999.5, 1e15, 1e16, 2.0**-22])
    below, above = [edges], [edges]
    for _ in range(4):  # the four doubles either side of each edge
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    special = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308]
    values = np.concatenate([
        rng.uniform(0.0, 10.0, 10000),
        10.0 ** rng.uniform(-300, 300, 10000),
        10.0 ** rng.uniform(-6, 16, 20000),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        *below, *above, special,
        np.ldexp(rng.integers(1, 2**52, 200).astype(float), -1074),  # subnormals
    ])
    return np.concatenate([values, -values])


class TestFloatColumns:
    def test_column_text_is_format_float_cell_for_cell(self):
        column = _adversarial_floats(np.random.default_rng(5))
        cells = list(map(format_float, column.tolist()))
        assert sweep._float_column(column, False) == cells
        assert sweep._float_column(column, True) == list(map(sweep._json_float, column.tolist()))

    @pytest.mark.parametrize("grid", [None, (30, 24), (18, 40), (45, 16), (40, 18)])
    def test_records_are_the_cell_by_cell_text(self, monkeypatch, grid):
        # the benchmark's grids and the canonical real sweep, byte for byte
        result = sweep_real(3600) if grid is None else sweep_complex(*grid)
        assert sweep.COLUMN_MIN_CELLS <= len(result["phi"])
        texts = records_to_csv(result), records_to_json(result)
        monkeypatch.setattr(sweep, "COLUMN_MIN_CELLS", math.inf)
        assert (records_to_csv(result), records_to_json(result)) == texts
