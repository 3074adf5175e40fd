"""End-to-end tests of the command-line interface, run in process, except
for failed writes to stdout, which need a process of their own."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qincomp import cases, cli, scenarios, states
from qincomp.cli import main, parse_complex, parse_schmidt_arg, parse_state_file
from qincomp.linalg import eigenvalues_hermitian_jacobi

# the fixed header of every sweep's CSV output, pinned here: the package
# writes its result's column names, and no code of its own reads the line
CSV_HEADER = "phi,delta,A,B,lam1,lam2,lam3,entropy_i,entropy_f,observed,predicted,agree"
BELL_FILE = "2 2\n0.7071067811865476 0\n0 0\n0 0\n0.7071067811865476 0\n"


@pytest.fixture
def bell_path(tmp_path):
    path = tmp_path / "bell.txt"
    path.write_text(BELL_FILE, encoding="utf-8")
    return str(path)


class TestParsers:
    def test_parse_complex_real_only(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("-1") == -1.0
        assert parse_complex("2e-3") == 0.002

    def test_parse_complex_full(self):
        assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
        assert parse_complex("0-1i") == -1j
        assert parse_complex("1.5e0-2.5e-1i") == 1.5 - 0.25j
        # the real part must not swallow the leading digits: 0.1i is not 1j
        assert parse_complex("0.1i") == 0.1j
        assert parse_complex("-0.8i") == -0.8j
        assert parse_complex("+2e-1i") == 0.2j

    def test_parse_complex_rejects_garbage(self):
        for text in ("abc", "1+i", "i", "1+2j", "", "1 + 2", "0.50.5i", "0.5+-0.5i", "1-2"):
            with pytest.raises(ValueError):
                parse_complex(text)

    def test_parse_schmidt_arg(self):
        vec = parse_schmidt_arg("0.5,0.3,0.2")
        assert vec.tolist() == [0.5, 0.3, 0.2]

    def test_parse_schmidt_arg_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_schmidt_arg("0.5,0.3")
        with pytest.raises(ValueError):
            parse_schmidt_arg("0.5,x")
        with pytest.raises(ValueError):
            parse_schmidt_arg("1.5,-0.5")

    def test_parse_state_file(self, bell_path):
        state = parse_state_file(bell_path)
        assert state.shape == (2, 2) and state.dtype == complex
        np.testing.assert_array_equal(state, [[math.sqrt(0.5), 0], [0, math.sqrt(0.5)]])

    def test_parse_state_file_rejects_short_body(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_state_file(str(path))

    def test_parse_state_file_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0 0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_state_file(str(path))

    def test_parse_state_file_accepts_tabs_and_crlf(self, tmp_path):
        path = tmp_path / "bell.txt"
        path.write_bytes(BELL_FILE.replace(" ", "\t").replace("\n", "\r\n").encode())
        tabs_and_crlf = parse_state_file(str(path)).view(np.uint64)
        path.write_text(BELL_FILE, encoding="utf-8")
        np.testing.assert_array_equal(tabs_and_crlf, parse_state_file(str(path)).view(np.uint64))

    def test_parse_state_file_reads_repr_amplitudes_bit_for_bit(self, tmp_path):
        m = np.random.default_rng(83).normal(size=(3, 4, 2)).view(complex)[..., 0]
        m[0, 1] = m[2, 3] = 0.0
        m /= np.linalg.norm(m)
        m[0, 1], m[2, 3] = complex(-0.0, 5e-324), complex(5e-324, -0.0)
        path = tmp_path / "state.txt"
        lines = ["3 4", *(f"{float(z.real)!r} {float(z.imag)!r}" for z in m.ravel())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        np.testing.assert_array_equal(parse_state_file(str(path)).view(np.uint64), m.view(np.uint64))


class TestSchmidtCommand:
    def test_csv_output(self, bell_path, capsys):
        assert main(["schmidt", bell_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lam1,lam2,entropy"
        assert lines[1] == "0.5,0.5,1"

    def test_json_output(self, bell_path, capsys):
        assert main(["schmidt", bell_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schmidt"] == [0.5, 0.5]
        assert payload["entropy"] == 1.0

    def test_missing_file_exits_2(self, capsys):
        assert main(["schmidt", "/nonexistent/state.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n0 0\n0 0\nnot numeric\n", encoding="utf-8")
        assert main(["schmidt", str(path)]) == 2

    def test_unnormalized_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n1 0\n0 0\n0 0\n", encoding="utf-8")
        assert main(["schmidt", str(path)]) == 2
        assert capsys.readouterr().err == "error: state amplitudes must have unit norm\n"

    def test_product_state_entropy_is_positive_zero(self, tmp_path, capsys):
        # |0>|0>; |0>|+>, whose Schmidt coefficient lands an ulp above 1;
        # |+>|+>, whose Schmidt coefficient lands an ulp below 1; and |0>|0>
        # with a norm off 1 by 8e-13, inside NORM_TOL
        path = tmp_path / "product.txt"
        rows = {
            "1 0\n0 0\n0 0\n0 0\n": "1,0,0",
            "0.7071067811865476 0\n" * 2 + "0 0\n" * 2: "1,0,0",
            "0.5 0\n" * 4: "1,0,0",
            "1.0000000000004 0\n0 0\n0 0\n0 0\n": "1.0000000000008,0,0",
        }
        for body, row in rows.items():
            path.write_text("2 2\n" + body, encoding="utf-8")
            assert main(["schmidt", str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[1] == row
            assert main(["schmidt", str(path), "--format", "json"]) == 0
            entropy = json.loads(capsys.readouterr().out)["entropy"]
            assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_overflowing_amplitude_exits_2(self, tmp_path, capsys):
        # 1e308 squares past the largest float: rejected without a numpy warning
        path = tmp_path / "huge.txt"
        path.write_text("2 2\n1e308 0\n0 0\n0 0\n0 0\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["schmidt", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: state amplitudes must have unit norm")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, fmt):
        # an editor may save UTF-8 with a leading byte-order mark
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(BELL_FILE, encoding="utf-8")
        marked.write_text(BELL_FILE, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        outputs = []
        for path in (plain, marked):
            assert main(["schmidt", str(path), "--format", fmt]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("header", ["2 -2", "0 5"])
    def test_nonpositive_dimension_exits_2(self, tmp_path, capsys, header):
        # refused as soon as the header is read, before the body is counted
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n", encoding="utf-8")
        assert main(["schmidt", str(path)]) == 2
        assert capsys.readouterr().err == "error: subsystem dimensions must be positive\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n1 0\n", "state file needs 4 amplitude lines, found 1"),
            ("2 2\nnan 0\n0 0\n0 0\n0 0\n", "state amplitudes must have unit norm"),
            # a squared norm off 1 by 1.2e-12, just past NORM_TOL (8e-13 passes above)
            ("2 2\n1.0000000000006 0\n0 0\n0 0\n0 0\n", "state amplitudes must have unit norm"),
            ("2 x\n", "state file dimensions must be integers"),
            ("2 2\n1 0 0\n0 0\n0 0\n0 0\n", "amplitude line 2 must be 're im'"),
            # line 3 is not numeric and line 5 has three fields: line 3 wins
            ("2 2\n1 0\nx 0\n0 0\n0 0 0\n", "amplitude line 3 is not numeric"),
            # blank lines are not counted: the third line with text is line 3
            ("\n2 2\n\n1 0\n  \t\n0 0 0\n0 0\n0 0\n", "amplitude line 3 must be 're im'"),
        ],
        ids=["wrong_count", "nan", "norm_just_outside_tolerance", "non_integer_dimension", "three_fields",
             "first_error_wins", "blank_lines_not_counted"],
    )
    def test_refused_file_exits_2_quietly(self, tmp_path, capsys, text, message):
        # the parser is the one check of a state file: a refusal is one
        # error line, with no traceback and no numpy warning
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["schmidt", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestCheckPairCommand:
    def test_forward(self, capsys):
        assert main(["check-pair", "0.5,0.3,0.2", "0.6,0.3,0.1"]) == 0
        assert capsys.readouterr().out.strip() == "CONVERTIBLE_FORWARD"

    def test_incomparable(self, capsys):
        assert main(["check-pair", "0.5,0.4,0.1", "0.6,0.2,0.2"]) == 0
        assert capsys.readouterr().out.strip() == "INCOMPARABLE"

    def test_json_partial_sums(self, capsys):
        assert main(
            ["check-pair", "0.5,0.5", "1,0", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "CONVERTIBLE_FORWARD"
        assert payload["partial_sums_src"] == [0.5, 1.0]
        assert payload["partial_sums_dst"] == [1.0, 1.0]

    def test_bad_vector_exits_2(self, capsys):
        # 1e308,1e308 overflows its sum: rejected without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in ("0.5,0.4", "nan,1", "inf,0", "1e308,1e308"):
                assert main(["check-pair", bad, "0.5,0.5"]) == 2
                assert main(["check-pair", "0.5,0.5", bad]) == 2


class TestGammaDemoCommand:
    def test_default_is_flipper(self, capsys):
        assert main(["gamma-demo"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["theta"]) == pytest.approx(math.pi / 2)
        assert fields["observed"] == "INCOMPARABLE"
        assert float(fields["lam_i1"]) == pytest.approx(2 / 3, abs=1e-12)
        assert float(fields["lam_f1"]) == pytest.approx(0.622008467928146, abs=1e-12)

    def test_json_angles(self, capsys):
        assert main(
            ["gamma-demo", "--theta", "0.3", "--phi-a", "1.1", "--phi-b", "2.2",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"] == pytest.approx(0.3)
        assert payload["observed"] == "INCOMPARABLE"
        assert payload["lam_f1"] == pytest.approx(0.622008467928146, abs=1e-10)

    def test_negative_exponent_value(self, capsys):
        # argparse's own negative-number pattern has no exponent form
        assert main(["gamma-demo", "--theta", "-1e-3"]) == 0
        spaced = capsys.readouterr().out
        assert main(["gamma-demo", "--theta=-1e-3"]) == 0
        assert spaced == capsys.readouterr().out

    @pytest.mark.parametrize("shift, code", [(2e-10, 3), (5e-11, 0)])
    def test_certified_like_sweep_gamma(self, capsys, monkeypatch, shift, code):
        # both commands check the Jacobi final vector against the closed form
        monkeypatch.setattr(cases, "CHI_FINAL_SCHMIDT", cases.CHI_FINAL_SCHMIDT + shift)
        for argv in (["gamma-demo"], ["sweep-gamma", "--n-theta", "2", "--n-a", "2", "--n-b", "2"]):
            assert main(argv) == code
            captured = capsys.readouterr()
            if code:
                assert captured.out == ""
                assert captured.err.startswith(
                    "internal contract violation: final Schmidt vector deviates by 2.0"
                )
            else:
                assert captured.err == "" and captured.out

    def test_final_vector_is_sweep_gammas(self, monkeypatch):
        # gamma-demo builds its final state from one-point angle arrays, as
        # sweep-gamma does from a block of them, so the two agree bit for bit
        rows = []
        monkeypatch.setattr(cli, "_emit", lambda fmt, row, payload=None: rows.append(row))
        rng = np.random.default_rng(20)
        for theta, phi_a, phi_b in rng.uniform(0.0, 2.0 * math.pi, size=(24, 3)).tolist():
            assert main(["gamma-demo", "--theta", repr(theta), "--phi-a", repr(phi_a),
                         "--phi-b", repr(phi_b)]) == 0
            one_point = [np.array([angle]) for angle in (theta, phi_a, phi_b)]
            expected = states.schmidt_vector(scenarios.chi_final(*one_point))[0]
            assert [rows[-1][f"lam_f{i}"] for i in (1, 2, 3)] == expected.tolist()

    def test_one_stacked_jacobi_call(self, capsys, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return eigenvalues_hermitian_jacobi(m)

        monkeypatch.setattr(states, "eigenvalues_hermitian_jacobi", counted)
        assert main(["gamma-demo"]) == 0
        assert calls == [(3, 3, 2)]


class TestIppDemoCommand:
    def test_negative_values(self, capsys):
        # cos(pi) and sin(pi), a valid pair whose beta has an exponent, and
        # a negative pure imaginary beta
        for alpha, beta in (("1", "-1.2246467991473532e-16"), ("0.6", "-0.8i")):
            assert main(["ipp-demo", "--alpha", alpha, "--beta", beta]) == 0
            spaced = capsys.readouterr().out
            assert main(["ipp-demo", "--alpha", alpha, f"--beta={beta}"]) == 0
            assert spaced == capsys.readouterr().out

    def test_flipping_point(self, capsys):
        assert main(["ipp-demo", "--alpha", "0", "--beta", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["A"]) == pytest.approx(0.25, abs=1e-12)
        assert float(fields["B"]) == pytest.approx(0.25, abs=1e-12)
        assert fields["observed"] == "INCOMPARABLE"
        assert fields["predicted"] == "INCOMPARABLE"
        assert fields["agree"] == "true"

    def test_complex_beta_json(self, capsys):
        assert main(
            ["ipp-demo", "--alpha", "0.6", "--beta", "0+0.8i", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        assert payload["lam1"] + payload["lam2"] + payload["lam3"] == pytest.approx(
            1.0, abs=1e-10
        )

    def test_unnormalized_params_exit_2(self, capsys):
        assert main(["ipp-demo", "--alpha", "1", "--beta", "1"]) == 2
        # |beta| = 0.1, read as a value even with its minus sign
        for beta in ("0.1i", "-0.1i"):
            assert main(["ipp-demo", "--alpha", "0", "--beta", beta]) == 2

    def test_malformed_literal_exits_2(self, capsys):
        assert main(["ipp-demo", "--alpha", "abc", "--beta", "1"]) == 2

    def test_row_matches_real_sweep_row(self, capsys):
        # ipp-demo and the sweeps share one per-point kernel, so each
        # ipp-demo row is the sweep row without its phi and delta columns
        n = 360
        assert main(["sweep-real", "--n", str(n)]) == 0
        sweep_rows = capsys.readouterr().out.splitlines()[1:]
        assert len(sweep_rows) == n
        for k, sweep_row in enumerate(sweep_rows):
            phi = 2.0 * math.pi * k / n
            argv = ["ipp-demo", f"--alpha={math.cos(phi)!r}", f"--beta={math.sin(phi)!r}"]
            assert main(argv) == 0
            header, row = capsys.readouterr().out.splitlines()
            assert header == CSV_HEADER.split(",", 2)[2]
            assert row == sweep_row.split(",", 2)[2], f"phi index {k}"


class TestAmplitudeCheck:
    # cli has one unit-norm check, at NORM_TOL = 1e-12, for the (alpha, beta)
    # pair (cli._amplitude_args, through cli._unit_amplitudes) and for a
    # state file's amplitudes (TestSchmidtCommand tests those on both sides
    # of it).  For EDGE, |alpha|^2 + |beta|^2 - 1 is 9.9987e-13, inside
    # NORM_TOL, while the 12 squared amplitudes of the final state sum to 1
    # only within rounding: amplitudes are checked once, where cli reads them
    EDGE = ["--alpha", "0.6236624066638249", "--beta=-0.35862063110343056-0.694576450408638i"]

    @pytest.mark.parametrize("command", ["ipp-demo", "case-analyze"])
    def test_pair_at_tolerance_edge_accepted(self, command, capsys):
        assert main([command, *self.EDGE]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 2

    @pytest.mark.parametrize("command", ["ipp-demo", "case-analyze"])
    def test_pair_just_outside_tolerance_refused(self, command, capsys):
        # |alpha|^2 - 1 is 1.2e-12 at alpha = 1 + 6e-13, and 8.0e-13 at 1 + 4e-13
        assert main([command, "--alpha", "1.0000000000004", "--beta", "0"]) == 0
        capsys.readouterr()
        assert main([command, "--alpha", "1.0000000000006", "--beta", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: amplitudes must satisfy |alpha|^2 + |beta|^2 = 1\n"
        )


class TestCaseAnalyzeCommand:
    def test_flipping_fields(self, capsys):
        assert main(["case-analyze", "--alpha", "0", "--beta", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["case"] == "B_POS"
        assert fields["subcase"] == "A_EQ_QUARTER"
        assert fields["predicted"] == "INCOMPARABLE"
        assert fields["condition_value"] == ""
        assert list(fields) == ["A", "B", "case", "subcase", "predicted", "condition_value"]

    def test_hadamard_json_fields(self, capsys):
        alpha = format(1 / math.sqrt(2), ".17g")
        assert main(
            ["case-analyze", "--alpha", alpha, "--beta", alpha, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "B_POS"
        assert payload["subcase"] == "A_GT_QUARTER"
        assert payload["predicted"] == "CONDITIONAL"
        assert payload["condition_value"] == pytest.approx(0.837565435283323, abs=1e-14)
        assert list(payload) == ["A", "B", "case", "subcase", "predicted", "condition_value"]


class TestSweepCommands:
    def test_sweep_real_csv(self, capsys):
        assert main(["sweep-real", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert lines[1].split(",")[9] == "EQUAL"
        assert lines[2].split(",")[9] == "INCOMPARABLE"

    def test_sweep_real_summary(self, capsys):
        assert main(["sweep-real", "--n", "4", "--summary"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["total"] == "4"
        assert fields["count_incomparable"] == "2"
        assert fields["frac_equal"] == "0.5"

    def test_sweep_real_summary_json(self, capsys):
        assert main(["sweep-real", "--n", "8", "--summary", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 8
        assert sum(payload["counts"].values()) == 8

    @pytest.mark.parametrize(
        "argv",
        [["sweep-real", "--n", "3600"], ["sweep-complex", "--n-phi", "60", "--n-delta", "12"]],
        ids=["real", "complex"],
    )
    def test_summary_json_fractions_are_the_csv_cells(self, capsys, argv):
        # JSON floats carry the 15 significant digits of the CSV cells
        assert main([*argv, "--summary"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert main([*argv, "--summary", "--format", "json"]) == 0
        fractions = json.loads(capsys.readouterr().out)["fractions"]
        assert len(fractions) == 4
        for name, value in fractions.items():
            assert value == float(cells[f"frac_{name}"])

    def test_sweep_real_json_records(self, capsys):
        assert main(["sweep-real", "--n", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert payload[0]["delta"] is None

    def test_sweep_real_n_too_small_exits_2(self, capsys):
        assert main(["sweep-real", "--n", "1"]) == 2

    def test_sweep_complex_csv(self, capsys):
        assert main(["sweep-complex", "--n-phi", "4", "--n-delta", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        assert lines[1].split(",")[1] == "0"

    def test_sweep_complex_bad_grid_exits_2(self, capsys):
        assert main(["sweep-complex", "--n-phi", "4", "--n-delta", "0"]) == 2

    def test_sweep_gamma(self, capsys):
        assert main(["sweep-gamma", "--n-theta", "2", "--n-a", "2", "--n-b", "2"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["grid_points"] == "8"
        assert float(fields["max_deviation"]) < 1e-10

    def test_sweep_gamma_json(self, capsys):
        assert main(
            ["sweep-gamma", "--n-theta", "1", "--n-a", "1", "--n-b", "1",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid_points"] == 1
        assert payload["max_deviation"] < 1e-10

    def test_double_root_grid_certifies(self, capsys):
        # the phi = pi/2 column of this grid sits on the discriminant
        # boundary, a double root, where the kernel's sum-of-squares root
        # keeps the trig and Jacobi routes within tolerance
        assert main(["sweep-complex", "--n-phi", "12", "--n-delta", "6", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 72
        assert all(row["agree"] for row in rows)
        # the same grid point through ipp-demo, which is certified the same way
        assert main(
            ["ipp-demo", "--alpha", "6.123233995736766e-17",
             "--beta", "0.5000000000000001+0.8660254037844386i"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",INCOMPARABLE,INCOMPARABLE,true")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refused_grid_writes_nothing(self, capsys, monkeypatch, fmt):
        # every block is certified before any is written, so no partial
        # table; no tolerance at all makes the kernel refuse this grid
        monkeypatch.setattr(cases, "SOLVER_AGREE_TOL", 0.0)
        args = ["sweep-complex", "--n-phi", "12", "--n-delta", "6", "--format", fmt]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal contract violation" in captured.err


class TestPlantedNanExits3:
    """A NaN planted in the Jacobi route fails the certifying comparison
    that reads it: a NaN gap or deviation is no agreement."""

    @pytest.mark.parametrize(
        "module, argv",
        [
            pytest.param(cases, ["ipp-demo", "--alpha", "0.6", "--beta", "0.8"], id="ipp-demo"),
            pytest.param(cases, ["sweep-real", "--n", "4"], id="sweep-real"),
            pytest.param(cases, ["gamma-demo"], id="gamma-demo"),
            pytest.param(cases, ["sweep-gamma", "--n-theta", "2", "--n-a", "2", "--n-b", "2"],
                         id="sweep-gamma"),
        ],
    )
    def test_nan_schmidt_vector_exits_3(self, capsys, monkeypatch, module, argv):
        schmidt_vector = module.schmidt_vector
        monkeypatch.setattr(module, "schmidt_vector", lambda m: schmidt_vector(m) * np.nan)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal contract violation: ")
        assert " nan " in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["ipp-demo", "--alpha", "0.6", "--beta", "0.8"], id="ipp-demo"),
            pytest.param(["sweep-real", "--n", "4"], id="sweep-real"),
            pytest.param(["gamma-demo"], id="gamma-demo"),
            pytest.param(["sweep-gamma", "--n-theta", "2", "--n-a", "2", "--n-b", "2"], id="sweep-gamma"),
        ],
    )
    def test_nan_gram_exits_3(self, capsys, monkeypatch, argv):
        # the Jacobi route refuses the Gram with NaN entries: past the input
        # checks that refusal is the program's fault, not the input's
        gram = states.reduced_density_a
        monkeypatch.setattr(states, "reduced_density_a", lambda m: gram(m) * np.nan)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal contract violation: eigenvalues_hermitian_jacobi requires finite entries\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["ipp-demo", "--alpha", "0.6", "--beta", "0.8"], id="ipp-demo"),
            pytest.param(["case-analyze", "--alpha", "0.6", "--beta", "0.8"], id="case-analyze"),
            pytest.param(["sweep-real", "--n", "4"], id="sweep-real"),
        ],
    )
    def test_nan_discriminant_root_exits_3(self, capsys, monkeypatch, argv):
        # the trig route refuses the spectrum of a NaN root, which does not
        # sum to 1
        root = cases._discriminant_root
        monkeypatch.setattr(cases, "_discriminant_root", lambda *data: root(*data) * np.nan)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal contract violation: spectrum must sum to 1\n"

    def test_malformed_input_still_exits_2(self, capsys):
        # the input checks come first and keep their exit code
        for argv in (["ipp-demo", "--alpha", "nan", "--beta", "0.8"], ["gamma-demo", "--theta", "nan"],
                     ["sweep-gamma", "--n-theta", "0", "--n-a", "2", "--n-b", "2"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestPlantedInitialStateExits3:
    """Each command checks the initial Schmidt vector its verdicts read
    against its closed form, so a perturbed initial state is a contract
    violation, not a verdict.  Each scenario's kernel reads its initial
    state as point 0 of its one Jacobi stack: cases._certify as pi_final at
    the identity, cases._certify_gamma as build_chi_initial's state."""

    @pytest.mark.parametrize(
        "module, builder, argv",
        [
            pytest.param(cases, "pi_final", ["ipp-demo", "--alpha", "0.6", "--beta", "0.8"],
                         id="ipp-demo"),
            pytest.param(cases, "pi_final", ["sweep-real", "--n", "4"], id="sweep-real"),
            pytest.param(cases, "build_chi_initial", ["gamma-demo"], id="gamma-demo"),
            pytest.param(cases, "build_chi_initial",
                         ["sweep-gamma", "--n-theta", "2", "--n-a", "2", "--n-b", "2"],
                         id="sweep-gamma"),
        ],
    )
    def test_perturbed_initial_state_exits_3(self, capsys, monkeypatch, module, builder, argv):
        build = getattr(module, builder)

        def perturbed(*args):
            # the superposition scenario's vector moves only to second order
            state = build(*args)
            initial = state[..., 0] if state.ndim == 3 else state
            initial[0, 0] += 1e-3
            initial /= np.linalg.norm(initial)
            return state

        monkeypatch.setattr(module, builder, perturbed)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal contract violation: initial Schmidt vector deviates by ")


SRC = str(Path(__file__).resolve().parents[1] / "src")
DATA = Path(__file__).resolve().parent / "data"
BIG_OUTPUT = ["sweep-real", "--n", "3600"]  # far more than a pipe holds


def _cli_env(unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True])
class TestStdoutWriteErrors:
    def test_closed_pipe_ends_quietly(self, unbuffered):
        with subprocess.Popen(
            [sys.executable, "-m", "qincomp.cli", *BIG_OUTPUT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(unbuffered),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert first.decode() == CSV_HEADER + "\n"
        assert err == b""
        assert proc.returncode == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [BIG_OUTPUT, ["gamma-demo"]])
    def test_full_device_is_one_error_line(self, unbuffered, argv):
        # gamma-demo's one row fails only when stdout is flushed
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [sys.executable, "-m", "qincomp.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=_cli_env(unbuffered), timeout=120,
            )
        assert done.stderr.decode() == "error: [Errno 28] No space left on device\n"
        assert done.returncode == 1


# Counts the Jacobi calls one command makes, in an interpreter of its own, so
# that nothing an earlier command built in the same process is reused.
_COUNT_JACOBI = """
import contextlib, io, sys
from qincomp import cli, states
shapes = []
jacobi = states.eigenvalues_hermitian_jacobi
def counted(gram):
    shapes.append(gram.shape)
    return jacobi(gram)
states.eigenvalues_hermitian_jacobi = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, len(shapes))
"""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["ipp-demo", "--alpha", "0.6", "--beta", "0.8"], id="ipp-demo"),
        pytest.param(["case-analyze", "--alpha", "0.6", "--beta", "0.8"], id="case-analyze"),
        pytest.param(["sweep-real", "--n", "4"], id="sweep-real"),
        pytest.param(["sweep-complex", "--n-phi", "4", "--n-delta", "2"], id="sweep-complex"),
        pytest.param(["gamma-demo"], id="gamma-demo"),
        pytest.param(["sweep-gamma", "--n-theta", "4", "--n-a", "3", "--n-b", "2"], id="sweep-gamma"),
        pytest.param(["schmidt", str(DATA / "entangled-2x3.txt")], id="schmidt"),
    ],
)
def test_each_command_makes_one_jacobi_call(argv):
    # the initial state is a point of the one stacked call, never a lone call
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_JACOBI, *argv],
        capture_output=True, text=True, env=_cli_env(False), timeout=120,
    )
    assert done.stderr == ""
    assert done.stdout == "0 1\n"


# Whether a command loads json or dataclasses, in an interpreter of its own.
_LOADED = """
import contextlib, io, sys
from qincomp import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "json" in sys.modules, "dataclasses" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-real", "--n", "4"],
        ["sweep-complex", "--n-phi", "4", "--n-delta", "2", "--format", "json"],
        ["schmidt", str(DATA / "entangled-2x3.txt"), "--format", "json"],
        ["check-pair", "0.5,0.4,0.1", "0.6,0.2,0.2", "--format", "json"],
        ["sweep-real", "--n", "4", "--summary", "--format", "json"],
        ["gamma-demo", "--format", "json"],
    ],
    ids=["csv", "json-rows", "schmidt-json", "check-pair-json", "summary-json", "gamma-demo-json"],
)
def test_row_output_loads_neither_json_nor_dataclasses(argv):
    # start-up time: rows and JSON payloads alike are written by the
    # sweep's own writers, so no command loads json
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        capture_output=True, text=True, env=_cli_env(False), timeout=120,
    )
    assert done.stderr == ""
    assert done.stdout == "0 False False\n"


class TestOversizedGrids:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-gamma", "--n-theta", "4294967296", "--n-a", "4294967296", "--n-b", "2"],
            ["sweep-complex", "--n-phi", "4294967296", "--n-delta", "4294967296"],
        ],
        ids=["sweep-gamma", "sweep-complex"],
    )
    def test_a_grid_numpy_cannot_index_exits_2(self, argv):
        # numpy refuses the grid's index space before anything is allocated
        code, err = _exit_code_and_stderr(argv)
        assert code == 2
        assert err.startswith("error: dimensions are too large")

    def test_a_request_too_large_for_memory_is_one_error_line(self, capsys, monkeypatch):
        # planted, as a real huge allocation may succeed lazily and end in an OOM kill
        message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type float64"

        def refused(n):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "sweep_real", refused)
        assert main(["sweep-real", "--n", "10000000000000", "--summary"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: not enough memory: {message}\n"


class TestParserErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_missing_required_option_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ipp-demo", "--alpha", "1"])
        assert excinfo.value.code == 2


def _exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True)
NUMBER = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "0.6", "0.8", "0.7071067811865476"]),
    st.floats().map(repr),
    st.text(max_size=8),
)
COMPLEX_LITERAL = st.one_of(
    NUMBER,
    st.tuples(NUMBER, NUMBER).map(lambda z: f"{z[0]}+{z[1]}i"),
    st.tuples(NUMBER, NUMBER).map(lambda z: f"{z[0]}-{z[1]}i"),
)
STATE_FILE = st.tuples(
    st.one_of(
        st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map(lambda d: f"{d[0]} {d[1]}"),
        st.text(max_size=8),
    ),
    st.lists(
        st.one_of(st.tuples(NUMBER, NUMBER).map(" ".join), st.text(max_size=10)),
        max_size=9,
    ),
).map(lambda f: "\n".join([f[0], *f[1]]) + "\n")


class TestParserFuzz:
    """Malformed input may only end in exit 0 or exit 2, never a traceback."""

    @FUZZ
    @given(st.lists(NUMBER, min_size=1, max_size=4).map(",".join), NUMBER)
    def test_check_pair_vectors(self, vec_a, vec_b):
        for argv in (["check-pair", vec_a, vec_b], ["check-pair", vec_b, vec_a]):
            code, err = _exit_code_and_stderr(argv)
            assert code in (0, 2) and "Traceback" not in err, (argv, code, err)

    @FUZZ
    @given(COMPLEX_LITERAL, COMPLEX_LITERAL)
    @example("0", "1.3407807929942597e+154")  # |beta|^2 overflows
    @example("1e-12", "1")  # next to a flipping point: a double root
    def test_complex_literals(self, alpha, beta):
        for command in ("ipp-demo", "case-analyze"):
            argv = [command, f"--alpha={alpha}", f"--beta={beta}"]
            code, err = _exit_code_and_stderr(argv)
            assert code in (0, 2) and "Traceback" not in err, (argv, code, err)

    @FUZZ
    @given(STATE_FILE)
    def test_state_files(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            code, err = _exit_code_and_stderr(["schmidt", path])
        assert code in (0, 2) and "Traceback" not in err, (text, code, err)
