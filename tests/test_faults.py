"""A planted-fault matrix: which check catches which fault.  Each fault is
planted in process by monkeypatch, and each command named for it runs
through cli.main.

A fault that a run catches makes every command named for it exit 3 (an
internal contract violation) with nothing on stdout.  A fault that a run
lets through exits 0, and its row states what the output shows against the
same command run unplanted: agree=false rows, other labels with every agree
cell true, other bytes, or the same bytes.  Such a fault is caught, if at
all, only by the tests: the pinned bytes and digests of
tests/test_cli_bytes.py where the bytes change, and otherwise the tier-1
test named beside its row.  README's "What a run certifies" lists both.
"""

from pathlib import Path

import pytest

from qincomp import cases, linalg, majorization, states, sweep
from qincomp.cases import _PREDICTIONS, Prediction
from qincomp.cli import main
from qincomp.majorization import _LABELS, PairLabel

HADAMARD = ["--alpha", "0.7071067811865476", "--beta", "0.7071067811865476"]

# the commands that run the trigonometric route through cases._certify;
# sweep-gamma and gamma-demo do not, so they exit 0 under the swap below
TRIG_ROUTE_COMMANDS = {
    "sweep-real": ["sweep-real", "--n", "4"],
    "sweep-complex": ["sweep-complex", "--n-phi", "4", "--n-delta", "2"],
    "ipp-demo": ["ipp-demo", *HADAMARD],
    "case-analyze": ["case-analyze", *HADAMARD],
}

# with a Jacobi tolerance of 1e-9, sweep-real at n = 4 and at n = 100 passes
# every run-time check and exits 0 (at n = 4 with the pinned bytes), so there
# only the tests catch the fault, among them the canonical sha256 digests of
# tests/test_cli_bytes.py; the complex sweeps, ipp-demo and case-analyze exit 0 too
LOOSE_JACOBI_COMMAND = ["sweep-real", "--n", "1200"]


def exits_3_silently(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, ""), captured.err
    assert captured.err.startswith("internal contract violation")


@pytest.mark.parametrize(
    "argv", [*TRIG_ROUTE_COMMANDS.values(), LOOSE_JACOBI_COMMAND], ids=[*TRIG_ROUTE_COMMANDS, "sweep-real-1200"]
)
def test_commands_exit_0_without_a_fault(argv, capsys):
    # the control: each command passes its checks when nothing is planted
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", TRIG_ROUTE_COMMANDS.values(), ids=TRIG_ROUTE_COMMANDS)
def test_trig_route_with_lam2_and_lam3_swapped_exits_3(argv, monkeypatch, capsys):
    spectrum_from_ab = cases.spectrum_from_ab
    monkeypatch.setattr(cases, "spectrum_from_ab", lambda *args: spectrum_from_ab(*args)[..., [0, 2, 1]])
    exits_3_silently(argv, capsys)


def test_loose_jacobi_tolerance_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(linalg, "JACOBI_OFF_TOL", 1e-9)
    exits_3_silently(LOOSE_JACOBI_COMMAND, capsys)


def _agree_cells(text: str) -> list[str]:
    """The agree column of a CSV table whose last column is agree."""
    lines = text.splitlines()
    assert lines[0].endswith(",agree")
    return [line.rsplit(",", 1)[1] for line in lines[1:]]


def _observed_cells(text: str) -> list[str]:
    lines = text.splitlines()
    column = lines[0].split(",").index("observed")
    return [line.split(",")[column] for line in lines[1:]]


def _swap(table, a, b):
    swapped = table.copy()
    swapped[a], swapped[b] = table[b], table[a]
    return swapped


def _pair_codes_swapped(monkeypatch):
    pair_codes = cases._pair_codes
    monkeypatch.setattr(cases, "_pair_codes", lambda src, dst: pair_codes(dst, src))


def _label_enums_swapped(monkeypatch):
    incomparable, backward = _LABELS.index(PairLabel.INCOMPARABLE), _LABELS.index(PairLabel.CONVERTIBLE_BACKWARD)
    monkeypatch.setattr(cases, "_LABEL_ENUMS", _swap(cases._LABEL_ENUMS, incomparable, backward))


def _category_names_swapped(monkeypatch):
    category = _swap(sweep._CATEGORY, PairLabel.CONVERTIBLE_BACKWARD, PairLabel.CONVERTIBLE_FORWARD)
    monkeypatch.setattr(sweep, "_CATEGORY", category)


def _two_way_admits_forward(monkeypatch):
    admitted = cases._ADMITTED.copy()
    two_way = _PREDICTIONS.index(Prediction.INCOMPARABLE_OR_INCREASE)
    admitted[two_way, _LABELS.index(PairLabel.CONVERTIBLE_FORWARD)] = True
    monkeypatch.setattr(cases, "_ADMITTED", admitted)


DATA = Path(__file__).resolve().parent / "data"
REAL_3600 = ["sweep-real", "--n", "3600"]
# twelve commands that cover every subcommand; the two faults that change no
# byte on any of them are asserted so on each
UNCHANGED_COMMANDS = {
    "sweep-real-3600": REAL_3600,
    "sweep-real-3600-summary": [*REAL_3600, "--summary"],
    "sweep-real-12-summary": ["sweep-real", "--n", "12", "--summary"],
    "sweep-complex-60x12": ["sweep-complex", "--n-phi", "60", "--n-delta", "12"],
    "sweep-complex-40x18": ["sweep-complex", "--n-phi", "40", "--n-delta", "18"],
    "sweep-gamma-8x8x8": ["sweep-gamma", "--n-theta", "8", "--n-a", "8", "--n-b", "8"],
    "ipp-demo": ["ipp-demo", *HADAMARD],
    "case-analyze": ["case-analyze", *HADAMARD],
    "gamma-demo": ["gamma-demo"],
    "check-pair": ["check-pair", "0.5,0.3,0.2", "0.6,0.3,0.1"],
    "schmidt-2x3": ["schmidt", str(DATA / "entangled-2x3.txt")],
    "schmidt-3x4": ["schmidt", str(DATA / "entangled-3x4.txt")],
}
SCHMIDT_40X33 = ["schmidt", str(DATA / "entangled-40x33.txt")]

# (fault, plant, commands, what the output shows against the unplanted run)
EXIT_0_FAULTS = [
    ("pair-codes-directions-swapped", _pair_codes_swapped, [["sweep-real", "--n", "12"]], "agree=false"),
    (
        "label-enums-incomparable-and-backward-swapped",
        _label_enums_swapped,
        [["sweep-real", "--n", "4"], ["ipp-demo", *HADAMARD]],
        "other labels",
    ),
    (
        "conditional-test-point-moved-by-1e-3",
        lambda monkeypatch: monkeypatch.setattr(cases, "SQRT3_HALF", cases.SQRT3_HALF + 1e-3),
        [REAL_3600],
        "agree=false",
    ),
    (
        "majorization-tol-1e-3",
        lambda monkeypatch: monkeypatch.setattr(majorization, "MAJORIZATION_TOL", 1e-3),
        [REAL_3600, ["sweep-complex", "--n-phi", "40", "--n-delta", "18"]],
        "agree=false",
    ),
    (
        "case-band-1e-4",
        lambda monkeypatch: monkeypatch.setattr(cases, "CASE_BAND", 1e-4),
        [REAL_3600],
        "other bytes, agree true",
    ),
    (
        "summary-increase-and-convertible-swapped",
        _category_names_swapped,
        [["sweep-real", "--n", "12", "--summary"]],
        "other bytes",
    ),
    # test_cases.py::TestPredictionConsistent::test_two_way_prediction
    # catches this one, and so does the pair-codes row above: with the fault
    # in the source, the backward pairs that row turns forward are admitted
    (
        "two-way-prediction-admits-forward",
        _two_way_admits_forward,
        [*UNCHANGED_COMMANDS.values(), SCHMIDT_40X33],
        "same bytes",
    ),
    # test_bench_contract.py::test_workload_ops_render_and_check[schmidt-files]
    # catches this one, and so do the schmidt-40x33 pins of
    # tests/test_cli_bytes.py, whose spectrum has coefficients below 1e-3
    (
        "entropy-clamp-1e-3",
        lambda monkeypatch: monkeypatch.setattr(states, "ENTROPY_CLAMP", 1e-3),
        [*UNCHANGED_COMMANDS.values()],
        "same bytes",
    ),
    (
        "entropy-clamp-1e-3-on-schmidt-40x33",
        lambda monkeypatch: monkeypatch.setattr(states, "ENTROPY_CLAMP", 1e-3),
        [SCHMIDT_40X33],
        "other bytes",
    ),
]


def _stdout_of(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), argv
    return captured.out


@pytest.mark.parametrize(
    "plant, commands, effect", [row[1:] for row in EXIT_0_FAULTS], ids=[row[0] for row in EXIT_0_FAULTS]
)
def test_fault_exits_0_with_its_stated_output(plant, commands, effect, monkeypatch, capsys):
    controls = [_stdout_of(argv, capsys) for argv in commands]
    plant(monkeypatch)
    for argv, control in zip(commands, controls):
        planted = _stdout_of(argv, capsys)
        assert (planted == control) == (effect == "same bytes"), argv
        if effect == "agree=false":
            assert "false" not in _agree_cells(control)
            assert "false" in _agree_cells(planted), argv
        elif effect == "other labels":
            assert _observed_cells(planted) != _observed_cells(control), argv
            assert set(_agree_cells(planted)) == {"true"}, argv
        elif effect == "other bytes, agree true":
            assert set(_agree_cells(planted)) == {"true"}, argv
