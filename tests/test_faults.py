"""Planted faults that a user's run catches: each fault is planted in process
by monkeypatch, and every command named for it must exit 3 (an internal
contract violation) with nothing on stdout.

This is the start of a fault matrix: which check catches which fault.  A
fault that a run lets through with exit 0 is caught, if at all, only by the
tests, and is named in a comment beside the faults that a run catches.
"""

import pytest

from qincomp import cases, linalg
from qincomp.cli import main

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
