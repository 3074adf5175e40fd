"""Exact-bytes tests of CLI output: stdout of a few small commands, pinned
byte for byte, so a change in indent, digits or column order fails here
even where a parsing test would still pass.

The expected files in tests/cli_bytes/ are the commands' stdout; to
refresh one on purpose, run the command and overwrite its file.
"""

from pathlib import Path

import pytest

from qincomp.cli import main

EXPECTED = Path(__file__).resolve().parent / "cli_bytes"
ENTANGLED_2X3 = Path(__file__).resolve().parent / "data" / "entangled-2x3.txt"
HADAMARD = ["--alpha", "0.7071067811865476", "--beta", "0.7071067811865476"]

COMMANDS = {
    "sweep-real-n4": ["sweep-real", "--n", "4"],
    "sweep-complex-4x2": ["sweep-complex", "--n-phi", "4", "--n-delta", "2"],
    "sweep-complex-4x2-summary": ["sweep-complex", "--n-phi", "4", "--n-delta", "2", "--summary"],
    "sweep-real-n4-summary": ["sweep-real", "--n", "4", "--summary"],
    "ipp-demo": ["ipp-demo", "--alpha", "0.6", "--beta", "0+0.8i"],
    "case-analyze-hadamard": ["case-analyze", *HADAMARD],
    "sweep-gamma-4x3x2": ["sweep-gamma", "--n-theta", "4", "--n-a", "3", "--n-b", "2"],
    "gamma-demo": ["gamma-demo"],
    "check-pair-incomparable": ["check-pair", "0.5,0.4,0.1", "0.6,0.2,0.2"],
    "schmidt-2x3": ["schmidt", str(ENTANGLED_2X3)],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_bytes(name, fmt, capsys):
    assert main([*COMMANDS[name], "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (EXPECTED / f"{name}.{fmt}").read_bytes()
