"""Exact-bytes tests of CLI output: stdout of a few small commands, pinned
byte for byte, so a change in indent, digits or column order fails here
even where a parsing test would still pass.

The expected files in tests/cli_bytes/ are the commands' stdout; to
refresh one on purpose, run the command and overwrite its file.  The
canonical commands' outputs are too large to commit, so
tests/cli_bytes/canonical.sha256 pins the sha256 of each instead, one
"<digest>  <name>.<format>" line per output.
"""

import hashlib
from pathlib import Path

import pytest

from qincomp.cli import main

EXPECTED = Path(__file__).resolve().parent / "cli_bytes"
ENTANGLED_2X3 = Path(__file__).resolve().parent / "data" / "entangled-2x3.txt"
PRODUCT_1X3 = Path(__file__).resolve().parent / "data" / "product-1x3.txt"
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
    "gamma-demo-angles": ["gamma-demo", "--theta", "0.3", "--phi-a", "1.1", "--phi-b", "2.2"],
    "check-pair-incomparable": ["check-pair", "0.5,0.4,0.1", "0.6,0.2,0.2"],
    "schmidt-2x3": ["schmidt", str(ENTANGLED_2X3)],
    # the JSON writer's edge shapes: a null cell, one-entry lists, a zero entropy
    "case-analyze-null": ["case-analyze", "--alpha", "0", "--beta", "1"],
    "check-pair-one-entry": ["check-pair", "1", "1"],
    "schmidt-product-1x3": ["schmidt", str(PRODUCT_1X3)],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_bytes(name, fmt, capsys):
    assert main([*COMMANDS[name], "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (EXPECTED / f"{name}.{fmt}").read_bytes()


CANONICAL = {
    "sweep-real-n3600": ["sweep-real", "--n", "3600"],
    "sweep-real-n3600-summary": ["sweep-real", "--n", "3600", "--summary"],
    "sweep-complex-60x12": ["sweep-complex", "--n-phi", "60", "--n-delta", "12"],
    # phi = pi/2 and delta = pi/3 are grid points, where two trig roots meet
    "sweep-complex-40x18": ["sweep-complex", "--n-phi", "40", "--n-delta", "18"],
    "sweep-gamma-8x8x8": ["sweep-gamma", "--n-theta", "8", "--n-a", "8", "--n-b", "8"],
}


def _canonical_digests() -> dict[str, str]:
    lines = (EXPECTED / "canonical.sha256").read_text(encoding="ascii").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(CANONICAL))
def test_canonical_stdout_digest(name, fmt, capsys):
    assert main([*CANONICAL[name], "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == _canonical_digests()[f"{name}.{fmt}"]
