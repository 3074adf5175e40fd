"""Exact-bytes tests of CLI output: stdout of a few small commands, pinned
byte for byte, so a change in indent, digits or column order fails here
even where a parsing test would still pass.

The expected files in tests/cli_bytes/ are the commands' stdout; to
refresh one on purpose, run the command and overwrite its file.  The
canonical commands' outputs are too large to commit, so
tests/cli_bytes/canonical.sha256 pins the sha256 of each instead, one
"<digest>  <name>.<format>" line per output.

The float bits depend on which numpy kernels run, so tests/cli_bytes/PLATFORM
records the numpy version and the highest x86 level numpy dispatched to where
the pins were written; a mismatch names that level and the running one, and
for a pinned file the largest distance between its float cells in ulps.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
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
    pinned = (EXPECTED / f"{name}.{fmt}").read_bytes()
    assert captured.out.encode("utf-8") == pinned, mismatch(captured.out, pinned.decode("utf-8"))


# a number that is a whole cell or JSON value, not the digit of a name such as lam1
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def dispatch_level() -> str:
    """The highest x86 level numpy's kernels dispatch to here, or "baseline"."""
    from numpy._core._multiarray_umath import __cpu_features__

    levels = [level for level in ("X86_V2", "X86_V3", "X86_V4") if __cpu_features__.get(level)]
    return (levels or ["baseline"])[-1]


def ulps(a: float, b: float) -> int:
    """How many steps between adjacent doubles lead from a to b, with -0.0
    one step below 0.0, so that no two texts of different bits are 0 apart."""
    ordered = [int(x.view(np.int64)) for x in np.array([a, b])]
    ordered = [i if i >= 0 else np.iinfo(np.int64).min - i - 1 for i in ordered]
    return abs(ordered[0] - ordered[1])


def mismatch(out: str, pinned: str | None = None) -> str:
    """Where the pins were written and where they ran, and for a pinned
    file how far apart its float cells are, for a failed comparison."""
    platform = dict(line.split() for line in (EXPECTED / "PLATFORM").read_text(encoding="ascii").splitlines())
    message = (
        f"pinned at {platform['level']} with numpy {platform['numpy']}, "
        f"running at {dispatch_level()} with numpy {np.__version__}"
    )
    if pinned is None:
        return message
    if NUMBER.sub("#", out) != NUMBER.sub("#", pinned):
        return f"{message}; text other than numbers differs"
    distance = max((ulps(float(a), float(b)) for a, b in zip(NUMBER.findall(out), NUMBER.findall(pinned))), default=0)
    return f"{message}; largest float-cell distance {distance} ulp"


def test_mismatch_names_levels_and_ulps():
    pinned = (EXPECTED / "sweep-real-n4.csv").read_text(encoding="utf-8")
    assert mismatch(pinned, pinned).endswith("largest float-cell distance 0 ulp")
    nudged = pinned.replace("0.622008467928146", "0.622008467928147", 1)
    message = mismatch(nudged, pinned)
    assert f"running at {dispatch_level()}" in message and "pinned at X86_" in message
    assert message.endswith(f"distance {ulps(0.622008467928147, 0.622008467928146)} ulp")
    assert ulps(0.622008467928147, 0.622008467928146) > 1 and ulps(-0.0, 0.0) == 1
    assert ulps(1.0, np.nextafter(1.0, 2.0)) == 1 and ulps(-5e-324, 5e-324) == 3
    assert mismatch(pinned.replace("EQUAL", "INCOMPARABLE", 1), pinned).endswith("other than numbers differs")


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
    assert digest == _canonical_digests()[f"{name}.{fmt}"], mismatch(captured.out)
