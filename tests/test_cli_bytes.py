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
At each x86 level below the host's that numpy can be held to, the canonical
commands run in a child and must match the in-process CSV cell for cell,
every float cell within FLOAT_CELL_BOUND (relative, or absolute below 1).
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qincomp.cli import main

EXPECTED = Path(__file__).resolve().parent / "cli_bytes"
SRC = str(Path(__file__).resolve().parents[1] / "src")
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
    # unsorted vectors of different lengths: classify_pair sorts and pads them
    "check-pair-padded": ["check-pair", "0.4,0.6", "0.2,0.5,0.3"],
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


# 1.02e-14 absolute and 1.86e-14 relative were the largest differences measured
# over the canonical CSV outputs at X86_V3 and X86_V2 on an X86_V4 host
FLOAT_CELL_BOUND = 1e-13


def disabled_above(level: str) -> list[str] | None:
    """The enabled numpy dispatch targets above x86 level, which
    NPY_DISABLE_CPU_FEATURES must name to hold a process to that level, or
    None where numpy here cannot run at it below the host's own level.
    Naming AVX512F alone, say, would leave every target on."""
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if level in enabled:
        above = enabled[enabled.index(level) + 1 :]
    elif [level] == [name for name in __cpu_baseline__ if name.startswith("X86_")][-1:]:
        above = enabled
    else:
        return None
    return above or None


def cells_apart(out: str, reference: str) -> str | None:
    """The first place where CSV text out departs from reference: another
    line or cell count, a cell that is not a number and differs, or a number
    more than FLOAT_CELL_BOUND * max(1, |x|) from the reference's x; None if
    there is none."""
    lines, reference_lines = out.splitlines(), reference.splitlines()
    if len(lines) != len(reference_lines):
        return f"{len(lines)} lines against {len(reference_lines)}"
    for row, (line, reference_line) in enumerate(zip(lines, reference_lines), 1):
        cells, reference_cells = line.split(","), reference_line.split(",")
        if len(cells) != len(reference_cells):
            return f"line {row}: {len(cells)} cells against {len(reference_cells)}"
        for column, (cell, x) in enumerate(zip(cells, reference_cells), 1):
            numbers = NUMBER.fullmatch(cell) and NUMBER.fullmatch(x)
            if cell != x and not (numbers and abs(float(cell) - float(x)) <= FLOAT_CELL_BOUND * max(1.0, abs(float(x)))):
                return f"line {row}, cell {column}: {cell!r} against {x!r}"
    return None


def test_cells_apart_rejects_moved_floats_and_changed_labels():
    pinned = (EXPECTED / "sweep-real-n4.csv").read_text(encoding="utf-8")
    assert cells_apart(pinned, pinned) is None
    assert cells_apart(pinned.replace("0.622008467928146", "0.622008467928147", 1), pinned) is None
    moved = pinned.replace("0.622008467928146", "0.622008467929146", 1)  # by 1e-12
    assert cells_apart(moved, pinned).endswith("'0.622008467929146' against '0.622008467928146'")
    # the bound is relative above 1
    assert cells_apart("x\n1000000.00000001\n", "x\n1000000\n") is None
    assert cells_apart("x\n1000000.000001\n", "x\n1000000\n") == "line 2, cell 1: '1000000.000001' against '1000000'"
    relabelled = pinned.replace("EQUAL", "INCOMPARABLE", 1)
    assert cells_apart(relabelled, pinned).endswith("'INCOMPARABLE' against 'EQUAL'")
    assert cells_apart(pinned.replace("phi", "psi", 1), pinned) == "line 1, cell 1: 'psi' against 'phi'"
    assert cells_apart(pinned + "0\n", pinned) == "6 lines against 5"


# prints how many of the features named on its command line are still on
_STILL_ON = "import sys; from numpy._core._multiarray_umath import __cpu_features__ as f; print(sum(f[t] for t in sys.argv[1:]))"


@pytest.mark.parametrize("level", ["X86_V3", "X86_V2"])
def test_canonical_csv_at_lower_dispatch_level(level, capsys):
    disabled = disabled_above(level)
    if disabled is None:
        pytest.skip(f"numpy cannot be held to {level} below {dispatch_level()} here")
    env = dict(os.environ)
    # targets this process was started without stay off in the child
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join([*env.get("NPY_DISABLE_CPU_FEATURES", "").split(), *disabled])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    probe = subprocess.run([sys.executable, "-c", _STILL_ON, *disabled], capture_output=True, text=True, env=env, timeout=60)
    assert probe.stdout == "0\n", probe.stderr
    for name, argv in CANONICAL.items():
        child = subprocess.run(
            [sys.executable, "-m", "qincomp.cli", *argv, "--format", "csv"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (child.returncode, child.stderr) == (0, ""), f"{name} at {level}"
        assert main([*argv, "--format", "csv"]) == 0
        apart = cells_apart(child.stdout, capsys.readouterr().out)
        assert apart is None, f"{name} at {level} ({dispatch_level()} here): {apart}"
