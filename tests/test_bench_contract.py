"""The benchmark's in-process contract, checked from the test suite.

bench/run.py calls each operation's library function (op.run) and then
renders and checks its output (op.render) with references that do not
import qincomp.  These tests run every workload's operations that way once,
and run bench/selftest.py, so a change to the sweep API that the benchmark
cannot follow fails here instead of only in a benchmark run.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/workloads.py and the package namespace that bench/run.py passes
    to each operation."""
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
        yield importlib.import_module("workloads"), run.import_qincomp()
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["real-circle", "complex-torus", "conjugation-grid", "schmidt-files"])
def test_workload_ops_render_and_check(bench, name, tmp_path):
    # every operation certifies and checks, the 40 x 18 grid that the
    # workloads still flag as a known failure included
    workloads, q = bench
    for op in workloads.WORKLOADS[name](0, tmp_path):
        op.render(q, op.run(q))


def test_selftest_reports_no_problems():
    child = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert "0 problems" in child.stdout
