"""The benchmark's in-process contract, checked from the test suite.

bench/run.py calls each operation's library function (op.run) and then
renders and checks its output (op.render) with references that do not
import qincomp.  These tests run every workload's operations that way once,
and run bench/selftest.py, so a change to the sweep API that the benchmark
cannot follow fails here instead of only in a benchmark run.  Another
runs the sweep workloads under bench/tracer.py and checks that they call
the certified kernel's stages under the per-layer metrics' span names.
"""

import importlib
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/workloads.py, the package namespace that bench/run.py passes to
    each operation, bench/run.py itself and bench/tracer.py."""
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
        yield SimpleNamespace(
            workloads=importlib.import_module("workloads"),
            q=run.import_qincomp(),
            run=run,
            tracer=importlib.import_module("tracer"),
        )
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["real-circle", "complex-torus", "conjugation-grid", "schmidt-files"])
def test_workload_ops_render_and_check(bench, name, tmp_path):
    # every operation certifies and checks, the 40 x 18 grid that the
    # workloads still flag as a known failure included
    q = bench.q
    for op in bench.workloads.WORKLOADS[name](0, tmp_path):
        op.render(q, op.run(q))


def test_sweep_workloads_reach_every_kernel_layer(bench, tmp_path):
    # the certified kernel calls its stages by their public names, so the
    # tracer sees each under the span that a per-layer metric reads
    q = bench.q
    tracer = bench.tracer.Tracer(q.modules)
    tracer.install()
    try:
        for name in ("real-circle", "complex-torus"):
            for op in bench.workloads.WORKLOADS[name](0, tmp_path):
                op.run(q)
    finally:
        tracer.uninstall()
    called = {tracer.names[i] for i in set(tracer.arrays()["name"].tolist())}
    spans = set()
    for _unit, _kind, span in bench.run.LAYER_METRICS.values():
        spans.update((span,) if isinstance(span, str) else span)
    stages = {"scenarios.spectrum_from_ab", "cases.predict_case", "majorization.majorizes"}
    assert stages <= spans
    assert stages <= called


def test_selftest_reports_no_problems():
    child = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert "0 problems" in child.stdout
