"""End-to-end and per-layer benchmark of the qincomp CLI and its sweeps.

Usage, from the root of a source checkout:

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload all four workloads run in turn.  --trace 0 measures the
end-to-end metrics (CLI processes and warm in-process library calls);
--trace 1 wraps the package's functions and reports per-layer metrics.
Load is a serial closed loop: one operation at a time, so at most one child
process runs beside this one.  Every output is checked against the
independent reference in reference.py.  The last line of standard output
is one JSON object; full results go to bench/results/.

Times are calibrated.  The benchmark and its children are pinned to one
CPU, and every timed sample is bracketed by a fixed calibration kernel run
on that CPU.  A sample is reported scaled by NOMINAL_CALIBRATION_S over the
kernel's mean time around it, i.e. as it would read on a CPU that runs the
kernel in 10 ms.  On a shared host the speed of a CPU can swing by 1.5x
within seconds; the raw medians, also written to the results, then spread
far more between runs than the calibrated ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref
from tracer import Tracer, layer_totals
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

CLI_ENTRY = "import sys; from qincomp.cli import main; sys.exit(main())"
IMPORT_ONLY = "import qincomp.cli"
IMPORTTIME_SPAWNS = 7
CHILD_TIMEOUT_S = 60.0
# Shares of --seconds: CLI processes, then in-process calls (trace 0);
# untraced, then traced in-process calls (trace 1).
CLI_SHARE = 0.6
UNTRACED_SHARE = 0.35
CALIBRATION_LOOPS = 1500
NOMINAL_CALIBRATION_S = 0.010
# Operation times grow with the kernel's time to the power 0.56 (32x32
# Jacobi) to 0.92 (3x3 sweep points); 0.75 is the middle of that range.
CALIBRATION_EXPONENT = 0.75

# Per-layer metrics: name -> (unit, how it is derived, span name or names).
LAYER_METRICS = {
    "linalg.jacobi_us": ("us", "self_per_call", "linalg.eigenvalues_hermitian_jacobi"),
    "linalg.jacobi_calls_per_point": ("count", "calls_per_point", "linalg.eigenvalues_hermitian_jacobi"),
    "linalg.tensor_product_us": ("us", "self_per_call", "linalg.tensor_product"),
    "qubits.ipp_image_us": ("us", "self_per_call", "qubits.ipp_image"),
    "qubits.apply_antiunitary_us": ("us", "self_per_call", "qubits.apply_antiunitary"),
    "scenarios.pi_final_us": ("us", "self_per_call", "scenarios.pi_final"),
    "scenarios.chi_final_us": ("us", "self_per_call", "scenarios.chi_final"),
    "scenarios.pqr_us": ("us", "self_per_call", "scenarios.pqr"),
    "scenarios.cubic_coefficients_us": ("us", "self_per_call", "scenarios.cubic_coefficients"),
    "scenarios.spectrum_from_ab_us": ("us", "self_per_call", "scenarios.spectrum_from_ab"),
    "scenarios.spectrum_from_ab_calls_per_point": ("count", "calls_per_point", "scenarios.spectrum_from_ab"),
    "states.reduced_density_a_us": ("us", "self_per_call", "states.reduced_density_a"),
    "states.schmidt_vector_us": ("us", "self_per_call", "states.schmidt_vector"),
    "states.entropy_us": ("us", "self_per_call", "states.entropy_of_entanglement"),
    "majorization.classify_pair_us": ("us", "self_per_call", "majorization.classify_pair"),
    "majorization.majorizes_us": ("us", "self_per_call", "majorization.majorizes"),
    "cases.predict_case_us": ("us", "self_per_call", "cases.predict_case"),
    "sweep.loop_us_per_point": ("us", "self_per_point", ("sweep.sweep_real", "sweep.sweep_complex", "sweep.sweep_gamma")),
    "sweep.records_to_csv_ms": ("ms", "self_per_call", "sweep.records_to_csv"),
    "sweep.records_to_json_ms": ("ms", "self_per_call", "sweep.records_to_json"),
    "sweep.summarize_ms": ("ms", "self_per_call", "sweep.summarize"),
    "cli.parse_state_file_ms": ("ms", "self_per_call", "cli.parse_state_file"),
}
UNITS = {
    "setup_s": "s", "op_wall_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB",
    **{name: spec[0] for name, spec in LAYER_METRICS.items()},
    "cli.import_ms": "ms", "cli.numpy_import_ms": "ms", "trace.overhead_pct": "%",
}
UNIT_SCALE_NS = {"us": 1e3, "ms": 1e6}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure what it was asked to."""


def calibrate() -> float:
    """Seconds that a fixed mix of interpreter and small-numpy work takes right now."""
    a = np.full((3, 3), 0.5 + 0.5j)
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += float(np.abs(a @ a.conj().T).sum()) + math.cos(i * 1e-3)
        acc += sum(j * 0.5 for j in range(20))
    return time.perf_counter() - start


def calibrated(measure):
    """Run measure() between two calibration kernels; return its result and their mean time."""
    before = calibrate()
    result = measure()
    after = calibrate()
    return result, (before + after) / 2.0


def to_nominal(kernel_s: float) -> float:
    """Factor that scales a time measured while the kernel took kernel_s to the nominal speed."""
    return (NOMINAL_CALIBRATION_S / kernel_s) ** CALIBRATION_EXPONENT


@dataclass
class Child:
    wall: float
    exit_code: int
    stdout: str
    stderr: str
    maxrss_mb: float


def spawn(args: list[str]) -> Child:
    """Run the interpreter with args from the checkout root, timing spawn to exit.

    stdout is drained from a pipe; the child is reaped with os.wait4 so its
    peak resident set can be read.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=RESULTS_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=err, env=env, cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(wall, proc.returncode, out.decode("utf-8", "replace"), stderr, usage.ru_maxrss / 1024.0)


def spawn_import(*flags: str) -> Child:
    child = spawn([*flags, "-c", IMPORT_ONLY])
    if child.exit_code != 0:
        raise BenchmarkError(f"import qincomp.cli failed: {child.stderr[-500:]}")
    return child


def import_qincomp() -> SimpleNamespace:
    """Import the package from the checkout's src/ into this process."""
    sys.path.insert(0, str(SRC))
    import qincomp
    from qincomp import cases, cli, linalg, majorization, qubits, scenarios, states, sweep

    if Path(qincomp.__file__).resolve().parent != SRC / "qincomp":
        raise BenchmarkError(f"qincomp imported from {qincomp.__file__}, not from {SRC}")
    modules = [qincomp, linalg, states, majorization, qubits, scenarios, cases, sweep, cli]
    return SimpleNamespace(sweep=sweep, states=states, cli=cli, modules=modules)


def check_child_imports() -> None:
    """Warm the bytecode cache and confirm children import qincomp from src/."""
    child = spawn(["-c", "import qincomp.cli; print(qincomp.__file__)"])
    if child.exit_code != 0 or Path(child.stdout.strip()).resolve().parent != SRC / "qincomp":
        raise BenchmarkError(f"child imports qincomp from {child.stdout.strip()!r}: {child.stderr[-500:]}")


def import_times_ms(stderr: str) -> tuple[float, float]:
    """(qincomp, numpy) cumulative import time in ms from `python -X importtime`.

    The qincomp figure sums the top-level qincomp entries (the package and
    qincomp.cli), which include numpy.
    """
    package = numpy_ms = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        top_level = not name[1:].startswith(" ")
        name = name.strip()
        if top_level and (name == "qincomp" or name.startswith("qincomp.")):
            package += int(cumulative) / 1e3
        if name == "numpy":
            numpy_ms = int(cumulative) / 1e3
    if package == 0.0 or numpy_ms == 0.0:
        raise BenchmarkError("no qincomp or numpy entry in -X importtime output")
    return package, numpy_ms


@dataclass
class Tally:
    """Operations attempted and failed, and checking errors."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def error(self, op: Op, message: object) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{op.label}: {message}")

    def settle(self, op: Op, exit_code: int, stderr: str, check) -> bool:
        """Classify one finished operation; True when it succeeded with correct output.

        The known-failing grid counts as failed only when it stops the way
        the fault makes it stop; any other outcome is a benchmark error.
        """
        if exit_code != 0:
            if op.known_failure:
                try:
                    ref.check_known_failure(exit_code, stderr)
                    self.failed += 1
                except ref.CheckError as exc:
                    self.error(op, exc)
            else:
                self.failed += 1
                self.error(op, f"exit {exit_code}: {stderr.strip()[-300:]}")
            return False
        try:
            check()
        except ref.CheckError as exc:
            self.error(op, exc)
            return False
        return True


def run_rounds(ops: list[Op], budget_s: float, step) -> None:
    """Closed loop of whole rounds: at least one, then more until budget_s is spent."""
    deadline = time.perf_counter() + budget_s
    while True:
        for op in ops:
            step(op)
        if time.perf_counter() >= deadline:
            return


def median(samples: list[float], what: str) -> float:
    if not samples:
        raise BenchmarkError(f"no successful operation to measure {what}")
    return statistics.median(samples)


class InProcess:
    """Serial in-process calls of each operation's library function.

    Keeps, per timed call, the raw seconds, the calibration kernel's
    seconds and the number of points.
    """

    def __init__(self, q: SimpleNamespace, tally: Tally, tracer: Tracer | None = None) -> None:
        self.q = q
        self.tally = tally
        self.tracer = tracer
        self.samples: list[tuple[float, float, int]] = []
        self.factors: dict[int, float] = {}

    def step(self, op: Op, timed: bool = True) -> None:
        self.tally.attempted += 1
        mark = self.tracer.mark() if self.tracer else 0
        if self.tracer:
            self.tracer.op += 1

        def call():
            start = time.perf_counter()
            result = op.run(self.q)
            return result, time.perf_counter() - start

        try:
            (result, elapsed), kernel = calibrated(call)
        except self.q.sweep.ContractViolationError as exc:
            if self.tracer:
                self.tracer.discard_from(mark)
            self.tally.settle(op, 3, f"internal contract violation: {exc}", None)
            return
        except Exception:  # any other escape is a program fault: record it and go on
            if self.tracer:
                self.tracer.discard_from(mark)
            self.tally.failed += 1
            self.tally.error(op, traceback.format_exc(limit=3))
            return
        if self.tracer:
            self.factors[self.tracer.op] = to_nominal(kernel)
        if self.tally.settle(op, 0, "", lambda: op.render(self.q, result)) and timed and not op.known_failure:
            self.samples.append((elapsed, kernel, op.points))

    def warm_up(self, ops: list[Op]) -> None:
        """One untimed round, so caches fill and lazy set-up finishes first."""
        for op in ops:
            self.step(op, timed=False)

    def seconds(self) -> float:
        """Median calibrated seconds per call."""
        return median([elapsed * to_nominal(kernel) for elapsed, kernel, _ in self.samples], "the call time")

    def points(self) -> int:
        return sum(points for _, _, points in self.samples)


def end_to_end(ops: list[Op], q: SimpleNamespace, seconds: float, tally: Tally) -> tuple[dict, dict]:
    check_child_imports()
    setup, walls, rss = [], [], []

    def cli_step(op: Op) -> None:
        # One bare import per operation spreads the setup samples over the run.
        child, kernel = calibrated(spawn_import)
        setup.append((child.wall, kernel))
        tally.attempted += 1
        child, kernel = calibrated(lambda: spawn(["-c", CLI_ENTRY, *op.argv]))
        if tally.settle(op, child.exit_code, child.stderr, lambda: op.check_stdout(child.stdout)):
            if not op.known_failure:
                walls.append((child.wall, kernel))
                rss.append(child.maxrss_mb)

    started = time.perf_counter()
    run_rounds(ops, CLI_SHARE * seconds, cli_step)
    calls = InProcess(q, tally)
    calls.warm_up(ops)
    run_rounds(ops, seconds - (time.perf_counter() - started), calls.step)

    rates = [points / (elapsed * to_nominal(kernel)) for elapsed, kernel, points in calls.samples]
    metrics = {
        "setup_s": median([raw * to_nominal(kernel) for raw, kernel in setup], "setup_s"),
        "op_wall_s": median([raw * to_nominal(kernel) for raw, kernel in walls], "op_wall_s"),
        "points_per_s": median(rates, "points_per_s"),
        "peak_rss_mb": max(rss),
    }
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setup),
        "op_wall_s": statistics.median(raw for raw, _ in walls),
        "points_per_s": statistics.median(p / e for e, _, p in calls.samples),
        "calibration_kernel_ms": 1e3 * statistics.median(k for _, k in setup + walls),
    }
    samples = {"setup_s": len(setup), "op_wall_s": len(walls), "points_per_s": len(rates), "peak_rss_mb": len(rss)}
    per_sample = {"setup": setup, "op_wall": walls, "calls": calls.samples}
    return metrics, {"samples": samples, "raw": raw, "per_sample": per_sample}


def per_layer(ops: list[Op], q: SimpleNamespace, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    imports = []
    for _ in range(IMPORTTIME_SPAWNS):
        child, kernel = calibrated(lambda: spawn_import("-X", "importtime"))
        package, numpy_ms = import_times_ms(child.stderr)
        imports.append((package * to_nominal(kernel), numpy_ms * to_nominal(kernel)))

    started = time.perf_counter()
    untraced = InProcess(q, tally)
    untraced.warm_up(ops)
    run_rounds(ops, UNTRACED_SHARE * seconds, untraced.step)

    tracer = Tracer(q.modules)
    traced = InProcess(q, tally, tracer)
    tracer.install()
    try:
        run_rounds(ops, seconds - (time.perf_counter() - started), traced.step)
    finally:
        tracer.uninstall()
    overhead_pct = 100.0 * (traced.seconds() / untraced.seconds() - 1.0)
    spans = tracer.arrays()
    scale = np.ones(tracer.op + 1)
    for op_id, factor in traced.factors.items():
        scale[op_id] = factor
    tracer.write(spans_path, op_calibration=scale)
    totals = layer_totals(tracer.names, spans, scale[spans["op"]])
    points = traced.points()
    metrics = {}
    for name, (unit, kind, span) in LAYER_METRICS.items():
        if kind == "self_per_point":
            metrics[name] = sum(totals.get(s, (0, 0.0))[1] for s in span) / points / UNIT_SCALE_NS[unit]
            continue
        calls, self_ns = totals.get(span, (0, 0.0))
        if kind == "calls_per_point":
            metrics[name] = calls / points
        else:
            metrics[name] = self_ns / calls / UNIT_SCALE_NS[unit] if calls else 0.0
    metrics["cli.import_ms"] = statistics.median(i[0] for i in imports)
    metrics["cli.numpy_import_ms"] = statistics.median(i[1] for i in imports)
    metrics["trace.overhead_pct"] = overhead_pct
    samples = {
        "importtime_spawns": len(imports),
        "untraced_calls": len(untraced.samples),
        "traced_calls": len(traced.samples),
        "traced_points": points,
        "spans": tracer.mark(),
    }
    return metrics, {"samples": samples, "spans_file": str(spans_path.relative_to(ROOT))}


def declared_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json asks for in this mode, with units checked."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in declared:
        if UNITS.get(metric["name"]) != metric["unit"]:
            raise BenchmarkError(f"BENCHMARK.json metric {metric['name']} has no match here")
    return [metric["name"] for metric in declared]


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_workload(name: str, q: SimpleNamespace, seed: int, seconds: float, trace: int) -> dict:
    ops = WORKLOADS[name](seed, WORK_DIR)
    tally = Tally()
    try:
        if trace:
            metrics, details = per_layer(ops, q, seconds, tally, RESULTS_DIR / f"spans-{name}-seed{seed}.npz")
        else:
            metrics, details = end_to_end(ops, q, seconds, tally)
    except BenchmarkError as exc:
        raise BenchmarkError("; ".join([f"{name}: {exc}", *tally.errors])) from exc
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "operations": [op.label for op in ops],
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()},
        **details,
    }
    path = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    verdict = "outputs correct" if result["correct"] else "OUTPUTS WRONG"
    print(f"== {name} (seed {seed}, {seconds:g} s, trace {trace}): "
          f"{tally.attempted} operations attempted, {tally.failed} failed; {verdict}")
    for error in tally.errors:
        print(f"  error: {error}")
    for metric, value in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {UNITS[metric]}")
    for key in ("samples", "raw", "spans_file"):
        if key in details:
            print(f"  {key}: {json.dumps(details[key])}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qincomp" / "cli.py").is_file():
        print(f"error: no qincomp source at {SRC / 'qincomp'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        declared = declared_metrics(args.trace)
        RESULTS_DIR.mkdir(exist_ok=True)
        WORK_DIR.mkdir(exist_ok=True)
        # Children inherit this CPU, so the calibration kernel and the timed
        # work always share one CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        q = import_qincomp()
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = [run_workload(name, q, args.seed, args.seconds, args.trace) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for result in results:
        prefix = "" if args.workload else result["workload"] + "."
        metrics.update({prefix + m: result["metrics"][m] for m in declared})
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
