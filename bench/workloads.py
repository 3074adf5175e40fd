"""The four benchmark workloads: their operations, inputs and checks.

A workload is a fixed round of operations of equal size, built from the seed.  Each operation
can run as a `qincomp` CLI process (argv) or in-process (run, then render):
`run` is the library call that the CLI makes and is what points_per_s
times; `render` produces the same output the CLI would print, untimed, so
that one checker serves both paths.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import reference as ref

REAL_N = 1200
# Every complex grid has 720 points.  n_phi not divisible by 4 keeps phi = pi/2
# off the grid; 40 x 18 puts phi = pi/2 and delta = pi/3 on it.
COMPLEX_GRIDS = ((30, 24), (18, 40), (45, 16))
FAILING_GRID = (40, 18)
GAMMA_SIZES = (8, 10, 12)
SCHMIDT_DIMS = (32, 24)
SCHMIDT_FILES = 4


@dataclass
class Op:
    label: str
    argv: list[str]
    points: int
    run: Callable[[SimpleNamespace], Any]
    render: Callable[[SimpleNamespace, Any], None]
    check_stdout: Callable[[str], None]
    # The known-failing grid: expected to stop with exit 3, never timed.
    known_failure: bool = False


def _sweep_op(label, argv, points, fmt, call, reference: Callable[[], ref.SweepReference], known_failure=False):
    def check_stdout(text: str) -> None:
        ref.check_sweep(ref.parse_sweep(text, fmt), reference())

    def render(q: SimpleNamespace, records) -> None:
        text = q.sweep.records_to_json(records) if fmt == "json" else q.sweep.records_to_csv(records)
        columns = ref.parse_sweep(text, fmt)
        ref.check_sweep(columns, reference())
        ref.check_summary(q.sweep.summarize(records), columns)

    return Op(label, argv, points, call, render, check_stdout, known_failure)


def real_circle(seed: int, workdir: Path) -> list[Op]:
    # The grid is fixed: another N would change the per-point counts, so the
    # seed has nothing to vary here.
    reference = functools.cache(lambda: ref.SweepReference.build(REAL_N, None))
    op = _sweep_op(
        f"sweep-real --n {REAL_N}",
        ["sweep-real", "--n", str(REAL_N)],
        REAL_N,
        "csv",
        lambda q: q.sweep.sweep_real(REAL_N),
        reference,
    )
    return [op]


def complex_torus(seed: int, workdir: Path) -> list[Op]:
    grids = [(g, False) for g in COMPLEX_GRIDS] + [(FAILING_GRID, True)]
    random.Random(seed).shuffle(grids)
    ops = []
    for (n_phi, n_delta), failing in grids:
        reference = functools.cache(lambda n_phi=n_phi, n_delta=n_delta: ref.SweepReference.build(n_phi, n_delta))
        ops.append(
            _sweep_op(
                f"sweep-complex --n-phi {n_phi} --n-delta {n_delta}",
                ["sweep-complex", "--n-phi", str(n_phi), "--n-delta", str(n_delta), "--format", "json"],
                n_phi * n_delta,
                "json",
                lambda q, n_phi=n_phi, n_delta=n_delta: q.sweep.sweep_complex(n_phi, n_delta),
                reference,
                known_failure=failing,
            )
        )
    return ops


def conjugation_grid(seed: int, workdir: Path) -> list[Op]:
    sizes = list(GAMMA_SIZES)
    random.Random(seed).shuffle(sizes)
    n_theta, n_a, n_b = sizes
    reference = functools.cache(lambda: ref.GammaReference.build(n_theta, n_a, n_b))

    def render(q: SimpleNamespace, summary) -> None:
        fields = {name: getattr(summary, name) for name in ref.GAMMA_FIELDS}
        ref.check_gamma(fields, reference())

    op = Op(
        f"sweep-gamma --n-theta {n_theta} --n-a {n_a} --n-b {n_b}",
        ["sweep-gamma", "--n-theta", str(n_theta), "--n-a", str(n_a), "--n-b", str(n_b)],
        n_theta * n_a * n_b,
        lambda q: q.sweep.sweep_gamma(n_theta, n_a, n_b),
        render,
        lambda text: ref.check_gamma(ref.parse_single_row_csv(text), reference()),
    )
    return [op]


def random_state(rng: np.random.Generator, dims: tuple[int, int]) -> np.ndarray:
    matrix = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return matrix / np.linalg.norm(matrix)


def write_state_file(path: Path, matrix: np.ndarray) -> None:
    """State file (dimA dimB, then row-major 're im' lines) that round-trips exactly."""
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in matrix.ravel())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def schmidt_files(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    directory = workdir / f"schmidt-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for index in range(SCHMIDT_FILES):
        matrix = random_state(rng, SCHMIDT_DIMS)
        path = directory / f"state-{index}.txt"
        write_state_file(path, matrix)
        reference = ref.SchmidtReference.build(matrix)

        def run(q: SimpleNamespace, path=str(path)):
            vec = q.states.schmidt_vector(q.cli.parse_state_file(path))
            return vec, q.states.entropy_of_entanglement(vec)

        ops.append(
            Op(
                f"schmidt {path.name}",
                ["schmidt", str(path)],
                1,
                run,
                lambda q, result, reference=reference: ref.check_schmidt(result[0], result[1], reference),
                lambda text, reference=reference: ref.check_schmidt(*ref.parse_schmidt_csv(text), reference),
            )
        )
    return ops


WORKLOADS = {
    "real-circle": real_circle,
    "complex-torus": complex_torus,
    "conjugation-grid": conjugation_grid,
    "schmidt-files": schmidt_files,
}
