"""Self-test of the benchmark's output checkers.

Runs the qincomp CLI in-process on small inputs, shows that each checker
accepts the genuine output, then feeds it deliberately corrupted copies (a
perturbed lambda, a flipped label, a dropped row, ...) and shows that each
one is rejected.  Run from the root of a source checkout:

    python3 bench/selftest.py

Exits 0 when every genuine output passes and every corruption is rejected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
from pathlib import Path

import numpy as np

import reference as ref
from workloads import random_state, write_state_file

ROOT = Path(__file__).resolve().parent.parent


def cli_stdout(main, argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"qincomp {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def edited(columns: dict, **changes) -> dict:
    """Copy of parsed sweep columns with row edits {field: (row, value)}."""
    out = copy.deepcopy(columns)
    for name, (row, value) in changes.items():
        out[name][row] = value
    return out


def dropped(columns: dict, row: int) -> dict:
    return {name: values[:row] + values[row + 1:] for name, values in columns.items()}


def first_row(columns: dict, label: str, reference: ref.SweepReference) -> int:
    return next(k for k, got in enumerate(columns["observed"]) if got == label and reference.label_clear[k])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qincomp.cli import main as qincomp_main
    from qincomp.sweep import summarize, sweep_real

    real = ref.SweepReference.build(24, None)
    real_cols = ref.parse_sweep(cli_stdout(qincomp_main, ["sweep-real", "--n", "24"]), "csv")
    torus = ref.SweepReference.build(6, 4)
    torus_text = cli_stdout(qincomp_main, ["sweep-complex", "--n-phi", "6", "--n-delta", "4", "--format", "json"])
    torus_cols = ref.parse_sweep(torus_text, "json")
    gamma = ref.GammaReference.build(3, 2, 4)
    gamma_fields = ref.parse_single_row_csv(
        cli_stdout(qincomp_main, ["sweep-gamma", "--n-theta", "3", "--n-a", "2", "--n-b", "4"])
    )
    matrix = random_state(np.random.default_rng(7), (6, 4))
    state_path = ROOT / "bench" / "work" / "selftest-state.txt"
    state_path.parent.mkdir(parents=True, exist_ok=True)
    write_state_file(state_path, matrix)
    schmidt = ref.SchmidtReference.build(matrix)
    lams, entropy = ref.parse_schmidt_csv(cli_stdout(qincomp_main, ["schmidt", str(state_path)]))
    summary = summarize(sweep_real(24))

    row = first_row(real_cols, "INCOMPARABLE", real)
    lam1, lam2 = float(real_cols["lam1"][row]), float(real_cols["lam2"][row])
    bad_summary = copy.deepcopy(summary)
    bad_summary["counts"]["incomparable"] += 1
    genuine = {
        "real sweep CSV": lambda: ref.check_sweep(real_cols, real),
        "complex sweep JSON": lambda: ref.check_sweep(torus_cols, torus),
        "sweep summary": lambda: ref.check_summary(summary, real_cols),
        "sweep-gamma row": lambda: ref.check_gamma(gamma_fields, gamma),
        "schmidt row": lambda: ref.check_schmidt(lams, entropy, schmidt),
        "known-failure exit": lambda: ref.check_known_failure(
            3, "internal contract violation: trig and Jacobi spectra disagree by 1.434e-09 at phi=..."
        ),
    }
    corrupted = {
        "perturbed lambda, sum kept": lambda: ref.check_sweep(
            edited(real_cols, lam1=(row, repr(lam1 + 1e-7)), lam2=(row, repr(lam2 - 1e-7))), real
        ),
        "lambda not summing to 1": lambda: ref.check_sweep(
            edited(real_cols, lam3=(row, repr(float(real_cols["lam3"][row]) + 1e-9))), real
        ),
        "perturbed B": lambda: ref.check_sweep(edited(torus_cols, B=(5, torus_cols["B"][5] + 1e-9)), torus),
        "flipped label": lambda: ref.check_sweep(edited(real_cols, observed=(row, "CONVERTIBLE_FORWARD")), real),
        "agree false": lambda: ref.check_sweep(edited(real_cols, agree=(row, "false")), real),
        "dropped row": lambda: ref.check_sweep(dropped(real_cols, row), real),
        "shifted phi column": lambda: ref.check_sweep(edited(real_cols, phi=(3, real_cols["phi"][4])), real),
        "wrong CSV header": lambda: ref.parse_sweep_csv("phi,A\n0,0.25\n"),
        "summary count off by one": lambda: ref.check_summary(bad_summary, real_cols),
        "gamma grid_points off by one": lambda: ref.check_gamma({**gamma_fields, "grid_points": "25"}, gamma),
        "gamma max_deviation 1e-9": lambda: ref.check_gamma({**gamma_fields, "max_deviation": "1e-09"}, gamma),
        "schmidt vector not truncated": lambda: ref.check_schmidt(np.append(lams, 0.0), entropy, schmidt),
        "schmidt entropy perturbed": lambda: ref.check_schmidt(lams, entropy + 1e-8, schmidt),
        "known failure with traceback": lambda: ref.check_known_failure(
            3, "Traceback (most recent call last):\n  ...\ntrig and Jacobi spectra disagree by 1e-9"
        ),
        "known failure exits 2": lambda: ref.check_known_failure(2, "error: bad input"),
    }
    problems = 0
    for name, check in genuine.items():
        try:
            check()
            print(f"accepted  {name}")
        except ref.CheckError as exc:
            problems += 1
            print(f"WRONGLY REJECTED  {name}: {exc}")
    for name, check in corrupted.items():
        try:
            check()
            problems += 1
            print(f"NOT REJECTED  {name}")
        except ref.CheckError as exc:
            print(f"rejected  {name}: {exc}")
    print(f"{len(genuine)} genuine outputs, {len(corrupted)} corruptions, {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
