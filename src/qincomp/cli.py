"""Command-line interface: demos, pair checks, and classification sweeps.

Exit codes: 0 success, 2 malformed input, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .cases import predict_case
from .linalg import JacobiConvergenceError
from .majorization import classify_pair
from .qubits import IppParams, UnitaryParams
from .scenarios import build_chi_initial, chi_final, cubic_coefficients, pqr
from .states import BipartiteState, entropy_of_entanglement, schmidt_vector
from .sweep import (
    ContractViolationError,
    _certified,
    _csv_blocks,
    _json_cells,
    _json_rows,
    records_to_csv,
    records_to_json,
    summarize,
    sweep_complex,
    sweep_gamma,
    sweep_real,
)

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT = rf"[+-]?{_UNSIGNED}"
# re, re+im i or re-im i (the imaginary part carries its own sign), or im i
_COMPLEX_RE = re.compile(rf"^(?:({_FLOAT})(?:([+-]{_UNSIGNED})i)?|({_FLOAT})i)$")

SCHMIDT_ARG_SUM_TOL = 1e-10


def parse_complex(text: str) -> complex:
    """Parse the re[+im i] or im i literal form, e.g. 0.5+0.5i, -1 or -0.8i."""
    match = _COMPLEX_RE.match(text.strip().replace(" ", ""))
    if match is None:
        raise ValueError(f"malformed complex literal: {text!r} (expected re[+im i] or im i)")
    real, imag, pure_imag = match.groups()
    if pure_imag is not None:
        return complex(0.0, float(pure_imag))
    return complex(float(real), float(imag) if imag is not None else 0.0)


def parse_state_file(path: str) -> BipartiteState:
    """Read a state file: first line 'dimA dimB', then dimA*dimB lines 're im'."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError("state file is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("state file must start with 'dimA dimB'")
    try:
        dim_a, dim_b = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError("state file dimensions must be integers") from exc
    body = lines[1:]
    if len(body) != dim_a * dim_b:
        raise ValueError(
            f"state file needs {dim_a * dim_b} amplitude lines, found {len(body)}"
        )
    amps = np.empty(dim_a * dim_b, dtype=complex)
    for index, line in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"amplitude line {index + 2} must be 're im'")
        try:
            amps[index] = complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"amplitude line {index + 2} is not numeric") from exc
    return BipartiteState(dim_a, dim_b, amps)


def parse_schmidt_arg(text: str) -> np.ndarray:
    """Parse a comma-separated Schmidt vector and validate it."""
    try:
        values = np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed Schmidt vector: {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError("Schmidt coefficients must be finite")
    if np.any(values < 0.0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    # finite values can still sum past the largest float; inf fails below
    with np.errstate(over="ignore"):
        total = float(values.sum())
    if abs(total - 1.0) > SCHMIDT_ARG_SUM_TOL:
        raise ValueError("Schmidt coefficients must sum to 1")
    return values


def _emit(fmt: str, row: dict[str, object], payload: object = None) -> None:
    """Print row as a header line and a value line, or as one JSON object,
    through the sweep formatters: each value is a column of length 1.

    payload, when given, is printed as the JSON output instead of row.
    """
    columns = {name: np.atleast_1d(value) for name, value in row.items()}
    if fmt == "json":
        print(json.dumps(_json_rows(columns)[0] if payload is None else payload, indent=2))
    else:
        sys.stdout.write(records_to_csv(columns))


def _cmd_schmidt(args: argparse.Namespace) -> int:
    vec = schmidt_vector(parse_state_file(args.state_file))
    entropy = entropy_of_entanglement(vec)
    row = {f"lam{i + 1}": v for i, v in enumerate(vec)}
    row["entropy"] = entropy
    _emit(
        args.format,
        row,
        {"schmidt": _json_cells(vec), "entropy": _json_cells(np.atleast_1d(entropy))[0]},
    )
    return 0


def _cmd_check_pair(args: argparse.Namespace) -> int:
    src = parse_schmidt_arg(args.vec_a)
    dst = parse_schmidt_arg(args.vec_b)
    verdict = classify_pair(src, dst)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "label": verdict.label.value,
                    "partial_sums_src": _json_cells(verdict.partial_sums_src),
                    "partial_sums_dst": _json_cells(verdict.partial_sums_dst),
                },
                indent=2,
            )
        )
    else:
        print(verdict.label.value)
    return 0


def _cmd_gamma_demo(args: argparse.Namespace) -> int:
    params = UnitaryParams(args.theta, args.phi_a, args.phi_b)
    initial = schmidt_vector(build_chi_initial())
    final = schmidt_vector(chi_final(params))
    row = {"theta": params.theta, "phi_a": params.phi_a, "phi_b": params.phi_b}
    row.update((f"lam_i{i + 1}", v) for i, v in enumerate(initial))
    row.update((f"lam_f{i + 1}", v) for i, v in enumerate(final))
    row["entropy_i"] = entropy_of_entanglement(initial)
    row["entropy_f"] = entropy_of_entanglement(final)
    row["observed"] = classify_pair(initial, final).label
    _emit(args.format, row)
    return 0


def _ipp_from_args(args: argparse.Namespace) -> IppParams:
    return IppParams(parse_complex(args.alpha), parse_complex(args.beta))


def _cmd_ipp_demo(args: argparse.Namespace) -> int:
    p = _ipp_from_args(args)
    _emit(args.format, _certified(np.array([p.alpha]), np.array([p.beta])))
    return 0


def _cmd_case_analyze(args: argparse.Namespace) -> int:
    big_a, big_b = cubic_coefficients(pqr(_ipp_from_args(args)))
    verdict = predict_case(big_a, big_b)
    row = {
        "A": big_a,
        "B": big_b,
        "case": verdict.case_id,
        "subcase": verdict.subcase,
        "predicted": verdict.predicted,
        "condition_value": verdict.condition_value,
    }
    _emit(args.format, row)
    return 0


def _print_result(args: argparse.Namespace, result) -> None:
    if args.summary:
        summary = summarize(result)
        row = {"total": summary["total"]}
        row.update((f"count_{k}", v) for k, v in summary["counts"].items())
        row.update((f"frac_{k}", v) for k, v in summary["fractions"].items())
        _emit(args.format, row, summary)
    elif args.format == "json":
        print(records_to_json(result))
    else:
        # every block is certified before the first is formatted, so a sweep
        # that exits 3 has written nothing
        sys.stdout.writelines(_csv_blocks(result))


def _cmd_sweep_real(args: argparse.Namespace) -> int:
    _print_result(args, sweep_real(args.n))
    return 0


def _cmd_sweep_complex(args: argparse.Namespace) -> int:
    _print_result(args, sweep_complex(args.n_phi, args.n_delta))
    return 0


def _cmd_sweep_gamma(args: argparse.Namespace) -> int:
    summary = sweep_gamma(args.n_theta, args.n_a, args.n_b)
    _emit(args.format, vars(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qincomp",
        description="Detect nonphysical qubit operations via LOCC-incomparable states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        # argparse reads "-..." as a value, not an option, when this matches
        # it; its own pattern has no exponent (-1e-3) or imaginary part.  The
        # attribute is private: an argparse that ignores it falls back to its
        # own pattern, and "--beta=-1e-3" works either way.
        p._negative_number_matcher = _COMPLEX_RE
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = command("schmidt", "Schmidt vector and entropy of a state file", _cmd_schmidt)
    p.add_argument("state_file")

    p = command("check-pair", "Nielsen verdict for two Schmidt vectors", _cmd_check_pair)
    p.add_argument("vec_a")
    p.add_argument("vec_b")

    p = command("gamma-demo", "anti-unitary scenario at chosen angles", _cmd_gamma_demo)
    p.add_argument("--theta", type=float, default=math.pi / 2.0)
    p.add_argument("--phi-a", type=float, default=0.0)
    p.add_argument("--phi-b", type=float, default=0.0)

    p = command("ipp-demo", "superposition-map scenario at chosen amplitudes", _cmd_ipp_demo)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = command("sweep-real", "classify real parameters on a circle grid", _cmd_sweep_real)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--summary", action="store_true")

    p = command("sweep-complex", "classify a (phi, delta) parameter grid", _cmd_sweep_complex)
    p.add_argument("--n-phi", type=int, required=True)
    p.add_argument("--n-delta", type=int, required=True)
    p.add_argument("--summary", action="store_true")

    p = command("sweep-gamma", "angle-grid check of the parameter-free spectrum", _cmd_sweep_gamma)
    p.add_argument("--n-theta", type=int, required=True)
    p.add_argument("--n-a", type=int, required=True)
    p.add_argument("--n-b", type=int, required=True)

    p = command("case-analyze", "predicted case for chosen amplitudes", _cmd_case_analyze)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolationError, JacobiConvergenceError) as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
