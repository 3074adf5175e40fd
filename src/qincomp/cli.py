"""Command-line interface: demos, pair checks, and classification sweeps.

Every check of an outside input is made here, once, where the input is
read, but for grid sizes: sweep_real, sweep_complex and sweep_gamma refuse
a grid below their least (ValueError), and numpy refuses, inside sweep, a
grid too large to index; both exit 2.  The kernels behind the commands check
none of it.  Rows are written by sweep's _text, every JSON payload by _json.

Exit codes: 0 success, 1 a failed write to stdout (a closed pipe ends
quietly), 2 malformed input, an unreadable state file or a request too
large for memory, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .cases import (
    _CASE_IDS,
    _SUBCASES,
    ContractViolationError,
    Prediction,
    _certify,
    _certify_gamma,
    predict_case,
)
from .linalg import JacobiConvergenceError
from .majorization import classify_pair
from .scenarios import SPECTRUM_SUM_TOL
from .states import entropy_of_entanglement, schmidt_vector
from .sweep import _json, _text, summarize, sweep_complex, sweep_gamma, sweep_real

NORM_TOL = 1e-12

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT = rf"[+-]?{_UNSIGNED}"
# re, re+im i or re-im i (the imaginary part carries its own sign), or im i
_COMPLEX_RE = re.compile(rf"^(?:({_FLOAT})(?:([+-]{_UNSIGNED})i)?|({_FLOAT})i)$")


def parse_complex(text: str) -> complex:
    """Parse the re[+im i] or im i literal form, e.g. 0.5+0.5i, -1 or -0.8i."""
    match = _COMPLEX_RE.match(text.strip().replace(" ", ""))
    if match is None:
        raise ValueError(f"malformed complex literal: {text!r} (expected re[+im i] or im i)")
    real, imag, pure_imag = match.groups()
    if pure_imag is not None:
        return complex(0.0, float(pure_imag))
    return complex(float(real), float(imag) if imag is not None else 0.0)


def _check_unit_norm(amplitudes: np.ndarray, message: str) -> None:
    """ValueError(message) unless the squared moduli of amplitudes, summed
    over the first axis, are 1 within NORM_TOL; a NaN sum fails too."""
    # a huge amplitude squares to inf, which fails the check below
    with np.errstate(over="ignore"):
        norms = np.sum(np.abs(amplitudes) ** 2, axis=0)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise ValueError(message)


def _canonical_angles(name: str, values: object) -> np.ndarray:
    """Angles reduced to [0, 2pi); ValueError naming the angle if any is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values % (2.0 * math.pi)


def _unit_amplitudes(alpha: object, beta: object) -> tuple[np.ndarray, np.ndarray]:
    """Complex arrays alpha, beta, checked finite with |alpha|^2 + |beta|^2 = 1 entrywise."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        raise ValueError("amplitudes must be finite")
    _check_unit_norm(np.stack([alpha, beta]), "amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    return alpha, beta


def parse_state_file(path: str) -> np.ndarray:
    """Read a state file: first line 'dimA dimB', then dimA*dimB lines 're im',
    as the (dimA, dimB) amplitude matrix; ValueError if the file is malformed
    or its norm is off 1 by more than NORM_TOL."""
    with open(path, encoding="utf-8-sig") as handle:
        lines = [line for line in handle if not line.isspace()]
    if not lines:
        raise ValueError("state file is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("state file must start with 'dimA dimB'")
    try:
        dim_a, dim_b = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError("state file dimensions must be integers") from exc
    if dim_a < 1 or dim_b < 1:
        raise ValueError("subsystem dimensions must be positive")
    body = lines[1:]
    if len(body) != dim_a * dim_b:
        raise ValueError(
            f"state file needs {dim_a * dim_b} amplitude lines, found {len(body)}"
        )
    values = []
    for number, fields in enumerate(map(str.split, body), start=2):
        if len(fields) != 2:
            raise ValueError(f"amplitude line {number} must be 're im'")
        try:
            values += (float(fields[0]), float(fields[1]))
        except ValueError as exc:
            raise ValueError(f"amplitude line {number} is not numeric") from exc
    amps = np.array(values).view(complex)
    _check_unit_norm(amps, "state amplitudes must have unit norm")
    return amps.reshape(dim_a, dim_b)


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
    if abs(total - 1.0) > SPECTRUM_SUM_TOL:
        raise ValueError("Schmidt coefficients must sum to 1")
    return values


def _emit(fmt: str, row: dict[str, object], payload: object = None) -> None:
    """Print row as a header line and a value line, through the sweep's cell
    formatter (each value a column of length 1), or in JSON, through _json,
    payload if given, or else the object of row's one-element values.
    """
    if fmt == "json":
        if payload is None:
            payload = {name: np.atleast_1d(value)[0] for name, value in row.items()}
        print(_json(payload))
    else:
        columns = {name: np.atleast_1d(value) for name, value in row.items()}
        sys.stdout.writelines(_text(columns, fmt))


def _cmd_schmidt(args: argparse.Namespace) -> None:
    vec = schmidt_vector(parse_state_file(args.state_file))
    entropy = entropy_of_entanglement(vec)
    row = {f"lam{i + 1}": v for i, v in enumerate(vec)}
    row["entropy"] = entropy
    _emit(args.format, row, {"schmidt": vec, "entropy": entropy})


def _cmd_check_pair(args: argparse.Namespace) -> None:
    src = parse_schmidt_arg(args.vec_a)
    dst = parse_schmidt_arg(args.vec_b)
    verdict = classify_pair(src, dst)
    if args.format == "json":
        print(_json(verdict._asdict()))
    else:
        print(verdict.label.value)


def _cmd_gamma_demo(args: argparse.Namespace) -> None:
    # one-point angle arrays, so the final state is sweep-gamma's at these angles, bit for bit
    row = {name: _canonical_angles(name, [getattr(args, name)]) for name in ("theta", "phi_a", "phi_b")}
    initial, final = vecs = _certify_gamma(**row)[0]
    row.update((f"lam_i{i + 1}", v) for i, v in enumerate(initial))
    row.update((f"lam_f{i + 1}", v) for i, v in enumerate(final))
    row["entropy_i"], row["entropy_f"] = entropy_of_entanglement(vecs)
    row["observed"] = classify_pair(initial, final).label
    _emit(args.format, row)


def _amplitude_args(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    """--alpha and --beta as one-point arrays, checked by _unit_amplitudes."""
    return _unit_amplitudes([parse_complex(args.alpha)], [parse_complex(args.beta)])


def _cmd_ipp_demo(args: argparse.Namespace) -> None:
    _emit(args.format, _certify(*_amplitude_args(args)))


def _cmd_case_analyze(args: argparse.Namespace) -> None:
    grid = _certify(*_amplitude_args(args))
    case, subcase, _ = predict_case(grid["A"], grid["B"])
    predicted = grid["predicted"][0]
    conditional = predicted is Prediction.CONDITIONAL
    row = {
        "A": grid["A"],
        "B": grid["B"],
        "case": _CASE_IDS[case[0]],
        "subcase": _SUBCASES[subcase[0]],
        "predicted": predicted,
        # the largest cubic root x = 1 - 3 lam3, on which a CONDITIONAL prediction hinges
        "condition_value": 1.0 - 3.0 * grid["lam3"] if conditional else None,
    }
    _emit(args.format, row)


def _print_result(args: argparse.Namespace, result) -> None:
    if args.summary:
        summary = summarize(result)
        row = {"total": summary["total"]}
        row.update((f"count_{k}", v) for k, v in summary["counts"].items())
        row.update((f"frac_{k}", v) for k, v in summary["fractions"].items())
        _emit(args.format, row, summary)
    else:
        # every block is certified before the first is formatted, so a sweep
        # that exits 3 has written nothing
        sys.stdout.writelines(_text(result, args.format))


def _cmd_sweep_real(args: argparse.Namespace) -> None:
    _print_result(args, sweep_real(args.n))


def _cmd_sweep_complex(args: argparse.Namespace) -> None:
    _print_result(args, sweep_complex(args.n_phi, args.n_delta))


def _cmd_sweep_gamma(args: argparse.Namespace) -> None:
    summary = sweep_gamma(args.n_theta, args.n_a, args.n_b)
    _emit(args.format, summary._asdict())


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
        args.func(args)
        sys.stdout.flush()  # so that a buffered write fails here
        return 0
    except (ValueError, OSError) as exc:
        # an OSError naming no file is a failed write to stdout, which Python
        # flushes again at exit: point stdout at devnull so that one is quiet
        stdout_failed = isinstance(exc, OSError) and exc.filename is None
        if stdout_failed:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 1 if stdout_failed else 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except (ContractViolationError, JacobiConvergenceError) as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
