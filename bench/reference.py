"""Independent references and output checkers for the benchmark workloads.

Nothing here imports qincomp.  Every expected value is rebuilt from the
definitions of the probe states and checked with LAPACK (numpy.linalg.svd
and numpy.linalg.det), so the checks do not depend on either of the
package's own eigen-routes or on a stored copy of earlier output.

Each checker raises CheckError with a message naming the first mismatch.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

# Emitted spectra are certified by the package to within 1e-10 of its Jacobi
# route (SOLVER_AGREE_TOL); allow that plus rounding of the 15-digit output.
LAM_TOL = 2e-10
# A, B, sums and angles are O(1) values printed with 15 significant digits.
VALUE_TOL = 1e-12
ENTROPY_TOL = 1e-10
# Nielsen's partial-sum tolerance used by the package (MAJORIZATION_TOL).
MAJORIZATION_TOL = 1e-10
# A reference label is compared only where every partial-sum difference is
# this far from the +-MAJORIZATION_TOL decision edges.
LABEL_MARGIN = 1e-11
ENTROPY_CLAMP = 1e-13
GAMMA_DEVIATION_TOL = 1e-10
FAILURE_MESSAGE = "trig and Jacobi spectra disagree by"

SWEEP_HEADER = "phi,delta,A,B,lam1,lam2,lam3,entropy_i,entropy_f,observed,predicted,agree"
SWEEP_FIELDS = SWEEP_HEADER.split(",")
GAMMA_FIELDS = ["n_theta", "n_a", "n_b", "grid_points", "max_deviation"]
PREDICTIONS = {
    "INCOMPARABLE",
    "ENTANGLEMENT_INCREASE",
    "INCOMPARABLE_OR_INCREASE",
    "NOT_INCOMPARABLE",
    "CONDITIONAL",
}
SUMMARY_CATEGORY = {
    "INCOMPARABLE": "incomparable",
    "CONVERTIBLE_BACKWARD": "increase",
    "EQUAL": "equal",
    "CONVERTIBLE_FORWARD": "convertible",
}
CHI_FINAL_TARGET = np.array(
    [1.0 / 3.0 + 1.0 / (2.0 * math.sqrt(3.0)), 1.0 / 3.0, 1.0 / 3.0 - 1.0 / (2.0 * math.sqrt(3.0))]
)

_S2 = 1.0 / math.sqrt(2.0)
# (+1 ket, -1 ket) of each spin axis.
AXIS_KETS = {
    "z": (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    "x": (np.array([_S2, _S2], dtype=complex), np.array([_S2, -_S2], dtype=complex)),
    "y": (np.array([_S2, 1j * _S2], dtype=complex), np.array([_S2, -1j * _S2], dtype=complex)),
}
PI_BRANCHES = (("z", "z"), ("x", "x"), ("y", "y"))
CHI_BRANCHES = (("z", "z"), ("x", "y"), ("y", "x"))


class CheckError(Exception):
    """A program output disagrees with the independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _worst(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    diff = np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))
    if diff.size and not np.all(diff <= tol):
        index = np.unravel_index(int(np.nanargmax(np.where(np.isnan(diff), np.inf, diff))), diff.shape)
        raise CheckError(
            f"{name} differs from the reference by {float(diff[index]):.3e} "
            f"(tolerance {tol:.0e}) at index {tuple(int(i) for i in index)}"
        )


def spectrum(matrices: np.ndarray) -> np.ndarray:
    """Squared singular values, descending, of each amplitude matrix."""
    return np.linalg.svd(matrices, compute_uv=False) ** 2


def entropy_bits(lams: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, ignoring entries below 1e-13."""
    lams = np.where(lams < ENTROPY_CLAMP, 0.0, lams)
    safe = np.where(lams > 0.0, lams, 1.0)
    return -np.sum(lams * np.log2(safe), axis=-1)


def pi_amplitudes(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(N, 3, 4) amplitude matrices of the superposition scenario's final state.

    Row i is |i>_A (x) |l,0> (x) (alpha |l,0> + beta |l,1>) / sqrt(3) for the
    branch axes l = z, x, y.
    """
    alpha = np.asarray(alpha, dtype=complex)[:, None]
    beta = np.asarray(beta, dtype=complex)[:, None]
    rows = []
    for first, second in PI_BRANCHES:
        image = alpha * AXIS_KETS[second][0] + beta * AXIS_KETS[second][1]
        rows.append(np.einsum("i,nj->nij", AXIS_KETS[first][0], image).reshape(-1, 4))
    return np.stack(rows, axis=1) / math.sqrt(3.0)


def chi_amplitudes(theta: np.ndarray, phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    """(N, 3, 4) amplitude matrices of the conjugation scenario's final state.

    The map is K U with U = [[cos t, e^{ia} sin t], [-e^{ib} sin t, e^{i(a+b)} cos t]]
    and K complex conjugation in the computational basis.
    """
    ct, st = np.cos(theta), np.sin(theta)
    ea, eb = np.exp(1j * phi_a), np.exp(1j * phi_b)
    u = np.stack(
        [np.stack([ct + 0j, ea * st], axis=-1), np.stack([-eb * st, ea * eb * ct], axis=-1)],
        axis=-2,
    )
    rows = []
    for first, second in CHI_BRANCHES:
        image = np.conj(u @ AXIS_KETS[second][0])
        rows.append(np.einsum("i,nj->nij", AXIS_KETS[first][0], image).reshape(-1, 4))
    return np.stack(rows, axis=1) / math.sqrt(3.0)


def cubic_data(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = tr(K^2)/6 and B = det K with K = 3 rho_A - I."""
    rho = matrices @ np.conj(np.swapaxes(matrices, -1, -2))
    k = 3.0 * rho - np.eye(3)
    big_a = np.trace(k @ k, axis1=-2, axis2=-1).real / 6.0
    big_b = np.linalg.det(k).real
    return big_a, big_b


def nielsen_labels(src: np.ndarray, dst: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Nielsen verdict for converting src into dst, and where it is unambiguous."""
    diff = (np.cumsum(src, axis=-1) - np.cumsum(dst, axis=-1))[..., :-1]
    forward = np.all(diff <= MAJORIZATION_TOL, axis=-1)
    backward = np.all(-diff <= MAJORIZATION_TOL, axis=-1)
    clear = np.all(np.abs(np.abs(diff) - MAJORIZATION_TOL) > LABEL_MARGIN, axis=-1)
    labels = [
        "EQUAL" if f and b else "CONVERTIBLE_FORWARD" if f else "CONVERTIBLE_BACKWARD" if b else "INCOMPARABLE"
        for f, b in zip(forward, backward)
    ]
    return labels, clear


@dataclass
class SweepReference:
    """Expected rows of sweep-real (deltas is None) or sweep-complex."""

    phis: np.ndarray
    deltas: np.ndarray | None
    lams: np.ndarray
    big_a: np.ndarray
    big_b: np.ndarray
    entropy_initial: float
    entropy_final: np.ndarray
    labels: list[str]
    label_clear: np.ndarray

    @classmethod
    def build(cls, n_phi: int, n_delta: int | None) -> "SweepReference":
        phi_axis = np.array([2.0 * math.pi * k / n_phi for k in range(n_phi)])
        if n_delta is None:
            phis, deltas = phi_axis, None
            alpha, beta = np.cos(phis), np.sin(phis)
        else:
            delta_axis = np.array([2.0 * math.pi * j / n_delta for j in range(n_delta)])
            phis = np.repeat(phi_axis, n_delta)
            deltas = np.tile(delta_axis, n_phi)
            alpha, beta = np.cos(phis), np.exp(1j * deltas) * np.sin(phis)
        matrices = pi_amplitudes(alpha, beta)
        lams = spectrum(matrices)
        initial = spectrum(pi_amplitudes(np.ones(1), np.zeros(1)))[0]
        big_a, big_b = cubic_data(matrices)
        labels, clear = nielsen_labels(np.broadcast_to(initial, lams.shape), lams)
        return cls(
            phis, deltas, lams, big_a, big_b,
            float(entropy_bits(initial)), entropy_bits(lams), labels, clear,
        )

    @property
    def size(self) -> int:
        return self.phis.size


def parse_sweep_csv(text: str) -> dict[str, list[str]]:
    """Columns of sweep CSV output, by header name, as strings."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == SWEEP_HEADER, f"sweep CSV header is {lines[:1]!r}")
    rows = list(csv.reader(lines[1:]))
    _require(all(len(row) == len(SWEEP_FIELDS) for row in rows), "sweep CSV row with wrong field count")
    return {name: [row[i] for row in rows] for i, name in enumerate(SWEEP_FIELDS)}


def parse_sweep_json(text: str) -> dict[str, list]:
    """Columns of sweep JSON output, by field name."""
    records = json.loads(text)
    _require(isinstance(records, list), "sweep JSON is not an array")
    _require(all(isinstance(r, dict) and list(r) == SWEEP_FIELDS for r in records), "sweep JSON fields differ")
    return {name: [r[name] for r in records] for name in SWEEP_FIELDS}


def _floats(values: list, what: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in values], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"non-numeric {what} column: {exc}") from exc


def check_sweep(columns: dict[str, list], ref: SweepReference) -> None:
    """Check parsed sweep output, row by row, against the SVD/determinant reference."""
    _require(len(columns["phi"]) == ref.size, f"{len(columns['phi'])} rows, expected {ref.size}")
    _worst("phi", _floats(columns["phi"], "phi"), ref.phis, VALUE_TOL)
    if ref.deltas is None:
        _require(all(v in ("", None) for v in columns["delta"]), "real sweep has a delta value")
    else:
        _worst("delta", _floats(columns["delta"], "delta"), ref.deltas, VALUE_TOL)
    lams = np.stack([_floats(columns[f"lam{i}"], f"lam{i}") for i in (1, 2, 3)], axis=1)
    _require(bool(np.all(np.diff(lams, axis=1) <= 0.0)), "lambda is not descending")
    _worst("sum of lambda", lams.sum(axis=1), np.ones(ref.size), VALUE_TOL)
    _worst("lambda", lams, ref.lams, LAM_TOL)
    _worst("A", _floats(columns["A"], "A"), ref.big_a, VALUE_TOL)
    _worst("B", _floats(columns["B"], "B"), ref.big_b, VALUE_TOL)
    _worst("entropy_i", _floats(columns["entropy_i"], "entropy_i"), np.full(ref.size, ref.entropy_initial), ENTROPY_TOL)
    _worst("entropy_f", _floats(columns["entropy_f"], "entropy_f"), ref.entropy_final, ENTROPY_TOL)
    for k, (got, want, clear) in enumerate(zip(columns["observed"], ref.labels, ref.label_clear)):
        _require(got in SUMMARY_CATEGORY, f"row {k}: unknown observed label {got!r}")
        _require(not clear or got == want, f"row {k}: observed {got}, reference majorization gives {want}")
    _require(all(p in PREDICTIONS for p in columns["predicted"]), "unknown predicted label")
    _require(all(a in ("true", True) for a in columns["agree"]), "a row has agree false")


def check_summary(summary: dict, columns: dict[str, list]) -> None:
    """Check summarize() output against the tally of the checked observed labels."""
    counts = {name: 0 for name in SUMMARY_CATEGORY.values()}
    for label in columns["observed"]:
        counts[SUMMARY_CATEGORY[label]] += 1
    total = len(columns["observed"])
    _require(summary.get("total") == total, f"summary total {summary.get('total')}, expected {total}")
    _require(summary.get("counts") == counts, f"summary counts {summary.get('counts')}, expected {counts}")
    fractions = {name: count / total for name, count in counts.items()}
    _require(summary.get("fractions") == fractions, "summary fractions differ from counts/total")


@dataclass
class GammaReference:
    """Expected sweep-gamma summary over an (n_theta, n_a, n_b) grid."""

    sizes: tuple[int, int, int]

    @classmethod
    def build(cls, n_theta: int, n_a: int, n_b: int) -> "GammaReference":
        axes = [np.array([2.0 * math.pi * i / n for i in range(n)]) for n in (n_theta, n_a, n_b)]
        theta, phi_a, phi_b = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        lams = spectrum(chi_amplitudes(theta, phi_a, phi_b))
        deviation = float(np.max(np.abs(lams - CHI_FINAL_TARGET)))
        # The claim the sweep certifies must hold at the grid points themselves.
        _require(deviation < GAMMA_DEVIATION_TOL, f"reference chi_final deviates by {deviation:.3e}")
        return cls((n_theta, n_a, n_b))


def parse_single_row_csv(text: str) -> dict[str, str]:
    """Header and one data row, as printed by sweep-gamma and schmidt."""
    lines = text.splitlines()
    _require(len(lines) == 2, f"expected a header and one row, got {len(lines)} lines")
    header, row = lines[0].split(","), lines[1].split(",")
    _require(len(header) == len(row), "header and row lengths differ")
    return dict(zip(header, row))


def check_gamma(fields: dict, ref: GammaReference) -> None:
    _require(list(fields) == GAMMA_FIELDS, f"sweep-gamma fields are {list(fields)}")
    sizes = tuple(int(fields[name]) for name in GAMMA_FIELDS[:3])
    _require(sizes == ref.sizes, f"grid sizes {sizes}, expected {ref.sizes}")
    points = ref.sizes[0] * ref.sizes[1] * ref.sizes[2]
    _require(int(fields["grid_points"]) == points, f"grid_points {fields['grid_points']}, expected {points}")
    deviation = float(fields["max_deviation"])
    _require(0.0 <= deviation < GAMMA_DEVIATION_TOL, f"max_deviation {deviation!r} not below 1e-10")


@dataclass
class SchmidtReference:
    """Expected Schmidt vector and entropy of one state file."""

    lams: np.ndarray
    entropy: float

    @classmethod
    def build(cls, matrix: np.ndarray) -> "SchmidtReference":
        lams = spectrum(matrix)[: min(matrix.shape)]
        return cls(lams, float(entropy_bits(lams)))


def parse_schmidt_csv(text: str) -> tuple[np.ndarray, float]:
    fields = parse_single_row_csv(text)
    names = list(fields)
    _require(names[-1] == "entropy", "last schmidt column is not entropy")
    _require(names[:-1] == [f"lam{i + 1}" for i in range(len(names) - 1)], "schmidt columns misnamed")
    return _floats([fields[n] for n in names[:-1]], "lambda"), float(fields["entropy"])


def check_schmidt(lams: np.ndarray, entropy: float, ref: SchmidtReference) -> None:
    _require(lams.size == ref.lams.size, f"{lams.size} Schmidt coefficients, expected {ref.lams.size}")
    _require(bool(np.all(np.diff(lams) <= 0.0)), "Schmidt vector is not descending")
    _worst("sum of lambda", np.array([lams.sum()]), np.ones(1), VALUE_TOL)
    _worst("lambda", lams, ref.lams, VALUE_TOL)
    _worst("entropy", np.array([entropy]), np.array([ref.entropy]), ENTROPY_TOL)


def check_known_failure(exit_code: int, stderr: str) -> None:
    """The known-failing grid must stop with exit 3 and the disagreement message."""
    _require("Traceback" not in stderr, "known-failing grid printed a traceback")
    _require(exit_code == 3, f"known-failing grid exited {exit_code}, expected 3")
    _require(FAILURE_MESSAGE in stderr, f"known-failing grid stderr lacks {FAILURE_MESSAGE!r}")


def parse_sweep(text: str, fmt: str) -> dict[str, list]:
    """Columns of sweep output in either CLI format."""
    return parse_sweep_json(text) if fmt == "json" else parse_sweep_csv(text)
