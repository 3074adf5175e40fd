"""Nielsen's majorization test for deterministic LOCC conversion.

A source Schmidt vector converts to a target exactly when every partial
sum of the source (sorted descending) stays at or below the target's.
A pair convertible in neither direction is incomparable.  majorizes tests
descending partial sums; _pair_codes builds them from descending vectors of
one length and calls it once per direction, for classify_pair, which sorts
and pads the user's vectors, and for the certified kernel, whose spectra
are already descending.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

MAJORIZATION_TOL = 1e-10


class PairLabel(Enum):
    CONVERTIBLE_FORWARD = "CONVERTIBLE_FORWARD"
    CONVERTIBLE_BACKWARD = "CONVERTIBLE_BACKWARD"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


class PairVerdict(NamedTuple):
    label: PairLabel
    partial_sums_src: np.ndarray
    partial_sums_dst: np.ndarray


# Label of each pair code 2*forward + backward.
_LABELS = (
    PairLabel.INCOMPARABLE,
    PairLabel.CONVERTIBLE_BACKWARD,
    PairLabel.CONVERTIBLE_FORWARD,
    PairLabel.EQUAL,
)


def majorizes(sums_b: np.ndarray, sums_a: np.ndarray) -> np.ndarray:
    """Whether a is majorized by b, from descending partial sums along the
    last axis: every sum of a is <= b's + MAJORIZATION_TOL.  Ties count as
    majorized, so borderline pairs register as convertible, not incomparable."""
    return np.all(sums_a <= sums_b + MAJORIZATION_TOL, axis=-1)


def _pair_codes(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair codes (indices into _LABELS) and partial sums of src and dst,
    pairing descending vectors of one length along the last axis; leading
    axes broadcast."""
    sums_src, sums_dst = np.cumsum(src, axis=-1), np.cumsum(dst, axis=-1)
    forward = majorizes(sums_dst, sums_src)
    backward = majorizes(sums_src, sums_dst)
    return 2 * forward + backward, sums_src, sums_dst


def classify_pair(src: np.ndarray, dst: np.ndarray) -> PairVerdict:
    """Nielsen verdict for converting vector src into vector dst under
    deterministic LOCC: both sorted descending, the shorter zero-padded."""
    src, dst = (np.sort(np.asarray(v, dtype=float))[::-1] for v in (src, dst))
    n = max(len(src), len(dst))
    code, sums_src, sums_dst = _pair_codes(*(np.pad(v, (0, n - len(v))) for v in (src, dst)))
    return PairVerdict(_LABELS[int(code)], sums_src, sums_dst)
