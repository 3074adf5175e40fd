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


def _descending_padded(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a and b sorted descending along the last axis, the shorter zero-padded."""
    a = np.sort(np.asarray(a, dtype=float), axis=-1)[..., ::-1]
    b = np.sort(np.asarray(b, dtype=float), axis=-1)[..., ::-1]
    n = max(a.shape[-1], b.shape[-1])
    return tuple(
        v if v.shape[-1] == n else np.pad(v, [(0, 0)] * (v.ndim - 1) + [(0, n - v.shape[-1])])
        for v in (a, b)
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
    """Nielsen verdict for converting src into dst under deterministic LOCC."""
    code, sums_src, sums_dst = _pair_codes(*_descending_padded(src, dst))
    return PairVerdict(_LABELS[int(code)], sums_src, sums_dst)
