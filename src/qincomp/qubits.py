"""Single-qubit machinery: the parameterized unitary, the anti-unitary that
conjugates after it, the six axis kets, and the restricted superposition map
defined only on the three +1 axis kets.

An axis is named by the string "x", "y" or "z", and its two kets are
read-only constants.  named_ket, general_unitary, apply_antiunitary and
ipp_image do not check their input: their callers are in the package, and
cli checks the user's angles and amplitudes once, where it reads them."""

from __future__ import annotations

import math

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)
_KETS = {
    ("x", 0): np.array([_SQ2, _SQ2], dtype=complex),
    ("x", 1): np.array([_SQ2, -_SQ2], dtype=complex),
    ("y", 0): np.array([_SQ2, _SQ2 * 1j], dtype=complex),
    ("y", 1): np.array([_SQ2, -_SQ2 * 1j], dtype=complex),
    ("z", 0): np.array([1.0, 0.0], dtype=complex),
    ("z", 1): np.array([0.0, 1.0], dtype=complex),
}
for _ket in _KETS.values():
    _ket.flags.writeable = False


def named_ket(label: str, which: int) -> np.ndarray:
    """The read-only +1 (which=0) or -1 (which=1) eigenket of the spin axis
    "x", "y" or "z": the same array on every call."""
    return _KETS[label, which]


def general_unitary(theta: object, phi_a: object, phi_b: object) -> np.ndarray:
    """The 2x2 unitary [[cos t, e^{i a} sin t], [-e^{i b} sin t, e^{i(a+b)} cos t]],
    or a matrix-last stack of them over equal-shape angle arrays: shape
    (2, 2) + theta.shape."""
    ct, st = np.cos(theta), np.sin(theta)
    ea, eb = np.exp(1j * phi_a), np.exp(1j * phi_b)
    u = np.empty((2, 2) + np.shape(ct), dtype=complex)
    u[0, 0] = ct
    u[0, 1] = ea * st
    u[1, 0] = -eb * st
    u[1, 1] = ea * eb * ct
    return u


def apply_antiunitary(u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Apply the unitary u, or each of a stack of them (from general_unitary),
    to the single-qubit unit ket k (a named_ket, unchecked), then conjugate
    every amplitude in the computational basis: conj(u k), shape (2,) +
    u.shape[2:].  The resulting map is anti-linear and preserves
    inner-product modulus.
    """
    return np.conj(u[:, 0] * k[0] + u[:, 1] * k[1])


def ipp_image(label: str, alpha: object, beta: object) -> np.ndarray:
    """Image alpha|0_label> + beta|1_label> of the restricted superposition map,
    over equal-shape amplitude arrays (or scalars): shape (2,) + alpha.shape."""
    shape = (2,) + (1,) * np.ndim(alpha)
    return alpha * named_ket(label, 0).reshape(shape) + beta * named_ket(label, 1).reshape(shape)
