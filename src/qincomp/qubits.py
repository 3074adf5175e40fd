"""Single-qubit machinery: the parameterized unitary, the anti-unitary that
conjugates after it, the six axis kets, and the restricted superposition map
defined only on the three +1 axis kets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import NORM_TOL, is_normalized

TWO_PI = 2.0 * math.pi
IPP_NORM_TOL = 1e-12


@dataclass(frozen=True)
class UnitaryParams:
    """Angles (theta, phi_a, phi_b), reduced to the canonical range [0, 2pi)."""

    theta: float
    phi_a: float
    phi_b: float

    def __post_init__(self) -> None:
        for name in ("theta", "phi_a", "phi_b"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value % TWO_PI)


@dataclass(frozen=True)
class IppParams:
    """Superposition amplitudes (alpha, beta) with |alpha|^2 + |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        if not all(math.isfinite(x) for x in (alpha.real, alpha.imag, beta.real, beta.imag)):
            raise ValueError("amplitudes must be finite")
        # x * x, unlike x ** 2, gives inf instead of raising OverflowError
        if abs(abs(alpha) * abs(alpha) + abs(beta) * abs(beta) - 1.0) > IPP_NORM_TOL:
            raise ValueError("amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


class SpinLabel(Enum):
    X = "x"
    Y = "y"
    Z = "z"


_SQ2 = 1.0 / math.sqrt(2.0)
_KETS = {
    (SpinLabel.X, 0): np.array([_SQ2, _SQ2], dtype=complex),
    (SpinLabel.X, 1): np.array([_SQ2, -_SQ2], dtype=complex),
    (SpinLabel.Y, 0): np.array([_SQ2, _SQ2 * 1j], dtype=complex),
    (SpinLabel.Y, 1): np.array([_SQ2, -_SQ2 * 1j], dtype=complex),
    (SpinLabel.Z, 0): np.array([1.0, 0.0], dtype=complex),
    (SpinLabel.Z, 1): np.array([0.0, 1.0], dtype=complex),
}


def named_ket(label: SpinLabel, which: int) -> np.ndarray:
    """The +1 (which=0) or -1 (which=1) eigenket of the given spin axis."""
    if which not in (0, 1):
        raise ValueError("which must be 0 or 1")
    return _KETS[(SpinLabel(label), which)].copy()


def general_unitary(p: UnitaryParams) -> np.ndarray:
    """The 2x2 unitary [[cos t, e^{i a} sin t], [-e^{i b} sin t, e^{i(a+b)} cos t]]."""
    ct, st = math.cos(p.theta), math.sin(p.theta)
    ea, eb = np.exp(1j * p.phi_a), np.exp(1j * p.phi_b)
    return np.array([[ct, ea * st], [-eb * st, ea * eb * ct]])


def apply_antiunitary(p: UnitaryParams, k: np.ndarray) -> np.ndarray:
    """Apply the unitary, then conjugate every amplitude in the computational basis.

    The resulting map is anti-linear and preserves inner-product modulus.
    """
    k = np.asarray(k, dtype=complex)
    if k.shape != (2,):
        raise ValueError("apply_antiunitary acts on single-qubit kets")
    if not is_normalized(k, NORM_TOL):
        raise ValueError("apply_antiunitary requires a normalized ket")
    return np.conj(general_unitary(p) @ k)


def ipp_image(label: SpinLabel, p: IppParams) -> np.ndarray:
    """Image alpha|0_label> + beta|1_label> of the restricted superposition map."""
    return p.alpha * named_ket(label, 0) + p.beta * named_ket(label, 1)
