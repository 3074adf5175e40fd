"""Bipartite pure states, partial trace, Schmidt vectors, entanglement entropy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import eigenvalues_hermitian_jacobi, is_normalized

SCHMIDT_SUM_TOL = 1e-10
ENTROPY_CLAMP = 1e-13


@dataclass(frozen=True)
class BipartiteState:
    """Pure state of an (dim_a x dim_b) system, amplitudes flat at i*dim_b + j."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim_a * self.dim_b,):
            raise ValueError("amplitude count must equal dim_a * dim_b")
        if not is_normalized(amps):
            raise ValueError("state amplitudes must have unit norm")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def reduced_density_a(s: BipartiteState) -> np.ndarray:
    """Trace out subsystem B: entry (i, k) = sum_j amp(i,j) * conj(amp(k,j))."""
    return _reduced_densities(s.amplitudes.reshape(s.dim_a, s.dim_b))


def _reduced_densities(mats: np.ndarray) -> np.ndarray:
    """reduced_density_a of one (dim_a, dim_b) amplitude matrix or of an
    (N, dim_a, dim_b) stack, in one (stacked) matmul."""
    return mats @ mats.conj().swapaxes(-1, -2)


def schmidt_vector(s: BipartiteState) -> np.ndarray:
    """Descending Schmidt coefficients: the min(dim_a, dim_b) eigenvalues of
    the shared nonzero spectrum, from the smaller side's Gram matrix.

    With M the (dim_a, dim_b) amplitude matrix, that is M M^H (the A-side
    reduced density) when dim_a <= dim_b, else M^H M (the transposed B-side
    one); both have the squared singular values of M as their nonzero
    spectrum.  Eigenvalue noise below zero is clamped to 0.  Invariant under
    a global phase on the state.
    """
    # BipartiteState has checked the unit norm
    return _schmidt(s.amplitudes.reshape(s.dim_a, s.dim_b))


def _schmidt_vectors(mats: np.ndarray) -> np.ndarray:
    """schmidt_vector of each matrix of an (N, dim_a, dim_b) amplitude stack,
    with one stacked Jacobi call, after BipartiteState's unit-norm check on
    each matrix."""
    if not is_normalized(mats, axis=(-2, -1)):
        raise ValueError("state amplitudes must have unit norm")
    return _schmidt(mats)


def _schmidt(mats: np.ndarray) -> np.ndarray:
    """schmidt_vector of one amplitude matrix or of an (N, dim_a, dim_b) stack, unchecked."""
    dim_a, dim_b = mats.shape[-2:]
    gram = _reduced_densities(mats if dim_a <= dim_b else mats.conj().swapaxes(-1, -2))
    return np.clip(eigenvalues_hermitian_jacobi(gram), 0.0, None)


def entropy_of_entanglement(v: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in bits, with 0*log(0) = 0, of a Schmidt vector or of
    each vector along the last axis of an array (then an array)."""
    v = np.asarray(v, dtype=float)
    positive = v >= ENTROPY_CLAMP
    terms = np.where(positive, v * np.log2(np.where(positive, v, 1.0)), 0.0)
    # 0.0 - x, not -x: a product vector's entropy is 0.0, never -0.0
    entropy = 0.0 - np.sum(terms, axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy
