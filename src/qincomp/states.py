"""Pure bipartite states as amplitude matrices: partial trace, Schmidt
vectors, entanglement entropy."""

from __future__ import annotations

import math

import numpy as np

from .linalg import _kept, eigenvalues_hermitian_jacobi

ENTROPY_CLAMP = 1e-13


def reduced_density_a(m: np.ndarray) -> np.ndarray:
    """Trace out subsystem B of a (dim_a, dim_b) amplitude matrix, or of each
    matrix of a (dim_a, dim_b, N) stack into a (dim_a, dim_a, N) one: entry
    (i, k) = sum_j m[i, j] * conj(m[k, j]), summed over Bob's axis in one
    einsum.  The norm is not checked.  The Gram is fresh; the conjugate
    operand, laid out as m.conj(), goes into a buffer kept per thread (see
    linalg._kept) for the next stack of m's dtype, shape and strides."""
    key = m.dtype, m.shape, m.strides
    (conjugate,) = _kept("reduced_density_a", key, math.prod(m.shape[2:]), lambda: (np.empty_like(m),))
    return np.einsum("ij...,kj...->ik...", m, np.conjugate(m, out=conjugate))


def schmidt_vector(m: np.ndarray) -> np.ndarray:
    """Descending Schmidt coefficients of a (dim_a, dim_b) amplitude matrix,
    or of each matrix of a (dim_a, dim_b, N) stack as the rows of an (N, n)
    array: the n = min(dim_a, dim_b) eigenvalues of the shared nonzero
    spectrum, from the smaller side's Gram matrix.

    That is M M^H (the A-side reduced density) when dim_a <= dim_b, else
    M^H M (the transposed B-side one); both have the squared singular values
    of M as their nonzero spectrum.  Eigenvalue noise below zero is clamped
    to 0.  Invariant under a global phase on the state.  The norm is not
    checked: cli checks a state file's, and the user's parameters behind
    the probe states, where it reads them.
    """
    dim_a, dim_b = m.shape[:2]
    gram = reduced_density_a(m if dim_a <= dim_b else m.conj().swapaxes(0, 1))
    return np.clip(eigenvalues_hermitian_jacobi(gram), 0.0, None)


def entropy_of_entanglement(v: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in bits, with 0*log(0) = 0, of a Schmidt vector or of
    each vector along the last axis of an array (then an array).  Only terms
    in [ENTROPY_CLAMP, 1 - ENTROPY_CLAMP] are kept, each negative, so noise
    near 0 or at or above 1 drops: a product vector's entropy is +0.0."""
    v = np.asarray(v, dtype=float)
    kept = (v >= ENTROPY_CLAMP) & (v <= 1.0 - ENTROPY_CLAMP)
    terms = np.where(kept, v * np.log2(np.where(kept, v, 1.0)), 0.0)
    # 0.0 - x, not -x: a product vector's entropy is 0.0, never -0.0
    entropy = 0.0 - np.sum(terms, axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy
