"""Dense real matrix kernels: symmetric eigendecomposition (LAPACK `eigh`),
seeded orthogonal matrices (LAPACK QR), Sylvester-Hadamard construction, and
the small arithmetic helpers the rest of the package relies on.

All routines operate on 2-d float64 numpy arrays and are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSquareError,
    NotSymmetricError,
)

SYMMETRY_TOL = 1e-9


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d float64 array with all entries finite."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class EigenResult:
    """Eigendecomposition of a symmetric matrix.

    `values` is sorted non-increasing; column i of `vectors` is the unit
    eigenvector for values[i].
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (ties: lowest
    row index wins), in place. Keeps output reproducible across runs and
    platforms."""
    idx = np.argmax(np.abs(v), axis=0)
    flips = v[idx, np.arange(v.shape[1])] < 0
    v[:, flips] *= -1.0
    return v


def sym_eig(m: np.ndarray) -> EigenResult:
    """Eigendecomposition of a symmetric matrix via LAPACK (`numpy.linalg.eigh`).

    The input is symmetrized as (M + M^T)/2 before solving; inputs whose
    asymmetry exceeds the tolerance are rejected.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected square matrix, got {m.shape}")
    amax = np.max(np.abs(m))
    if amax > 0 and np.max(np.abs(m - m.T)) > SYMMETRY_TOL * amax:
        raise NotSymmetricError("asymmetry exceeds 1e-9 * max|M|")
    try:
        values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as e:
        raise NoConvergenceError(f"eigh did not converge: {e}") from e
    # stable sort: descending by value, ties keep original index order; the
    # fancy index makes the fresh array that _fix_signs edits in place
    order = np.argsort(-values, kind="stable")
    return EigenResult(values=values[order], vectors=_fix_signs(vectors[:, order]))


def gram_input(x: np.ndarray) -> np.ndarray:
    """X^T X for an n x d activation batch (uncentered second moment).

    Validated through its output: diag(X^T X)_j = sum_i x_ij^2 has no
    cancellation, so it is finite exactly when column j is finite and its
    square sum does not overflow. No separate pass over X is needed."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"x must be 2-d, got shape {x.shape}")
    if x.shape[0] < 1:
        raise DimensionMismatchError("empty activation batch")
    g = x.T @ x
    if not np.all(np.isfinite(np.diagonal(g))):
        raise ValueError("x contains non-finite entries, or its squares overflow")
    return g


def gram_weight(w: np.ndarray) -> np.ndarray:
    """W W^T for a d x m weight matrix."""
    w = as_matrix(w, "w")
    if w.shape[1] < 1:
        raise DimensionMismatchError("empty weight matrix")
    return w @ w.T


def random_orthogonal(d: int, seed: int) -> np.ndarray:
    """Seeded Haar-distributed orthogonal matrix.

    Generator: numpy PCG64 stream seeded with `seed`, standard-normal fill,
    then LAPACK QR with each column of Q signed so that diag(R) > 0 (Mezzadri,
    "How to generate random matrices from the classical compact groups",
    2007). Fixed here so identical (d, seed) give identical output across runs.
    """
    if d < 1:
        raise DimensionMismatchError("d must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q[:, np.diag(r) < 0] *= -1.0
    return q


def hadamard(d: int) -> np.ndarray:
    """Normalized Sylvester-Hadamard matrix; d must be a power of two."""
    if d < 1 or d & (d - 1) != 0:
        raise DimensionMismatchError(f"Hadamard dimension must be a power of two, got {d}")
    h = np.array([[1.0]])
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(d)
