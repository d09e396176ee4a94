"""Dense real matrix kernels: symmetric eigendecomposition (LAPACK `eigh`),
seeded orthogonal matrices (LAPACK QR), Sylvester-Hadamard construction, the
row blocks X is streamed in, the one rule that names random streams, and the
helpers the rest of the package uses.

The routines are pure functions of 2-d float64 numpy arrays, except that
`row_blocks` and `gram_input` also take the float32 rows of a calibration
input, whose precision `gram_input` keeps.
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

# float64 bytes of a row block's widest buffer, and its fewest rows: at large
# widths a block of a few rows makes each product a poor GEMM
BLOCK_BYTES = 1 << 20
MIN_BLOCK_ROWS = 256


def row_blocks(x, d: int, width: int, gram: bool) -> list:
    """Check that `x` (a mapped array included) is 2-d with `d` columns and
    at least one row, and return its row blocks as views. A block holds about
    BLOCK_BYTES in the pass's widest float64 buffer, `width` columns, and at
    least MIN_BLOCK_ROWS rows, and `width` rows if each adds a Gram (`gram`)."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != d or len(x) < 1:
        raise DimensionMismatchError(f"x must be 2-d with {d} columns "
                                     f"and at least one row, got shape {x.shape}")
    rows = max(MIN_BLOCK_ROWS, BLOCK_BYTES // (8 * width), width if gram else 0)
    return [x[lo:lo + rows] for lo in range(0, len(x), rows)]


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

    An input whose asymmetry exceeds SYMMETRY_TOL * max|M| is rejected. One
    within it is passed to `eigh` as it is, which reads its lower triangle:
    it is solved as the symmetric matrix of that triangle. Every covariance
    the package forms is exactly symmetric, so nothing is lost.
    """
    # aligned: numpy multiplies an unaligned array (a caller's may be one) by
    # a slower path that rounds differently
    m = np.require(m, np.float64, "A")
    if m.ndim != 2:
        raise DimensionMismatchError(f"matrix must be 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected square matrix, got {m.shape}")
    amax = np.max(np.abs(m))
    if amax > 0 and np.max(np.abs(m - m.T)) > SYMMETRY_TOL * amax:
        raise NotSymmetricError("asymmetry exceeds 1e-9 * max|M|")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as e:
        raise NoConvergenceError(f"eigh did not converge: {e}") from e
    # stable sort: descending by value, ties keep original index order; the
    # fancy index makes the fresh array that _fix_signs edits in place
    order = np.argsort(-values, kind="stable")
    return EigenResult(values=values[order], vectors=_fix_signs(vectors[:, order]))


def gram_input(x: np.ndarray) -> np.ndarray:
    """X^T X for an n x d batch of rows (uncentered second moment), in float32
    when X is float32, else in float64. A float32 Gram of k rows is within
    gamma_k |X|^T |X| of the exact one, elementwise, where gamma_k = k u /
    (1 - k u) and u = 2^-24, while no product underflows. Underflow adds at
    most k 2^-150 to an entry, under k u sqrt(G_ii G_jj) once both diagonal
    entries are float32 normals; so if a nonzero column's is not (entries
    of 1e-23 square to 0), the Gram is formed in float64 instead. Only an
    unaligned X, never a file the package wrote, is copied (see sym_eig)."""
    if x.dtype == np.float32:
        a = np.require(x, np.float32, "A").T  # aligned: see sym_eig
        g = a @ a.T
        lost = np.diagonal(g) < np.finfo(np.float32).tiny
        if not (lost.any() and a[lost].any()):
            return g
    a = np.require(x, np.float64, "A").T
    return a @ a.T


# the roles of the random draws: row block k of a synthetic X, its W, its
# basis, and a plan's low- and high-block internal rotations
ROWS, WEIGHTS, BASIS, LOW_ROTATION, HIGH_ROTATION = range(5)


def stream(seed: int, role: int, index: int = 0) -> np.random.SeedSequence:
    """The seed of draw `index` of `role` under `seed`, the one rule by which
    the package names a random stream. Distinct (seed, role, index) give
    independent streams: the pair is a spawn key, not entropy, so no other
    seed reaches the same state."""
    return np.random.SeedSequence(seed, spawn_key=(role, index))


def random_orthogonal(d: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Seeded Haar-distributed orthogonal matrix.

    Generator: numpy PCG64 stream seeded with `seed`, an int or a `stream`,
    standard-normal fill, then LAPACK QR with each column of Q signed so that
    diag(R) > 0 (Mezzadri, "How to generate random matrices from the classical
    compact groups", 2007). Fixed here so identical (d, seed) give identical
    output across runs.
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
