"""Joint weight-activation subspace selection.

Builds the mixed covariance M = lambda_x * Sigma_X + lambda_w * Sigma_W,
takes its top-r eigenvectors as the high-precision subspace basis, and
composes the full orthogonal transform with seeded internal rotations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .calib import CalibStats
from .errors import (
    SEED,
    Checked,
    check,
    check_fields,
    is_int,
    is_real,
)
from .linalg import (
    HIGH_ROTATION, LOW_ROTATION, hadamard, random_orthogonal, stream, sym_eig)

OBJECTIVE_JOINT = "joint"
OBJECTIVE_ACTIVATION = "activation"
OBJECTIVE_WEIGHT = "weight"
OBJECTIVES = (OBJECTIVE_JOINT, OBJECTIVE_ACTIVATION, OBJECTIVE_WEIGHT)

ROTATION_RANDOM = "random"
ROTATION_HADAMARD = "hadamard"
ROTATIONS = (ROTATION_RANDOM, ROTATION_HADAMARD)

# the rules of the fields that plans and run configurations share
OBJECTIVE = (lambda v: v in OBJECTIVES, f"one of {OBJECTIVES}")
ROTATION = (lambda v: v in ROTATIONS, f"one of {ROTATIONS}")


def rank_rule(dim: int) -> tuple:
    """The rule of a rank in R^dim: both blocks of the partition non-empty."""
    return (lambda v: is_int(v, 1, dim), f"an int in [1, {dim})")


@dataclass(frozen=True)
class SubspacePartition(Checked):
    """Orthogonal split of R^d into a rank-r high-precision subspace and its
    complement.

    A partition is its descending eigenbasis `vectors` (the first `rank`
    columns span the high-precision subspace), the seed and kind of its
    internal rotations, and the covariance weights. The composed transform
    u = [p_l r_l, p_h r_h] (low block first) is derived from them on first
    use, so a partition read back from a file has the same `u` bit for bit,
    and one whose `u` is never used computes no rotation."""

    vectors: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    seed: int
    rotation: str
    lambda_x: float
    lambda_w: float

    def __post_init__(self):
        check_fields(self, (
            ("rank", *rank_rule(self.dim)),
            ("seed", *SEED),
            ("rotation", *ROTATION),
            ("lambda_x", lambda v: is_real(v, 0.0), "a finite number >= 0"),
            ("lambda_w", lambda v: is_real(v, 0.0) and (v > 0 or self.lambda_x > 0),
             "a finite number >= 0, and > 0 if lambda_x is 0"),
        ))
        # one memory order for solved and read bases: u is then the same bits
        object.__setattr__(self, "vectors", np.ascontiguousarray(self.vectors))

    @functools.cached_property
    def u(self) -> np.ndarray:
        k = self.dim - self.rank
        r_h = _internal_rotation(self.rank, self.seed, HIGH_ROTATION, self.rotation)
        r_l = _internal_rotation(k, self.seed, LOW_ROTATION, self.rotation)
        # each product is written into its block of u: no d x d temporary
        u = np.empty((self.dim, self.dim))
        np.matmul(self.p_l, r_l, out=u[:, :k])
        np.matmul(self.p_h, r_h, out=u[:, k:])
        return u

    def rotate_t(self, mat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write u^T mat into `out`: the one way the transform is applied
        outside this module, so its form can change here alone."""
        return np.matmul(self.u.T, mat, out=out)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def p_h(self) -> np.ndarray:
        return self.vectors[:, :self.rank]

    @property
    def p_l(self) -> np.ndarray:
        return self.vectors[:, self.rank:]


def lambda_weights(stats: CalibStats, gamma_low: float,
                   objective: str = OBJECTIVE_JOINT) -> tuple[float, float]:
    """Covariance weights (lambda_x, lambda_w).

    lambda_x = gamma_low * ||W||_F^2 scales the activation covariance and
    lambda_w = gamma_low * ||X||_F^2 the weight covariance; the single-sided
    objectives zero out the other term, so a plan reads its objective back
    from which weight is 0 (`MixedPrecisionPlan.objective`).
    """
    if gamma_low <= 0:
        raise ValueError("gamma_low must be > 0")
    check("objective", objective, *OBJECTIVE)
    # a zero energy on one side would silence the *other* covariance entirely;
    # fall back to a unit multiplier there (the common factor cannot change
    # the argmax) so the solver degrades to single-sided selection
    lx = gamma_low * (stats.energy_w if stats.energy_w > 0 else 1.0)
    lw = gamma_low * (stats.energy_x if stats.energy_x > 0 else 1.0)
    if objective == OBJECTIVE_ACTIVATION:
        lw = 0.0
    elif objective == OBJECTIVE_WEIGHT:
        lx = 0.0
    return lx, lw


# one u needs two rotations, and every plan of one size and seed the same two
@functools.lru_cache(maxsize=2)
def _internal_rotation(dim: int, seed: int, role: int, rotation: str) -> np.ndarray:
    """The internal rotation of a block of `dim`, read-only, random ones drawn
    from the `role` stream of `seed`: a pure function of its arguments, so
    plans of one shape and seed share it."""
    use_hadamard = rotation == ROTATION_HADAMARD and dim & (dim - 1) == 0
    r = hadamard(dim) if use_hadamard else random_orthogonal(dim, stream(seed, role))
    r.flags.writeable = False
    return r


def solve_partition(stats: CalibStats, rank: int, objective: str = OBJECTIVE_JOINT,
                    gamma_low: float = 1.0, seed: int = 0,
                    rotation: str = ROTATION_RANDOM) -> SubspacePartition:
    """Closed-form solve: p_h spans the top-`rank` eigenvectors of the mixed
    covariance; internal rotations are deterministic in (seed, rotation)."""
    d = stats.group.dim
    check("rank", rank, *rank_rule(d))
    lx, lw = lambda_weights(stats, gamma_low, objective)
    with np.errstate(over="ignore", invalid="ignore"):  # reported, not warned of
        m = lx * stats.sigma_x + lw * stats.sigma_w
    if not np.all(np.isfinite(m)):  # calibrate and read_stats give finite sums
        raise ArithmeticError(f"the mixed covariance {lx!r} * Sigma_X + {lw!r} * "
                              "Sigma_W overflows float64")
    if np.max(np.abs(m)) == 0.0:
        raise ArithmeticError("combined covariance matrix is zero")
    eig = sym_eig(m)
    return SubspacePartition(vectors=eig.vectors, eigenvalues=eig.values, rank=rank,
                             seed=seed, rotation=rotation, lambda_x=lx, lambda_w=lw)


def surrogate_objective(partition: SubspacePartition, stats: CalibStats) -> float:
    """Tr(p_h^T (lambda_x Sigma_X + lambda_w Sigma_W) p_h) - the quantity the
    closed form maximizes; equals the top-r eigenvalue sum at the optimum."""
    if partition.dim != stats.group.dim:
        raise ValueError(
            f"partition dim {partition.dim} vs stats dim {stats.group.dim}")
    m = partition.lambda_x * stats.sigma_x + partition.lambda_w * stats.sigma_w
    return float(np.trace(partition.p_h.T @ m @ partition.p_h))
