"""Joint weight-activation subspace selection.

Builds the mixed covariance M = lambda_x * Sigma_X + lambda_w * Sigma_W,
takes its top-r eigenvectors as the high-precision subspace basis, and
composes the full orthogonal transform with seeded internal rotations.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .calib import CalibStats
from .errors import DimensionMismatchError, NoSignalError
from .linalg import hadamard, random_orthogonal, sym_eig

OBJECTIVE_JOINT = "joint"
OBJECTIVE_ACTIVATION = "activation"
OBJECTIVE_WEIGHT = "weight"
OBJECTIVES = (OBJECTIVE_JOINT, OBJECTIVE_ACTIVATION, OBJECTIVE_WEIGHT)

ROTATION_RANDOM = "random"
ROTATION_HADAMARD = "hadamard"
ROTATIONS = (ROTATION_RANDOM, ROTATION_HADAMARD)


@dataclass(frozen=True)
class SubspacePartition:
    """Orthogonal split of R^d into a rank-r high-precision subspace and its
    complement, with internal rotations baked into the composed transform
    u = [p_l r_l, p_h r_h] (low block first)."""

    p_h: np.ndarray
    p_l: np.ndarray
    r_h: np.ndarray
    r_l: np.ndarray
    u: np.ndarray
    lambda_x: float
    lambda_w: float
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def rank(self) -> int:
        return self.p_h.shape[1]


def lambda_weights(stats: CalibStats, gamma_low: float,
                   objective: str = OBJECTIVE_JOINT) -> tuple[float, float]:
    """Covariance weights (lambda_x, lambda_w).

    lambda_x = gamma_low * ||W||_F^2 scales the activation covariance and
    lambda_w = gamma_low * ||X||_F^2 the weight covariance; the single-sided
    objectives zero out the other term.
    """
    if gamma_low <= 0:
        raise ValueError("gamma_low must be > 0")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
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


# (dim, seed) or (dim,) -> read-only rotation, inside `shared_rotations()`
_shared: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "shared_rotations", default=None)


@contextlib.contextmanager
def shared_rotations():
    """Scope in which every internal rotation is computed once.

    Inside it, plans that ask for the same rotation (same size and seed, or
    the same Hadamard size) share one read-only array, bit-identical to a
    fresh one. The arrays are dropped when the scope exits; outside any
    scope each plan gets a fresh, writable rotation."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _internal_rotation(dim: int, seed: int, rotation: str) -> np.ndarray:
    if rotation not in ROTATIONS:
        raise ValueError(f"unknown rotation kind {rotation!r}")
    use_hadamard = rotation == ROTATION_HADAMARD and dim & (dim - 1) == 0
    memo = _shared.get()
    key = (dim,) if use_hadamard else (dim, seed)
    if memo is not None and key in memo:
        return memo[key]
    r = hadamard(dim) if use_hadamard else random_orthogonal(dim, seed)
    if memo is not None:
        r.flags.writeable = False
        memo[key] = r
    return r


def solve_partition(stats: CalibStats, rank: int, objective: str = OBJECTIVE_JOINT,
                    gamma_low: float = 1.0, seed: int = 0,
                    rotation: str = ROTATION_RANDOM) -> SubspacePartition:
    """Closed-form solve: p_h spans the top-`rank` eigenvectors of the mixed
    covariance; internal rotations are deterministic in (seed, rotation)."""
    d = stats.group.dim
    if not 1 <= rank < d:
        raise ValueError(f"rank must satisfy 1 <= r < d={d}, got {rank}")
    lx, lw = lambda_weights(stats, gamma_low, objective)
    m = lx * stats.sigma_x + lw * stats.sigma_w
    if np.max(np.abs(m)) == 0.0:
        raise NoSignalError("combined covariance matrix is zero")
    eig = sym_eig(m)
    p_h = eig.vectors[:, :rank].copy()
    p_l = eig.vectors[:, rank:].copy()
    r_h = _internal_rotation(rank, seed, rotation)
    r_l = _internal_rotation(d - rank, seed + 1, rotation)
    u = np.hstack([p_l @ r_l, p_h @ r_h])
    return SubspacePartition(p_h=p_h, p_l=p_l, r_h=r_h, r_l=r_l, u=u,
                             lambda_x=lx, lambda_w=lw, eigenvalues=eig.values)


def surrogate_objective(partition: SubspacePartition, stats: CalibStats) -> float:
    """Tr(p_h^T (lambda_x Sigma_X + lambda_w Sigma_W) p_h) - the quantity the
    closed form maximizes; equals the top-r eigenvalue sum at the optimum."""
    if partition.dim != stats.group.dim:
        raise DimensionMismatchError(
            f"partition dim {partition.dim} vs stats dim {stats.group.dim}")
    m = partition.lambda_x * stats.sigma_x + partition.lambda_w * stats.sigma_w
    return float(np.trace(partition.p_h.T @ m @ partition.p_h))


def full_objective(partition: SubspacePartition, stats: CalibStats,
                   gamma_low: float, gamma_high: float) -> float:
    """Pre-truncation objective including the quadratic cross-penalty term
    the surrogate drops; exposed to quantify the truncation gap."""
    if partition.dim != stats.group.dim:
        raise DimensionMismatchError(
            f"partition dim {partition.dim} vs stats dim {stats.group.dim}")
    if partition.rank == 0:
        return 0.0
    xh = float(np.trace(partition.p_h.T @ stats.sigma_x @ partition.p_h))
    wh = float(np.trace(partition.p_h.T @ stats.sigma_w @ partition.p_h))
    return (gamma_low * stats.energy_w * xh
            + gamma_low * stats.energy_x * wh
            - (gamma_low + gamma_high) * xh * wh)
