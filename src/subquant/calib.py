"""Streaming accumulation of uncentered second-moment statistics per
projection group: activation covariance, and fused weight covariance for
layers sharing an input.

CalibStats values are immutable; accumulation returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import Checked, DimensionMismatchError, check_fields, is_int, is_real
from .linalg import as_matrix, gram_input, gram_weight, row_blocks

ATTN_INPUT = "attn-input"
MLP_INPUT = "mlp-input"
GROUP_KINDS = (ATTN_INPUT, MLP_INPUT)


@dataclass(frozen=True)
class ProjectionGroup(Checked):
    """One set of linear layers sharing an input space of dimension `dim`."""

    kind: str
    dim: int
    name: str

    def __post_init__(self):
        check_fields(self, (
            ("kind", lambda v: v in GROUP_KINDS, f"one of {GROUP_KINDS}"),
            ("dim", lambda v: is_int(v, 1), "an int >= 1"),
            ("name", lambda v: isinstance(v, str) and v != "", "a non-empty string"),
        ))


@dataclass(frozen=True)
class CalibStats(Checked):
    """Accumulated statistics for one projection group."""

    group: ProjectionGroup
    sigma_x: np.ndarray
    sigma_w: np.ndarray
    energy_x: float
    energy_w: float
    tokens_seen: int

    def __post_init__(self):
        energy = (lambda v: is_real(v, 0.0), "a finite number >= 0")
        check_fields(self, (
            ("energy_x", *energy),
            ("energy_w", *energy),
            ("tokens_seen", lambda v: is_int(v, 0), "an int >= 0"),
        ))

    @classmethod
    def empty(cls, group: ProjectionGroup) -> "CalibStats":
        z = np.zeros((group.dim, group.dim))
        return cls(group=group, sigma_x=z, sigma_w=z.copy(),
                   energy_x=0.0, energy_w=0.0, tokens_seen=0)


# an energy that overflows is reported by CalibStats' check, not warned of
@np.errstate(over="ignore", invalid="ignore")
def accumulate_activations(stats: CalibStats, batch: np.ndarray) -> CalibStats:
    """Fold one n x d activation batch into the running statistics.

    `batch` may be any 2-d float32/float64 array, a memory-mapped one
    included. It is walked in blocks of rows, each converted to float64 and
    validated once by `gram_input`, so the batch is never copied whole."""
    d = stats.group.dim
    sigma, energy = stats.sigma_x.copy(), stats.energy_x
    for block in row_blocks(batch, d, d, gram=True):
        g = gram_input(block)
        sigma += g
        energy += float(np.trace(g))
    return replace(stats, sigma_x=sigma, energy_x=energy,
                   tokens_seen=stats.tokens_seen + len(batch))


@np.errstate(over="ignore", invalid="ignore")  # as accumulate_activations
def attach_weights(stats: CalibStats, weights: list[np.ndarray]) -> CalibStats:
    """Set the fused weight covariance of a group, the sum of W_i W_i^T, and
    its energy, the sum of ||W_i||_F^2, from its member weights. An error
    about a member names it weights[i], and holds i as `.member`."""
    if not weights:
        raise DimensionMismatchError("empty weight list")
    d = stats.group.dim
    sigma, energy = np.zeros((d, d)), 0.0
    for i, w in enumerate(weights):
        try:
            w = as_matrix(w, f"weights[{i}]")
            if w.shape[0] != d:
                raise DimensionMismatchError(
                    f"weights[{i}] has leading dim {w.shape[0]}, group dim is {d}")
            sigma += gram_weight(w)
        except ValueError as e:
            e.member = i
            raise
        energy += float(np.vdot(w, w))
    return replace(stats, sigma_w=sigma, energy_w=energy)
