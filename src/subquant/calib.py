"""Streaming accumulation of uncentered second-moment statistics per
projection group: activation covariance, and fused weight covariance for
layers sharing an input.

CalibStats values are immutable; accumulation returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DIM_FITS, Checked, DimensionMismatchError, ScaleRangeError, check_fields, is_int,
    is_real)
from .linalg import gram_input, row_blocks

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
            ("dim", *DIM_FITS),
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
        d = self.group.dim
        # a Gram's diagonal is never negative; this checks O(d) entries
        gram = (lambda v: np.shape(v) == (d, d) and bool(np.all(np.diagonal(v) >= 0)),
                f"a {d} x {d} matrix whose diagonal is >= 0")
        energy = (lambda v: is_real(v, 0.0), "a finite number >= 0")
        check_fields(self, (
            ("sigma_x", *gram),
            ("sigma_w", *gram),
            ("energy_x", *energy),
            ("energy_w", *energy),
            ("tokens_seen", lambda v: is_int(v, 0), "an int >= 0"),
        ))

    @classmethod
    def empty(cls, group: ProjectionGroup) -> "CalibStats":
        z = np.zeros((group.dim, group.dim))
        return cls(group=group, sigma_x=z, sigma_w=z.copy(),
                   energy_x=0.0, energy_w=0.0, tokens_seen=0)


# an overflow is reported as ScaleRangeError, not warned of
@np.errstate(over="ignore", invalid="ignore")
def _fold(sigma: np.ndarray, energy: float, rows, name: str) -> tuple[np.ndarray, float]:
    """sigma + R^T R and energy + trace(R^T R) for the rows R of `rows`, any
    2-d float32/float64 array with sigma's width, a mapped one included. It
    is walked in `row_blocks`, each converted to float64 once by `gram_input`,
    so it is never copied whole. (R^T R)_ii = sum_k r_ki^2 has no
    cancellation, so it is finite exactly when column i of R is finite and
    its square sum does not overflow. A non-finite diagonal rejects the
    block: ValueError if it holds NaN or +-inf, else ScaleRangeError, as is
    an energy that overflows."""
    d = len(sigma)
    sigma = sigma.copy()
    for block in row_blocks(rows, d, d, gram=True):
        g = gram_input(block)
        energy += float(np.trace(g))
        if not np.isfinite(energy):  # a NaN or inf diagonal makes it so
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{name} contains non-finite entries")
            raise ScaleRangeError(f"the sum of {name}'s squares overflows float64")
        sigma += g
    return sigma, energy


def accumulate_activations(stats: CalibStats, batch) -> CalibStats:
    """Fold an n x d activation batch into Sigma_X = sum X^T X and its energy."""
    sigma, energy = _fold(stats.sigma_x, stats.energy_x, batch, "x")
    return replace(stats, sigma_x=sigma, energy_x=energy,
                   tokens_seen=stats.tokens_seen + len(batch))


def accumulate_weights(stats: CalibStats, w) -> CalibStats:
    """Fold one d x m member weight into the fused Sigma_W = sum W W^T and its
    energy: W W^T is the Gram of W^T's rows, so W^T, a view, is folded as a
    batch is."""
    w, d = np.asarray(w), stats.group.dim
    if w.ndim != 2 or w.shape[0] != d:
        raise DimensionMismatchError(f"w must be 2-d with {d} rows, got shape {w.shape}")
    sigma, energy = _fold(stats.sigma_w, stats.energy_w, w.T, "w")
    return replace(stats, sigma_w=sigma, energy_w=energy)
