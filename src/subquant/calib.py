"""Streaming accumulation of uncentered second-moment statistics per
projection group: activation covariance, and fused weight covariance for
layers sharing an input.

`calibrate` is the one place a CalibStats is built from arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DIM_FITS, Checked, bad_squares, check_fields, is_int, is_real
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


# an overflow is reported as ArithmeticError, not warned of
@np.errstate(over="ignore", invalid="ignore")
def _fold(sigma: np.ndarray, energy: float, rows, name: str) -> float:
    """Add R^T R to the float64 `sigma` in place and return energy +
    trace(R^T R), for the rows R of `rows`, any 2-d float32/float64 array
    with sigma's width, a mapped one included. It is walked in
    `row_blocks`, so it is never copied whole. Each block's Gram is formed
    by `gram_input` in the block's precision (float32, within its gamma_k
    bound, or else float64) and added in float64. (R^T R)_ii = sum_k r_ki^2
    has no cancellation, so it is finite exactly when column i of R is
    finite and its square sum does not overflow the Gram's dtype. So a
    non-finite energy rejects the block before it is added (`bad_squares`)."""
    for block in row_blocks(rows, len(sigma), len(sigma), gram=True):
        g = gram_input(block)
        energy += float(np.trace(g, dtype=np.float64))
        if not np.isfinite(energy):
            raise bad_squares(block, name, g.dtype)
        sigma += g
        del g  # else it is held while the next block's Gram is formed
    return energy


def calibrate(group: ProjectionGroup, activations, weights) -> CalibStats:
    """Sigma_X = sum X^T X over the n x d batches of `activations` and the
    fused Sigma_W = sum W W^T over the d x m members of `weights`, W^T (a
    view) folded as a batch is, with their energies. Each is an iterable of
    2-d arrays read lazily, so a mapped file can be opened on its turn and
    dropped once folded. Both sums are allocated once and folded into in
    place: 2 d x d held. Once a row block is d rows (d >= 512), a block
    adds its Gram, d x d in its own precision, and an aligned copy of itself
    if it is unaligned (a file the package wrote is not): a float32 input
    peaks at 2.5 d x d and a float64 one at 3."""
    d = group.dim
    sigma_x, sigma_w = np.zeros((d, d)), np.zeros((d, d))
    energy_x, energy_w, tokens = 0.0, 0.0, 0
    for x in activations:
        energy_x = _fold(sigma_x, energy_x, x, "x")
        tokens += len(x)
        del x  # a mapped file is released before the next is mapped
    for w in weights:
        w = np.asarray(w)
        if w.ndim != 2 or w.shape[0] != d:
            raise ValueError(
                f"w must be 2-d with {d} rows, got shape {w.shape}")
        energy_w = _fold(sigma_w, energy_w, w.T, "w")
        del w
    return CalibStats(group=group, sigma_x=sigma_x, sigma_w=sigma_w,
                      energy_x=energy_x, energy_w=energy_w, tokens_seen=tokens)
