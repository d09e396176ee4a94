"""Streaming accumulation of uncentered second-moment statistics per
projection group: activation covariance, fused weight covariance for layers
sharing an input, and the per-head KV-cache variants.

CalibStats values are immutable; accumulation returns a new value, so shards
can be processed concurrently and merged afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_matrix, frobenius_sq, gram_input, gram_weight

ATTN_INPUT = "attn-input"
MLP_INPUT = "mlp-input"
KV_VALUE = "kv-value"
KV_KEY = "kv-key"
GROUP_KINDS = (ATTN_INPUT, MLP_INPUT, KV_VALUE, KV_KEY)

# float64 bytes of one activation block in accumulation; a block still has at
# least d rows, because each block adds a fresh d x d Gram to the running sum
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ProjectionGroup:
    """One set of linear layers sharing an input space of dimension `dim`."""

    kind: str
    dim: int
    name: str = ""
    member_shapes: tuple[tuple[int, int], ...] = ()
    head_dim: int | None = None
    head_index: int | None = None

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("group dim must be >= 1")
        for shape in self.member_shapes:
            if shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"member shape {shape} does not share leading dim {self.dim}")
        if self.kind in (KV_VALUE, KV_KEY) and self.head_dim is None:
            object.__setattr__(self, "head_dim", self.dim)

    def to_json(self) -> dict:
        d = {"kind": self.kind, "dim": self.dim, "name": self.name,
             "member_shapes": [list(s) for s in self.member_shapes]}
        if self.head_dim is not None:
            d["head_dim"] = self.head_dim
        if self.head_index is not None:
            d["head_index"] = self.head_index
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ProjectionGroup":
        return cls(kind=d["kind"], dim=d["dim"], name=d.get("name", ""),
                   member_shapes=tuple(tuple(s) for s in d.get("member_shapes", [])),
                   head_dim=d.get("head_dim"), head_index=d.get("head_index"))


@dataclass(frozen=True)
class CalibStats:
    """Accumulated statistics for one projection group."""

    group: ProjectionGroup
    sigma_x: np.ndarray
    sigma_w: np.ndarray
    energy_x: float
    energy_w: float
    tokens_seen: int

    @classmethod
    def empty(cls, group: ProjectionGroup) -> "CalibStats":
        z = np.zeros((group.dim, group.dim))
        return cls(group=group, sigma_x=z, sigma_w=z.copy(),
                   energy_x=0.0, energy_w=0.0, tokens_seen=0)


def accumulate_activations(stats: CalibStats, batch: np.ndarray) -> CalibStats:
    """Fold one n x d activation batch into the running statistics.

    `batch` may be any 2-d float32/float64 array, a memory-mapped one
    included. It is walked in blocks of rows, each converted to float64 and
    validated once (by `gram_input`), so the batch is never copied whole."""
    batch = np.asarray(batch)
    if batch.ndim != 2:
        raise DimensionMismatchError(f"batch must be 2-d, got shape {batch.shape}")
    n, d = batch.shape
    if d != stats.group.dim:
        raise DimensionMismatchError(
            f"batch has {d} columns, group dim is {stats.group.dim}")
    if n < 1:
        raise DimensionMismatchError("empty activation batch")
    rows = max(d, BLOCK_BYTES // (8 * d))
    sigma, energy = stats.sigma_x.copy(), stats.energy_x
    for lo in range(0, n, rows):
        g = gram_input(np.asarray(batch[lo:lo + rows], dtype=np.float64))
        sigma += g
        energy += float(np.trace(g))
    return replace(stats, sigma_x=sigma, energy_x=energy,
                   tokens_seen=stats.tokens_seen + n)


def fuse_weight_covariance(weights: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Sum of W_i W_i^T and of ||W_i||_F^2 over layers sharing an input."""
    if not weights:
        raise DimensionMismatchError("empty weight list")
    mats = [as_matrix(w, f"weights[{i}]") for i, w in enumerate(weights)]
    d = mats[0].shape[0]
    for i, w in enumerate(mats):
        if w.shape[0] != d:
            raise DimensionMismatchError(
                f"weights[{i}] has leading dim {w.shape[0]}, expected {d}")
    sigma = np.zeros((d, d))
    energy = 0.0
    for w in mats:
        sigma += gram_weight(w)
        energy += frobenius_sq(w)
    return sigma, energy


def attach_weights(stats: CalibStats, weights: list[np.ndarray]) -> CalibStats:
    """Set the fused weight covariance of a group from its member weights."""
    sigma, energy = fuse_weight_covariance(weights)
    if sigma.shape[0] != stats.group.dim:
        raise DimensionMismatchError(
            f"fused covariance dim {sigma.shape[0]} vs group dim {stats.group.dim}")
    return replace(stats, sigma_w=sigma, energy_w=energy)


def merge(a: CalibStats, b: CalibStats) -> CalibStats:
    """Field-wise sum of two shards of the same group."""
    if a.group.dim != b.group.dim or a.group.kind != b.group.kind:
        raise DimensionMismatchError("cannot merge stats of different groups")
    return replace(
        a,
        sigma_x=a.sigma_x + b.sigma_x,
        sigma_w=a.sigma_w + b.sigma_w,
        energy_x=a.energy_x + b.energy_x,
        energy_w=a.energy_w + b.energy_w,
        tokens_seen=a.tokens_seen + b.tokens_seen,
    )


def kv_value_stats(v_tokens: np.ndarray, w_o_head: np.ndarray,
                   head_index: int = 0, name: str = "") -> CalibStats:
    """Value-cache statistics for one KV head: the cached V tokens play the
    activation role, the head's slice of the output projection the weight role."""
    v = as_matrix(v_tokens, "v_tokens")
    w = as_matrix(w_o_head, "w_o_head")
    hd = v.shape[1]
    if w.shape[0] != hd:
        raise DimensionMismatchError(
            f"w_o_head leading dim {w.shape[0]} vs head_dim {hd}")
    group = ProjectionGroup(kind=KV_VALUE, dim=hd, name=name,
                            member_shapes=(tuple(w.shape),),
                            head_dim=hd, head_index=head_index)
    return CalibStats(group=group, sigma_x=gram_input(v), sigma_w=gram_weight(w),
                      energy_x=frobenius_sq(v), energy_w=frobenius_sq(w),
                      tokens_seen=v.shape[0])


def kv_key_stats(k_tokens: np.ndarray, q_tokens: np.ndarray,
                 head_index: int = 0, name: str = "") -> CalibStats:
    """Key-cache statistics for one KV head: the query states act as dynamic
    weights. Both K and Q must already carry their rotary embedding."""
    k = as_matrix(k_tokens, "k_tokens")
    q = as_matrix(q_tokens, "q_tokens")
    hd = k.shape[1]
    if q.shape[1] != hd:
        raise DimensionMismatchError(
            f"q_tokens head_dim {q.shape[1]} vs k_tokens head_dim {hd}")
    group = ProjectionGroup(kind=KV_KEY, dim=hd, name=name,
                            head_dim=hd, head_index=head_index)
    return CalibStats(group=group, sigma_x=gram_input(k), sigma_w=gram_input(q),
                      energy_x=frobenius_sq(k), energy_w=frobenius_sq(q),
                      tokens_seen=k.shape[0])
