"""Mixed-precision plan execution and error analysis.

Quantization happens in the rotated basis: activations as X u, weights as
u^T W, each sliced into low/high blocks and quantized at its own bit-width.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calib import (
    ATTN_INPUT,
    CalibStats,
    ProjectionGroup,
    accumulate_activations,
    attach_weights,
)
from .errors import DimensionMismatchError
from .linalg import as_matrix
from .quantizer import (
    PER_CHANNEL,
    PER_TENSOR,
    PER_TOKEN,
    QuantSpec,
    combined_error_coeff,
    quantize,
)
from .solver import (
    OBJECTIVE_ACTIVATION,
    OBJECTIVE_JOINT,
    OBJECTIVE_WEIGHT,
    OBJECTIVES,
    ROTATION_RANDOM,
    SubspacePartition,
    shared_rotations,
    solve_partition,
)
from .synth import SyntheticInstanceSpec, generate_instance

# float64 bytes of one residual block in execute_plan, and its fewest rows:
# at large m a block of a few rows makes each product a poor GEMM
BLOCK_BYTES = 1 << 20
MIN_BLOCK_ROWS = 256


def default_activation_spec(bits: int) -> QuantSpec:
    return QuantSpec(bits=bits, symmetric=False, granularity=PER_TOKEN)


def default_weight_spec(bits: int) -> QuantSpec:
    return QuantSpec(bits=bits, symmetric=True, granularity=PER_CHANNEL)


def default_kv_spec(bits: int) -> QuantSpec:
    # plans are built per KV head, so one asymmetric (s, z) pair per rotated
    # slice realizes per-head asymmetric quantization of the cache
    return QuantSpec(bits=bits, symmetric=False, granularity=PER_TENSOR)


@dataclass(frozen=True)
class MixedPrecisionPlan:
    """Executable recipe: subspace partition plus the four quantizers.

    Any spec set to None bypasses quantization for that slice (used for
    full-precision reference runs)."""

    partition: SubspacePartition
    spec_low: QuantSpec | None
    spec_high: QuantSpec | None
    spec_low_w: QuantSpec | None
    spec_high_w: QuantSpec | None
    group: ProjectionGroup
    objective: str = OBJECTIVE_JOINT
    seed: int = 0
    rotation: str = ROTATION_RANDOM

    def __post_init__(self):
        if self.spec_low is not None and self.spec_high is not None:
            if self.spec_high.bits < self.spec_low.bits:
                raise ValueError("high-precision bits must be >= low-precision bits")

    @property
    def bits_low(self) -> int | None:
        return None if self.spec_low is None else self.spec_low.bits

    @property
    def bits_high(self) -> int | None:
        return None if self.spec_high is None else self.spec_high.bits


@dataclass(frozen=True)
class ErrorReport:
    group: str
    objective: str
    exact_error: float          # ||y_hat - y||_F^2
    predicted_error: float
    energy_x_low: float
    energy_x_high: float
    energy_w_low: float
    energy_w_high: float
    bits_low: int | None
    bits_high: int | None
    rank: int
    seed: int
    relative_reduction: float | None = None

    @property
    def exact_error_root(self) -> float:
        return float(np.sqrt(self.exact_error))

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "objective": self.objective,
            "exact_error": self.exact_error,
            "exact_error_root": self.exact_error_root,
            "predicted_error": self.predicted_error,
            "relative_reduction": self.relative_reduction,
            "energy_x_low": self.energy_x_low,
            "energy_x_high": self.energy_x_high,
            "energy_w_low": self.energy_w_low,
            "energy_w_high": self.energy_w_high,
            "bits_low": self.bits_low,
            "bits_high": self.bits_high,
            "rank": self.rank,
            "seed": self.seed,
        }


def _rotated(x: np.ndarray, w: np.ndarray, partition: SubspacePartition):
    """Validated (X, W) and the rotated A = X u, B = u^T W.

    A is column-major, so its low and high column blocks are contiguous and
    each per-token group reduces across contiguous columns."""
    x = as_matrix(x, "x")
    w = as_matrix(w, "w")
    d = partition.dim
    if x.shape[1] != d or w.shape[0] != d:
        raise DimensionMismatchError(
            f"x {x.shape} / w {w.shape} incompatible with partition dim {d}")
    return x, w, (partition.u.T @ x.T).T, partition.u.T @ w


def decompose(x: np.ndarray, w: np.ndarray, partition: SubspacePartition):
    """Split (X, W) into low/high rotated components (X_l, X_h, W_l, W_h),
    which are views of A = X u and B = u^T W."""
    _, _, a, b = _rotated(x, w, partition)
    k = partition.dim - partition.rank
    return a[:, :k], a[:, k:], b[:k], b[k:]


def predict_error(x_energies: tuple[float, float], w_energies: tuple[float, float],
                  bits_low: int, bits_high: int, dims: tuple[int, int]) -> float:
    """Analytic error model: sum over subspaces of gamma_k * ||X_k||^2 * ||W_k||^2."""
    (xl, xh), (wl, wh) = x_energies, w_energies
    if min(xl, xh, wl, wh) < 0:
        raise ValueError("energies must be >= 0")
    gl = combined_error_coeff(bits_low, dims[0])
    gh = combined_error_coeff(bits_high, dims[1])
    return gl * xl * wl + gh * xh * wh


def execute_plan(x: np.ndarray, w: np.ndarray,
                 plan: MixedPrecisionPlan) -> tuple[np.ndarray, ErrorReport]:
    """Run the two-subspace quantized matmul and measure the output error.

    Each quantized block is written back into A = X u or B = u^T W, so
    Y_hat = A B is one product, and ||XW - Y_hat||^2 is summed over blocks of
    rows in one reused buffer: Y_hat is the only n x m array allocated."""
    x, w, a, b = _rotated(x, w, plan.partition)
    d, r = plan.partition.dim, plan.partition.rank
    k = d - r
    ex = np.einsum("ij,ij->j", a, a)
    ew = np.einsum("ij,ij->i", b, b)
    exl, exh = float(ex[:k].sum()), float(ex[k:].sum())
    ewl, ewh = float(ew[:k].sum()), float(ew[k:].sum())
    for block, spec in ((a[:, :k], plan.spec_low), (a[:, k:], plan.spec_high),
                        (b[:k], plan.spec_low_w), (b[k:], plan.spec_high_w)):
        if spec is not None:
            block[...] = quantize(block, spec).dequantized
    y_hat = a @ b
    if plan.bits_low is not None and plan.bits_high is not None:
        predicted = predict_error((exl, exh), (ewl, ewh),
                                  plan.bits_low, plan.bits_high, (k, r))
    else:
        predicted = 0.0
    n, m = y_hat.shape
    rows = max(MIN_BLOCK_ROWS, BLOCK_BYTES // (8 * m))
    buf = np.empty((min(rows, n), m))
    exact = 0.0
    for lo in range(0, n, rows):
        resid = buf[:min(rows, n - lo)]
        np.matmul(x[lo:lo + rows], w, out=resid)
        resid -= y_hat[lo:lo + rows]
        exact += float(np.vdot(resid, resid))
    report = ErrorReport(
        group=plan.group.name or plan.group.kind,
        objective=plan.objective,
        exact_error=exact,
        predicted_error=predicted,
        energy_x_low=exl, energy_x_high=exh,
        energy_w_low=ewl, energy_w_high=ewh,
        bits_low=plan.bits_low, bits_high=plan.bits_high,
        rank=r, seed=plan.seed,
    )
    return y_hat, report


def build_plan(stats: CalibStats, rank: int, bits_low: int, bits_high: int,
               objective: str = OBJECTIVE_JOINT, seed: int = 0,
               rotation: str = ROTATION_RANDOM, bypass: bool = False,
               spec_low: QuantSpec | None = None,
               spec_high: QuantSpec | None = None,
               spec_low_w: QuantSpec | None = None,
               spec_high_w: QuantSpec | None = None) -> MixedPrecisionPlan:
    """Solve the partition for a group and attach quantizer specs (defaults:
    per-token asymmetric activations, per-channel symmetric weights)."""
    d = stats.group.dim
    gamma_low = combined_error_coeff(bits_low, d - rank)
    partition = solve_partition(stats, rank, objective=objective,
                                gamma_low=gamma_low, seed=seed, rotation=rotation)
    if bypass:
        specs = (None, None, None, None)
    else:
        specs = (spec_low or default_activation_spec(bits_low),
                 spec_high or default_activation_spec(bits_high),
                 spec_low_w or default_weight_spec(bits_low),
                 spec_high_w or default_weight_spec(bits_high))
    return MixedPrecisionPlan(partition=partition, spec_low=specs[0],
                              spec_high=specs[1], spec_low_w=specs[2],
                              spec_high_w=specs[3], group=stats.group,
                              objective=objective, seed=seed, rotation=rotation)


def stats_from_tensors(x: np.ndarray, w: np.ndarray,
                       name: str = "layer") -> CalibStats:
    """Single-layer statistics straight from an (X, W) pair."""
    x = as_matrix(x, "x")
    group = ProjectionGroup(kind=ATTN_INPUT, dim=x.shape[1], name=name)
    stats = accumulate_activations(CalibStats.empty(group), x)
    return attach_weights(stats, [w])


def analyze_layer(x: np.ndarray, w: np.ndarray, rank: int, bits_low: int,
                  bits_high: int, seed: int = 0,
                  rotation: str = ROTATION_RANDOM) -> list[ErrorReport]:
    """Compare the three subspace objectives on one isolated layer.

    Returns reports in the order (joint, activation-only, weight-only), each
    carrying its error reduction relative to the activation-only selection."""
    stats = stats_from_tensors(x, w)
    reports: dict[str, ErrorReport] = {}
    with shared_rotations():  # the three plans share (seed, rotation)
        for objective in (OBJECTIVE_JOINT, OBJECTIVE_ACTIVATION, OBJECTIVE_WEIGHT):
            plan = build_plan(stats, rank, bits_low, bits_high,
                              objective=objective, seed=seed, rotation=rotation)
            _, reports[objective] = execute_plan(x, w, plan)
    baseline = reports[OBJECTIVE_ACTIVATION].exact_error
    out = []
    for objective in OBJECTIVES:
        rep = reports[objective]
        red = 0.0 if baseline == 0.0 else 1.0 - rep.exact_error / baseline
        out.append(replace(rep, relative_reduction=red))
    return out


def campaign(spec: SyntheticInstanceSpec, instances: int, rank: int,
             bits_low: int, bits_high: int, seed0: int = 0,
             rotation: str = ROTATION_RANDOM) -> list[list[ErrorReport]]:
    """The objective ablation: `analyze_layer` on `instances` draws of `spec`.

    Draw k is `spec` with seed seed0 + k, which also seeds its plans' internal
    rotations. Returns one (joint, activation-only, weight-only) list per draw."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    runs = []
    for k in range(instances):
        inst = replace(spec, seed=seed0 + k)
        x, w = generate_instance(inst)
        runs.append(analyze_layer(x, w, rank, bits_low, bits_high,
                                  seed=inst.seed, rotation=rotation))
    return runs


def build_kv_plans(kv_stats: list[CalibStats], rank: int, bits_low: int,
                   bits_high: int, objective: str = OBJECTIVE_JOINT,
                   seed: int = 0, rotation: str = ROTATION_RANDOM) -> list[MixedPrecisionPlan]:
    """One plan per KV head; the cached tensor side quantizes asymmetrically
    over the whole head block, the counterpart uses the weight defaults."""
    if not kv_stats:
        raise ValueError("no per-head statistics supplied")
    with shared_rotations():  # every head shares (seed, rotation)
        return [build_plan(stats, rank, bits_low, bits_high, objective=objective,
                           seed=seed, rotation=rotation,
                           spec_low=default_kv_spec(bits_low),
                           spec_high=default_kv_spec(bits_high))
                for stats in kv_stats]
