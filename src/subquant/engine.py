"""Mixed-precision plan execution and error analysis.

Quantization happens in the rotated basis: activations as X u, weights as
u^T W, each sliced into low/high blocks and quantized at its own bit-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .calib import (
    ATTN_INPUT,
    CalibStats,
    ProjectionGroup,
    accumulate_activations,
    attach_weights,
)
from .errors import (
    Checked,
    DimensionMismatchError,
    ScaleRangeError,
    check,
    check_fields,
    is_int,
    is_real,
)
from .linalg import as_matrix
from .quantizer import BITS, combined_error_coeff, quantize
from .solver import (
    OBJECTIVE_ACTIVATION,
    OBJECTIVE_JOINT,
    OBJECTIVE_WEIGHT,
    OBJECTIVE,
    OBJECTIVES,
    ROTATION_RANDOM,
    SEED,
    SubspacePartition,
    rank_rule,
    shared_rotations,
    solve_partition,
)
from .synth import SyntheticInstanceSpec, generate_instance

# float64 bytes of one error block in the row-block form, and its fewest rows:
# at large m a block of a few rows makes each product a poor GEMM
BLOCK_BYTES = 1 << 20
MIN_BLOCK_ROWS = 256


def bit_widths(obj) -> tuple:
    """The rules of the `bits_low`/`bits_high` pair of `obj`: two bit-widths,
    the low one at most the high one."""
    return (("bits_low", *BITS), ("bits_high", *BITS),
            ("bits_low", lambda v: v <= obj.bits_high,
             f"at most bits_high ({obj.bits_high!r})"))


def check_bit_widths(bits_low: int, bits_high: int) -> None:
    """Check the `bit_widths` rules on a pair before any work is spent on it."""
    pair = SimpleNamespace(bits_low=bits_low, bits_high=bits_high)
    check_fields(pair, bit_widths(pair))


@dataclass(frozen=True)
class MixedPrecisionPlan(Checked):
    """Executable recipe: a subspace partition and the bit-widths of its two
    blocks. Within a block, activations and weights share the bit-width, in
    the one scheme the error model covers: activations asymmetric with one
    group per token, weights symmetric with one group per output channel."""

    partition: SubspacePartition
    bits_low: int
    bits_high: int
    group: ProjectionGroup
    objective: str = OBJECTIVE_JOINT

    def __post_init__(self):
        dim = self.group.dim
        check("partition", self.partition.dim, lambda v: v == dim,
              f"of the group's dim ({dim})", DimensionMismatchError)
        check_fields(self, bit_widths(self) + (("objective", *OBJECTIVE),))


@dataclass(frozen=True)
class ErrorReport(Checked):
    """One row of a report. Its fields, in order, are the report's columns."""

    group: str
    objective: str
    exact_error: float          # ||y_hat - y||_F^2
    predicted_error: float
    relative_reduction: float | None
    energy_x_low: float
    energy_x_high: float
    energy_w_low: float
    energy_w_high: float
    bits_low: int
    bits_high: int
    rank: int
    seed: int

    def __post_init__(self):
        energy = (lambda v: is_real(v, 0.0), "a finite number >= 0")
        check_fields(self, (
            ("group", lambda v: isinstance(v, str), "a string"),
            ("objective", *OBJECTIVE),
            ("exact_error", *energy), ("predicted_error", *energy),
            ("relative_reduction", lambda v: v is None or is_real(v),
             "null or a finite number"),
            ("energy_x_low", *energy), ("energy_x_high", *energy),
            ("energy_w_low", *energy), ("energy_w_high", *energy),
            *bit_widths(self),
            ("rank", lambda v: is_int(v, 1), "an int >= 1"),
            ("seed", *SEED),
        ))


def _quantized(x: np.ndarray, w: np.ndarray, plan: MixedPrecisionPlan,
               errors: bool):
    """Rotate (X, W) to A = X u and B = u^T W, then quantize each block of
    A and B in place, giving A_hat and B_hat.

    A row of A is a token, quantized asymmetrically; a row of B^T, a
    transposed view of B, is an output channel, quantized symmetrically.
    Returns L, R and the block energies ((x_low, x_high), (w_low, w_high))
    of A and B. L is column-major, so each column block is contiguous and
    each token reduces across contiguous columns. With `errors`,
    L = [dA | A_hat] (n x 2d) and R = [B_hat; dB] (2d x m) also hold the
    quantization errors dA = A - A_hat and dB = B - B_hat; without, L = A_hat
    and R = B_hat."""
    d, k = plan.partition.dim, plan.partition.dim - plan.partition.rank
    u = plan.partition.u
    h = 2 if errors else 1
    l = np.empty((x.shape[0], h * d), order="F")
    r = np.empty((h * d, w.shape[1]))
    a, b = l[:, -d:], r[:d]
    np.matmul(u.T, x.T, out=a.T)
    np.matmul(u.T, w, out=b)
    ex = np.einsum("ij,ij->j", a, a)
    ew = np.einsum("ij,ij->i", b, b)
    da, dbt = (l[:, :d], r[d:].T) if errors else (None, None)
    for mat, err, symmetric in ((a, da, False), (b.T, dbt, True)):
        for cols, bits in ((np.s_[:, :k], plan.bits_low),
                           (np.s_[:, k:], plan.bits_high)):
            block = mat[cols]
            q = quantize(block, bits, symmetric).dequantized
            if errors:
                np.subtract(block, q, out=err[cols])
            block[...] = q
    energies = ((float(ex[:k].sum()), float(ex[k:].sum())),
                (float(ew[:k].sum()), float(ew[k:].sum())))
    return l, r, energies


def use_gram_form(n: int, d: int, m: int) -> bool:
    """Whether ||X W - A_hat B_hat||^2 costs less from 2d x 2d Grams, about
    4 d^2 (n + m) multiply-adds, than from row blocks, about 2 n d m."""
    return 2 * d * (n + m) < n * m


# an overflow is reported by the finite check on the measurement, not warned of
@np.errstate(over="ignore", invalid="ignore")
def _measure(x: np.ndarray, w: np.ndarray, plan: MixedPrecisionPlan,
             output: bool) -> tuple[np.ndarray | None, ErrorReport]:
    """The report of `plan` on (X, W) and, when `output`, Y_hat = A_hat B_hat.

    exact_error is ||E||^2 for E = X W - A_hat B_hat, in one of two forms
    chosen by shape (`use_gram_form`). Neither allocates an n x m array
    besides Y_hat:
      - Gram: E = A B - A_hat B_hat = dA B + A_hat dB (X W = A B, u being
        orthogonal; B = B_hat + dB), from the 2d x 2d Grams of
        L = [dA | A_hat] and R = [B_hat; dB];
      - row blocks: ||X_b W - A_hat_b B_hat||^2 summed over blocks of rows
        in one reused buffer; A_hat_b B_hat goes into Y_hat's rows, or into
        a second reused buffer.
    An error, predicted error or energy that over- or underflows float64
    raises ScaleRangeError."""
    x = as_matrix(x, "x")
    w = as_matrix(w, "w")
    d = plan.partition.dim
    if x.shape[1] != d or w.shape[0] != d:
        raise DimensionMismatchError(
            f"x {x.shape} / w {w.shape} incompatible with partition dim {d}")
    n, m = x.shape[0], w.shape[1]
    gram = use_gram_form(n, d, m)
    l, r, (ex, ew) = _quantized(x, w, plan, errors=gram)
    a_hat, b_hat = l[:, -d:], r[:d]
    y_hat = None
    if gram:
        # [B; dB] = T R with T = [[I, I], [0, I]], so ||E||^2 = ||L T R||^2
        # = <L^T L, T (R R^T) T^T>: add R R^T's second block row and column
        # to its first
        g = r @ r.T
        g[:d] += g[d:]
        g[:, :d] += g[:, d:]
        # a sum of squares that rounding may take just below 0
        exact = max(float(np.vdot(l.T @ l, g)), 0.0)
    else:
        rows = max(MIN_BLOCK_ROWS, BLOCK_BYTES // (8 * m))
        e = np.empty((min(rows, n), m))
        y = np.empty((n, m)) if output else np.empty_like(e)
        exact = 0.0
        for lo in range(0, n, rows):
            e_b = e[:min(rows, n - lo)]
            y_b = y[lo:lo + rows] if output else y[:len(e_b)]
            np.matmul(x[lo:lo + rows], w, out=e_b)
            np.matmul(a_hat[lo:lo + rows], b_hat, out=y_b)
            e_b -= y_b
            exact += float(np.vdot(e_b, e_b))
        y_hat = y if output else None
    if output and y_hat is None:  # one product, formed after measuring
        y_hat = a_hat @ b_hat
    r_high = plan.partition.rank
    predicted = predict_error(ex, ew, plan.bits_low, plan.bits_high,
                              (d - r_high, r_high))
    if not all(math.isfinite(v) for v in (exact, predicted, *ex, *ew)):
        raise ScaleRangeError(f"measuring group {plan.group.name or plan.group.kind!r} "
                              f"overflows float64: error {exact!r}, predicted "
                              f"{predicted!r}, energies x {ex}, w {ew}")
    report = ErrorReport(
        group=plan.group.name or plan.group.kind,
        objective=plan.objective,
        exact_error=exact,
        predicted_error=predicted,
        relative_reduction=None,
        energy_x_low=ex[0], energy_x_high=ex[1],
        energy_w_low=ew[0], energy_w_high=ew[1],
        bits_low=plan.bits_low, bits_high=plan.bits_high,
        rank=r_high, seed=plan.partition.seed,
    )
    return y_hat, report


def predict_error(x_energies: tuple[float, float], w_energies: tuple[float, float],
                  bits_low: int, bits_high: int, dims: tuple[int, int]) -> float:
    """Analytic error model: sum over subspaces of gamma_k * ||X_k||^2 * ||W_k||^2."""
    (xl, xh), (wl, wh) = x_energies, w_energies
    if min(xl, xh, wl, wh) < 0:
        raise ValueError("energies must be >= 0")
    gl = combined_error_coeff(bits_low, dims[0])
    gh = combined_error_coeff(bits_high, dims[1])
    return gl * xl * wl + gh * xh * wh


def measure_plan(x: np.ndarray, w: np.ndarray,
                 plan: MixedPrecisionPlan) -> ErrorReport:
    """The error report of the two-subspace quantized matmul, without forming
    its n x m output."""
    return _measure(x, w, plan, output=False)[1]


def execute_plan(x: np.ndarray, w: np.ndarray,
                 plan: MixedPrecisionPlan) -> tuple[np.ndarray, ErrorReport]:
    """Run the two-subspace quantized matmul: Y_hat = A_hat B_hat, and the
    report `measure_plan` gives, bit for bit."""
    return _measure(x, w, plan, output=True)


def build_plan(stats: CalibStats, rank: int, bits_low: int, bits_high: int,
               objective: str = OBJECTIVE_JOINT, seed: int = 0,
               rotation: str = ROTATION_RANDOM) -> MixedPrecisionPlan:
    """Solve the partition of a group for its low block's bit-width, and
    pair it with the two bit-widths."""
    d = stats.group.dim
    check("rank", rank, *rank_rule(d))
    check_bit_widths(bits_low, bits_high)
    gamma_low = combined_error_coeff(bits_low, d - rank)
    partition = solve_partition(stats, rank, objective=objective,
                                gamma_low=gamma_low, seed=seed, rotation=rotation)
    return MixedPrecisionPlan(partition=partition, bits_low=bits_low,
                              bits_high=bits_high, group=stats.group,
                              objective=objective)


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
            reports[objective] = measure_plan(x, w, plan)
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
    check_bit_widths(bits_low, bits_high)
    runs = []
    for k in range(instances):
        inst = replace(spec, seed=seed0 + k)
        x, w = generate_instance(inst)
        runs.append(analyze_layer(x, w, rank, bits_low, bits_high,
                                  seed=inst.seed, rotation=rotation))
    return runs


def summarize(runs: list[list[ErrorReport]]) -> dict:
    """The summary of `campaign`'s runs: their count, the share in which
    joint's error is at most each baseline's, and the mean and median of
    joint's relative reduction."""
    joint, act, weight = zip(*runs)
    reductions = [j.relative_reduction for j in joint]
    wins = lambda base: float(np.mean([j.exact_error <= b.exact_error
                                       for j, b in zip(joint, base)]))
    return {"instances": len(runs), "win_rate_vs_activation": wins(act),
            "win_rate_vs_weight": wins(weight),
            "mean_relative_reduction": float(np.mean(reductions)),
            "median_relative_reduction": float(np.median(reductions))}
