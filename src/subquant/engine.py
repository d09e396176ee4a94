"""Mixed-precision plan execution and error analysis.

Quantization happens in the rotated basis: activations as X u, weights as
u^T W, each sliced into low/high blocks and quantized at its own bit-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .calib import ATTN_INPUT, CalibStats, ProjectionGroup, calibrate
from .errors import (
    SEED,
    Checked,
    DimensionMismatchError,
    ScaleRangeError,
    check,
    bad_squares,
    check_fields,
    is_int,
    is_real,
)
from .linalg import row_blocks
from .quantizer import BITS, combined_error_coeff, quantize
from .solver import (
    OBJECTIVE_ACTIVATION,
    OBJECTIVE_JOINT,
    OBJECTIVE_WEIGHT,
    OBJECTIVE,
    OBJECTIVES,
    ROTATION_RANDOM,
    SubspacePartition,
    rank_rule,
    solve_partition,
)
from .synth import SyntheticInstanceSpec, generate_instance


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

    def __post_init__(self):
        dim = self.group.dim
        check("partition", self.partition.dim, lambda v: v == dim,
              f"of the group's dim ({dim})", DimensionMismatchError)
        check_fields(self, bit_widths(self))

    @property
    def objective(self) -> str:
        """The objective the partition's covariance weights solve: a zero
        lambda_w is activation-only, a zero lambda_x weight-only, else joint."""
        p = self.partition
        return (OBJECTIVE_ACTIVATION if p.lambda_w == 0
                else OBJECTIVE_WEIGHT if p.lambda_x == 0 else OBJECTIVE_JOINT)


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


def _quantize_columns(mat: np.ndarray, err: np.ndarray | None, k: int,
                      plan: MixedPrecisionPlan, symmetric: bool) -> None:
    """Quantize the low (first k) and high column blocks of `mat` in place at
    the plan's bit-widths, a row being a group; with `err`, store the error."""
    for cols, bits in ((np.s_[:, :k], plan.bits_low),
                       (np.s_[:, k:], plan.bits_high)):
        block = mat[cols]
        q = quantize(block, bits, symmetric).dequantized
        if err is not None:
            np.subtract(block, q, out=err[cols])
        block[...] = q


def use_gram_form(n: int, d: int, m: int) -> bool:
    """Whether to measure ||X W - A_hat B_hat||^2 from 2d x 2d Grams, which
    numpy forms as symmetric rank-k updates (about 2 d^2 (n + m) multiply-
    adds), rather than from row blocks (2 n d m). `execute_plan` also forms
    Y_hat (n d m) in either form, so this rule is its break-even."""
    return 2 * d * (n + m) < n * m


# an overflow is reported by the finite check on the measurement, not warned of
@np.errstate(over="ignore", invalid="ignore")
def _measure(x: np.ndarray, w: np.ndarray, plan: MixedPrecisionPlan,
             output: bool) -> tuple[np.ndarray | None, ErrorReport]:
    """The report of `plan` on (X, W) and, when `output`, Y_hat = A_hat B_hat.

    B = u^T W is quantized once, a row of B^T (a transposed view) being an
    output channel. X, a mapped array included, is read in one pass over row
    blocks, each converted to float64, rotated to A_b = X_b u in a reused
    column-major buffer and quantized, a row (token) reducing across
    contiguous columns. X and W are validated through their rotated
    energies, and scanned only to name the error (`errors.bad_squares`).

    exact_error is ||E||^2 for E = X W - A_hat B_hat, in one of two forms
    chosen by shape (`use_gram_form`). Neither holds an n-row array besides
    Y_hat, which gets A_hat_b B_hat in its rows:
      - Gram: E = A B - A_hat B_hat = dA B + A_hat dB (X W = A B, u being
        orthogonal), from the Gram of R = [B_hat; dB] and the summed Grams
        of L_b = [dA_b | A_hat_b], all 2d x 2d;
      - row blocks: ||X_b W - A_hat_b B_hat||^2 summed, in reused buffers.
    An error, predicted error or energy that over- or underflows float64
    raises ScaleRangeError."""
    w = np.require(w, np.float64, "A")  # aligned: see linalg.sym_eig
    d = plan.partition.dim
    if w.ndim != 2 or w.shape[0] != d:
        raise DimensionMismatchError(
            f"w {w.shape} incompatible with partition dim {d}")
    x, m = np.asarray(x), w.shape[1]
    # widest buffer: L_b (2d columns, each block adding a fresh 2d x 2d Gram),
    # or X_b W (m) and A_b (d); an X that is not 2-d is left to `row_blocks`
    gram = x.ndim == 2 and use_gram_form(len(x), d, m)
    blocks = row_blocks(x, d, 2 * d if gram else max(d, m), gram)
    n, k = len(x), d - plan.partition.rank
    r = np.empty((2 * d if gram else d, m))
    b_hat = r[:d]
    plan.partition.rotate_t(w, b_hat)
    ew = np.einsum("ij,ij->i", b_hat, b_hat)
    if not np.isfinite(ew).all():
        raise bad_squares(w, "w", "float64", rotated=True)
    _quantize_columns(b_hat.T, r[d:].T if gram else None, k, plan, symmetric=True)
    l = np.empty((len(blocks[0]), len(r)), order="F")
    # Y_hat, or the row form's scratch block for A_hat_b B_hat
    y = np.empty((n, m)) if output else None if gram else np.empty((len(l), m))
    gl = np.zeros((2 * d, 2 * d)) if gram else None
    e = None if gram else np.empty((len(l), m))  # X_b W
    ex, exact = np.zeros(d), 0.0
    for lo, x_b in zip(range(0, n, len(l)), blocks):
        x_b = np.require(x_b, np.float64, "A")
        t = len(x_b)
        l_b = l[:t]
        a = l_b[:, -d:]
        plan.partition.rotate_t(x_b.T, a.T)
        ex += np.einsum("ij,ij->j", a, a)
        if not np.isfinite(ex).all():
            raise bad_squares(x_b, "x", "float64", rotated=True)
        _quantize_columns(a, l_b[:, :d] if gram else None, k, plan, symmetric=False)
        if y is not None:
            y_b = np.matmul(a, b_hat, out=y[lo:lo + t] if output else y[:t])
        if gram:
            gl += l_b.T @ l_b
        else:
            e_b = np.matmul(x_b, w, out=e[:t])
            e_b -= y_b
            exact += float(np.vdot(e_b, e_b))
    if gram:
        # [B; dB] = T R with T = [[I, I], [0, I]], so ||E||^2 = ||L T R||^2
        # = <L^T L, T (R R^T) T^T>: add R R^T's second block row and column
        # to its first
        g = r @ r.T
        g[:d] += g[d:]
        g[:, :d] += g[:, d:]
        # a sum of squares that rounding may take just below 0
        exact = max(float(np.vdot(gl, g)), 0.0)
    ex, ew = ((float(v[:k].sum()), float(v[k:].sum())) for v in (ex, ew))
    predicted = predict_error(ex, ew, plan.bits_low, plan.bits_high, (k, d - k))
    if not all(math.isfinite(v) for v in (exact, predicted, *ex, *ew)):
        raise ScaleRangeError(f"measuring group {plan.group.name!r} "
                              f"overflows float64: error {exact!r}, predicted "
                              f"{predicted!r}, energies x {ex}, w {ew}")
    report = ErrorReport(
        group=plan.group.name,
        objective=plan.objective,
        exact_error=exact,
        predicted_error=predicted,
        relative_reduction=None,
        energy_x_low=ex[0], energy_x_high=ex[1],
        energy_w_low=ew[0], energy_w_high=ew[1],
        bits_low=plan.bits_low, bits_high=plan.bits_high,
        rank=plan.partition.rank, seed=plan.partition.seed,
    )
    return y if output else None, report


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
                              bits_high=bits_high, group=stats.group)


def stats_from_tensors(x: np.ndarray, w: np.ndarray,
                       name: str = "layer") -> CalibStats:
    """Single-layer statistics straight from an (X, W) pair, each, a mapped
    array included, read in row blocks. X's columns set the dim, and W is
    checked against it."""
    if np.ndim(x) != 2:
        raise DimensionMismatchError(f"x must be 2-d, got shape {np.shape(x)}")
    return calibrate(ProjectionGroup(ATTN_INPUT, np.shape(x)[1], name), [x], [w])


def analyze_layer(x: np.ndarray, w: np.ndarray, rank: int, bits_low: int,
                  bits_high: int, seed: int = 0,
                  rotation: str = ROTATION_RANDOM) -> list[ErrorReport]:
    """Compare the three subspace objectives on one isolated layer.

    Returns reports in the order (joint, activation-only, weight-only), each
    carrying its error reduction relative to the activation-only selection."""
    stats = stats_from_tensors(x, w)
    reports = [measure_plan(x, w, build_plan(stats, rank, bits_low, bits_high,
                                             objective=objective, seed=seed,
                                             rotation=rotation))
               for objective in OBJECTIVES]
    baseline = reports[OBJECTIVES.index(OBJECTIVE_ACTIVATION)].exact_error
    return [replace(rep, relative_reduction=0.0 if baseline == 0.0
                    else 1.0 - rep.exact_error / baseline) for rep in reports]


def campaign(spec: SyntheticInstanceSpec, instances: int, rank: int,
             bits_low: int, bits_high: int, seed0: int = 0,
             rotation: str = ROTATION_RANDOM) -> list[list[ErrorReport]]:
    """The objective ablation: `analyze_layer` on `instances` draws of `spec`.

    Draw k is `spec` with seed seed0 + k, under which its plans' internal
    rotations draw from their own streams (`linalg.stream`). Returns one
    (joint, activation-only, weight-only) list per draw."""
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
