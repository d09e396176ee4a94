"""Simulated uniform quantization (quantize-dequantize) with per-tensor,
per-token, per-channel and per-head granularities, plus the analytic
relative-error coefficients used by the error model.

Conventions, fixed for reproducibility:
  - symmetric grid is the restricted range +/-(2^(N-1)-1) with zero-point 0
    and scale max|group| / (2^(N-1)-1);
  - asymmetric grid is [0, 2^N-1] with scale (max-min)/(2^N-1), zero-point min;
  - rounding ties go away from zero;
  - clipping is applied after rounding;
  - a group whose dynamic range is zero gets scale 1 (and zero-point 0 when
    the group is all zero), so the output reproduces the constant exactly;
  - the extreme grid levels dequantize to the observed group max/min exactly,
    which makes quantization idempotent bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Checked,
    DimensionMismatchError,
    ScaleRangeError,
    check_fields,
    is_int,
)

PER_TENSOR = "per-tensor"
PER_TOKEN = "per-token"
PER_CHANNEL = "per-channel"
PER_HEAD = "per-head"
GRANULARITIES = (PER_TENSOR, PER_TOKEN, PER_CHANNEL, PER_HEAD)


# the bit-width rule, shared by every bits field
BITS = (lambda v: is_int(v, 2, 17), "an int in [2, 16]")


@dataclass(frozen=True)
class QuantSpec(Checked):
    """Bit-width, symmetry and grouping of one quantizer."""

    bits: int
    symmetric: bool
    granularity: str
    head_dim: int | None = None

    def __post_init__(self):
        check_fields(self, (
            ("bits", *BITS),
            ("symmetric", lambda v: type(v) is bool, "true or false"),
            ("granularity", lambda v: v in GRANULARITIES, f"one of {GRANULARITIES}"),
            ("head_dim", lambda v: is_int(v, 1), "an int >= 1")
            if self.granularity == PER_HEAD else
            ("head_dim", lambda v: v is None, "absent outside per-head granularity"),
        ))


@dataclass(frozen=True)
class QuantResult:
    dequantized: np.ndarray
    scales: np.ndarray
    zero_points: np.ndarray


def _to_groups(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """View the matrix as (groups, group_size)."""
    rows, cols = x.shape
    if spec.granularity == PER_TENSOR:
        return x.reshape(1, rows * cols)
    if spec.granularity == PER_TOKEN:
        return x.reshape(rows, cols)
    if spec.granularity == PER_CHANNEL:
        return x.T.reshape(cols, rows)
    # per-head: contiguous blocks of head_dim columns, one group per block
    hd = spec.head_dim
    if cols % hd != 0:
        raise DimensionMismatchError(
            f"head_dim {hd} does not divide column count {cols}")
    heads = cols // hd
    return x.reshape(rows, heads, hd).transpose(1, 0, 2).reshape(heads, rows * hd)


def _from_groups(g: np.ndarray, shape: tuple[int, int], spec: QuantSpec) -> np.ndarray:
    rows, cols = shape
    if spec.granularity == PER_TENSOR:
        return g.reshape(rows, cols)
    if spec.granularity == PER_TOKEN:
        return g.reshape(rows, cols)
    if spec.granularity == PER_CHANNEL:
        return g.reshape(cols, rows).T
    hd = spec.head_dim
    heads = cols // hd
    return g.reshape(heads, rows, hd).transpose(1, 0, 2).reshape(rows, cols)


def _check_finite(*extremes: np.ndarray) -> None:
    """Reject non-finite input through its per-group extremes: min, max and
    max|.| are NaN or +/-inf exactly when their group holds such an entry."""
    if not all(np.isfinite(e).all() for e in extremes):
        raise ValueError("x contains non-finite entries")


def _checked_scale(span: np.ndarray, qmax: float) -> np.ndarray:
    """Per-group scale span/qmax (1 where the span is 0); reject a scale that
    over- or underflows float64 instead of returning NaN."""
    s = np.where(span > 0, span / qmax, 1.0)
    bad = np.count_nonzero(~((s > 0) & (s < np.inf)))
    if bad:
        raise ScaleRangeError(
            f"{bad} quantization group(s) have a range that overflows float64 "
            "or a scale that underflows to 0")
    return s


def quantize(x: np.ndarray, spec: QuantSpec) -> QuantResult:
    """Group-wise round-to-nearest quantize-dequantize simulation.

    One group-shaped buffer holds the quantized level q, then, in place, the
    dequantized value q*s (+z) and the extreme-level snaps; the arithmetic is
    step for step that of `tests/reference.py`, so results match it bit for bit.
    `x` is read in its own memory order and validated through its per-group
    extremes, so it is not scanned a second time."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"x must be 2-d, got shape {x.shape}")
    g = _to_groups(x, spec)
    if spec.symmetric:
        qmax = float(2 ** (spec.bits - 1) - 1)
        t = np.abs(g)
        amax = np.max(t, axis=1, keepdims=True)
        _check_finite(amax)
        s = _checked_scale(amax, qmax)
        np.divide(g, s, out=t)
        # round half away from zero, clipped: copysign(min(floor(|t|+.5), qmax), t)
        q = np.abs(t)
        q += 0.5
        np.floor(q, out=q)
        np.minimum(q, qmax, out=q)
        np.copysign(q, t, out=q)
        top, bottom = q == qmax, q == -qmax
        q *= s
        # snap extreme levels to the observed extremes: this is the exact value
        # of qmax*s in real arithmetic and makes requantization a no-op
        np.copyto(q, amax, where=top)
        np.copyto(q, -amax, where=bottom)
        zps = np.zeros(len(s))
    else:
        qmax = float(2**spec.bits - 1)
        mn = np.min(g, axis=1, keepdims=True)
        mx = np.max(g, axis=1, keepdims=True)
        _check_finite(mn, mx)
        with np.errstate(over="ignore"):  # reported by _checked_scale
            span = mx - mn
        s = _checked_scale(span, qmax)
        # (g - z)/s >= 0 with z = min, so rounding half away is floor(t + .5)
        q = g - mn
        q /= s
        q += 0.5
        np.floor(q, out=q)
        np.minimum(q, qmax, out=q)
        bottom, top = q == 0, q == qmax
        q *= s
        q += mn
        np.copyto(q, mn, where=bottom)
        np.copyto(q, mx, where=top)
        zps = mn[:, 0].copy()
    return QuantResult(
        dequantized=_from_groups(q, x.shape, spec),
        scales=s[:, 0].copy(),
        zero_points=zps,
    )


def relative_error_coeff(bits: int) -> float:
    """Relative quantization-noise energy coefficient: 1/(2^(N-1)-1)^2."""
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    return 1.0 / float(2 ** (bits - 1) - 1) ** 2


def combined_error_coeff(bits: int, subspace_dim: int) -> float:
    """Combined per-subspace coefficient (alpha^2 + beta^2) / d_k."""
    if subspace_dim < 1:
        raise ValueError(f"subspace_dim must be >= 1, got {subspace_dim}")
    return 2.0 * relative_error_coeff(bits) / subspace_dim
