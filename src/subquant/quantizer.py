"""Simulated uniform quantization (quantize-dequantize) of each row of a
matrix as one group, plus the analytic relative-error coefficients used by
the error model. A caller picks the groups by the rows it passes: the rows
of X u are tokens, and those of (u^T W)^T, a transposed view, are output
channels.

Conventions, fixed for reproducibility:
  - both schemes quantize v >= 0 on one grid, level min(floor(v/s + 1/2),
    qmax): v = |x| with qmax = 2^(N-1)-1, s = max|group|/qmax and
    zero-point 0, the sign restored last (symmetric); v = x - min with
    qmax = 2^N-1, s = (max-min)/qmax and zero-point min (asymmetric);
  - so rounding ties go away from zero, and clipping follows rounding;
  - a zero min or max has the sign of its first occurrence in the group;
  - a group whose dynamic range is zero gets scale 1 (and zero-point 0 when
    the group is all zero), so the output reproduces the constant exactly;
  - the extreme grid levels dequantize to the observed group max/min exactly,
    which makes quantization idempotent bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ScaleRangeError, check, is_int

# the bit-width rule, shared by every bits field
BITS = (lambda v: is_int(v, 2, 17), "an int in [2, 16]")


@dataclass(frozen=True)
class QuantResult:
    dequantized: np.ndarray
    scales: np.ndarray
    zero_points: np.ndarray


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


def quantize(x: np.ndarray, bits: int, symmetric: bool) -> QuantResult:
    """Round-to-nearest quantize-dequantize of each row of `x` as one group,
    giving one scale and zero-point per row.

    One buffer of x's shape holds v = x - min or |x|, then, in place, the
    level, the dequantized value and the extreme-level snaps; the result
    matches `tests/reference.py` byte for byte, signed zeros included.
    `x` may be a view in either memory order, a transposed one included: it
    is read in place and validated through its per-row extremes, so it is not
    scanned a second time."""
    check("bits", bits, *BITS)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"x must be 2-d, got shape {x.shape}")
    if symmetric:
        qmax, v = float(2 ** (bits - 1) - 1), np.abs(x)
        span = mx = np.max(v, axis=1, keepdims=True)
        _check_finite(mx)
    else:
        qmax = float(2**bits - 1)
        mn, mx = np.min(x, axis=1, keepdims=True), np.max(x, axis=1, keepdims=True)
        # a zero extreme takes the sign of its first occurrence in the row, as
        # the oracle's min and max give it; numpy's reductions may give either
        for e, arg in ((mn, np.argmin), (mx, np.argmax)):
            rows = np.flatnonzero(e == 0)
            if rows.size:
                e[rows, 0] = x[rows, arg(x[rows], axis=1)]
        _check_finite(mn, mx)
        with np.errstate(over="ignore"):  # reported by _checked_scale
            span, v = mx - mn, x - mn
    s = _checked_scale(span, qmax)
    # v/s >= 0, so rounding half away from zero is floor(v/s + .5)
    v /= s
    v += 0.5
    np.floor(v, out=v)
    np.minimum(v, qmax, out=v)
    top, bottom = v == qmax, None if symmetric else v == 0
    v *= s
    # snap extreme levels to the observed extremes: this is their exact value
    # in real arithmetic and makes requantization a no-op
    if symmetric:
        np.copyto(v, mx, where=top)
        np.copysign(v, x, out=v)  # |x|/s is |x/s| exactly: the sign goes on last
    else:
        v += mn
        np.copyto(v, mn, where=bottom)
        np.copyto(v, mx, where=top)
    zps = np.zeros(len(s)) if symmetric else mn[:, 0].copy()
    return QuantResult(dequantized=v, scales=s[:, 0].copy(), zero_points=zps)


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
