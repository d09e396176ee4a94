"""Independent straight-line oracles used by the tests.

These deliberately avoid the library's vectorized code paths: quantization is
done element by element in plain Python, and the mixed-precision matmul is
assembled step by step from the oracles. They exist so every optimized path
is checked against a second implementation.
"""

import math
from dataclasses import fields

import numpy as np


def _round_half_away(t: float) -> float:
    return math.copysign(math.floor(abs(t) + 0.5), t)


def _quantize_group(values, bits, symmetric):
    """Scalar quantize-dequantize of one group; returns (dequantized, s, z)."""
    if symmetric:
        qmax = float(2 ** (bits - 1) - 1)
        amax = max(abs(v) for v in values)
        s = amax / qmax if amax > 0 else 1.0
        out = []
        for v in values:
            q = min(max(_round_half_away(v / s), -qmax), qmax)
            if q == qmax:
                out.append(amax)
            elif q == -qmax:
                out.append(-amax)
            else:
                out.append(q * s)
        return out, s, 0.0
    qmax = float(2**bits - 1)
    mn, mx = min(values), max(values)
    s = (mx - mn) / qmax if mx > mn else 1.0
    z = mn
    out = []
    for v in values:
        q = min(max(_round_half_away((v - z) / s), 0.0), qmax)
        if q == 0.0:
            out.append(mn)
        elif q == qmax:
            out.append(mx)
        else:
            out.append(q * s + z)
    return out, s, z


def _groups(shape):
    """Index groups as lists of (row, col) tuples: each row is a group."""
    rows, cols = shape
    return [[(i, j) for j in range(cols)] for i in range(rows)]


def quantize_reference(x: np.ndarray, bits: int, symmetric: bool):
    """Element-wise reference quantizer; must agree with the library bit-for-bit."""
    out = np.empty_like(x, dtype=np.float64)
    scales, zps = [], []
    for idx in _groups(x.shape):
        vals = [float(x[i, j]) for i, j in idx]
        deq, s, z = _quantize_group(vals, bits, symmetric)
        for (i, j), v in zip(idx, deq):
            out[i, j] = v
        scales.append(s)
        zps.append(z)
    return out, np.array(scales), np.array(zps)


def execute_plan_reference(x, w, plan, quantize=None):
    """Naive mixed-precision matmul built from the reference quantizer, or
    from `quantize(m, bits, symmetric)`, which returns m dequantized. As in
    the plan's scheme, the rows of A = X u (tokens) are quantized
    asymmetrically and those of B^T = (u^T W)^T (output channels)
    symmetrically."""
    q = quantize or (lambda m, *args: quantize_reference(m, *args)[0])
    u = plan.partition.u
    d, r = u.shape[0], plan.partition.rank
    u_l, u_h = u[:, : d - r], u[:, d - r:]
    x_l, x_h = x @ u_l, x @ u_h
    w_l, w_h = u_l.T @ w, u_h.T @ w
    return (q(x_l, plan.bits_low, False) @ q(w_l.T, plan.bits_low, True).T
            + q(x_h, plan.bits_high, False) @ q(w_h.T, plan.bits_high, True).T)


def assert_within_f32_gram_bound(sigma, energy, x, k):
    """Assert that `sigma` and `energy`, the float64 sums of the float32 Grams
    of float32 `x`'s row blocks of at most k rows, are within the standard
    elementwise bound of X^T X and sum x^2 formed in float64 from X's exact
    float64 copy: |Sigma - X^T X| <= gamma_k |X|^T |X|, gamma_k = k u /
    (1 - k u), u = 2^-24, and gamma_k sum x^2 on the energy. Two float64
    gamma_n (n = X's rows) are added for the float64 rounding on each side;
    while n is under 10^6 k they are under a thousandth of gamma_k."""
    a = np.asarray(x, np.float64)
    exact, exact_energy = a.T @ a, float(np.sum(a * a))
    gamma = lambda k, u: k * u / (1 - k * u)
    tol = gamma(k, 2.0**-24) + 2 * gamma(len(a), 2.0**-53)
    assert np.all(np.abs(sigma - exact) <= tol * (np.abs(a).T @ np.abs(a)))
    assert abs(energy - exact_energy) <= tol * exact_energy


def assert_reports_agree(reports, others, rel):
    """Assert that two reports' rows name the same group, objective, bits,
    rank and seed, and that each float field agrees to `rel` relative."""
    assert len(reports) == len(others)
    for row, other in zip(reports, others):
        for f in fields(row):
            a, b = getattr(row, f.name), getattr(other, f.name)
            if isinstance(a, float):
                assert math.isclose(a, b, rel_tol=rel), (f.name, a, b)
            else:
                assert a == b, (f.name, a, b)
