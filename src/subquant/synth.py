"""Seeded synthetic (X, W) instances with controllable activation/weight
spectra and a tunable misalignment between the two principal bases. Used by
the analyze command, the demo scripts, and the test campaigns."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DIM_FITS, MAX_BYTES, SEED, Checked, check_fields, is_int, is_real
from .linalg import BASIS, ROWS, WEIGHTS, random_orthogonal, stream

# float64 bytes of one row block of X; each block draws from its own stream
BLOCK_BYTES = 1 << 24


@dataclass(frozen=True)
class SyntheticInstanceSpec(Checked):
    d: int
    n: int
    m: int
    activation_spectrum: tuple[float, ...]
    weight_spectrum: tuple[float, ...]
    misalignment: float = 0.0  # radians, applied in successive coordinate planes
    seed: int = 0

    def __post_init__(self):
        size = (lambda v: is_int(v, 1), "an int >= 1")
        spectrum = (lambda v: isinstance(v, (list, tuple)) and len(v) == self.d
                    and all(is_real(s, 0.0) for s in v),
                    f"a list of {self.d} finite variances >= 0")
        fits = f"to fit in {MAX_BYTES >> 30} GiB"
        check_fields(self, (
            ("d", *size), ("n", *size), ("m", *size),
            ("d", *DIM_FITS),
            ("n", lambda v: 8 * v * self.d <= MAX_BYTES,
             f"small enough for X (n x d, float64) {fits}"),
            ("m", lambda v: 8 * self.d * v <= MAX_BYTES,
             f"small enough for W (d x m, float64) {fits}"),
            ("activation_spectrum", *spectrum),
            ("weight_spectrum", *spectrum),
            ("misalignment", is_real, "a finite number"),
            ("seed", *SEED),
        ))
        for key in ("activation_spectrum", "weight_spectrum"):
            object.__setattr__(self, key, tuple(getattr(self, key)))


def _plane_rotations(d: int, angle: float) -> np.ndarray:
    """Product of Givens rotations by `angle` in planes (0,1), (2,3), ...:
    the planes are disjoint, so each rotation is one 2x2 diagonal block."""
    g = np.eye(d)
    c, s = np.cos(angle), np.sin(angle)
    pairs = np.arange(0, d - 1, 2)
    g[pairs, pairs] = g[pairs + 1, pairs + 1] = c
    # a zero sine gives +0.0 here, as it does in the product of the rotations
    g[pairs, pairs + 1] = 0.0 - s
    g[pairs + 1, pairs] = s + 0.0
    return g


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity
        return os.cpu_count() or 1


def generate_instance(spec: SyntheticInstanceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X, W): X rows have covariance Q_a diag(act) Q_a^T; W columns have
    covariance Q_w diag(wt) Q_w^T with Q_w = Q_a rotated by the misalignment
    angle, so the two principal bases diverge controllably.

    Every draw has its own stream under the instance's seed (`stream`): the
    basis Q_a, W, and each row block of X, of BLOCK_BYTES, its only n x d
    array. So W and each block do not depend on n. The blocks' normals are
    drawn in parallel, one thread per CPU, and each block is then mixed in
    place through one buffer; the bytes do not depend on the CPU count."""
    d, n = spec.d, spec.n
    q_a = random_orthogonal(d, stream(spec.seed, BASIS))
    q_w = q_a @ _plane_rotations(d, spec.misalignment)
    rows = BLOCK_BYTES // (8 * d)
    starts = range(0, n, rows)
    x = np.empty((n, d))
    rng = lambda role, k=0: np.random.default_rng(stream(spec.seed, role, k))
    draw = lambda k: rng(ROWS, k).standard_normal(out=x[k * rows:(k + 1) * rows])
    # the caller draws block 0, so one block imports and starts no thread
    # pool; mixing inside the threads would compete with BLAS's own threads
    if len(starts) == 1:
        draw(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a second block needs it
        with ThreadPoolExecutor(min(_cpus(), len(starts))) as pool:
            rest = pool.map(draw, range(1, len(starts)))
            draw(0)
            list(rest)
    mix = np.sqrt(np.asarray(spec.activation_spectrum))[:, None] * q_a.T
    buf = np.empty((min(rows, n), d))
    for lo in starts:
        block = buf[:min(rows, n - lo)]
        np.matmul(x[lo:lo + rows], mix, out=block)
        x[lo:lo + rows] = block
    w = q_w @ (np.sqrt(np.asarray(spec.weight_spectrum))[:, None]
               * rng(WEIGHTS).standard_normal((d, spec.m)))
    return x, w


def weight_anisotropic_spec(d: int, n: int, m: int, seed: int) -> SyntheticInstanceSpec:
    """Instance family where the weight energy concentrates along directions
    of modest activation variance, so joint selection has room to win over
    the activation-only choice."""
    act = tuple(1.0 / (1.0 + 0.3 * i) for i in range(d))
    wt = [0.05] * d
    spike = d // 3  # a direction the activation top-r does not cover
    wt[spike] = 40.0
    if spike + 1 < d:
        wt[spike + 1] = 10.0
    return SyntheticInstanceSpec(d=d, n=n, m=m, activation_spectrum=act,
                                 weight_spectrum=tuple(wt),
                                 misalignment=0.0, seed=seed)


def aligned_spec(d: int, n: int, m: int, seed: int) -> SyntheticInstanceSpec:
    """Activation and weight spectra share the same basis and ordering; joint
    and activation-only selections coincide."""
    spectrum = tuple(2.0 ** (-i) for i in range(d))
    return SyntheticInstanceSpec(d=d, n=n, m=m, activation_spectrum=spectrum,
                                 weight_spectrum=spectrum,
                                 misalignment=0.0, seed=seed)
