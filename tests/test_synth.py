import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from subquant import linalg, synth
from subquant.linalg import random_orthogonal, stream
from subquant.synth import (
    SyntheticInstanceSpec,
    _plane_rotations,
    generate_instance,
    weight_anisotropic_spec,
)


def givens_product(d, angle):
    """The rotations by `angle` in planes (0, 1), (2, 3), ..., each a dense
    d x d matrix, multiplied one by one."""
    g = np.eye(d)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, d - 1, 2):
        r = np.eye(d)
        r[i, i] = r[i + 1, i + 1] = c
        r[i, i + 1], r[i + 1, i] = -s, s
        g = g @ r
    return g


@pytest.mark.parametrize("angle", [0.0, 0.25, -2.0, math.pi])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 65])
def test_plane_rotations_are_the_product_of_givens_rotations(d, angle):
    assert _plane_rotations(d, angle).tobytes() == givens_product(d, angle).tobytes()


def normals(seed, role, shape, index=0):
    """The first normals of the stream (seed, role, index)."""
    return np.random.default_rng(stream(seed, role, index)).standard_normal(shape)


def basis(spec):
    return random_orthogonal(spec.d, stream(spec.seed, linalg.BASIS))


def reference_block(spec, k, rows):
    """Row block k of X, of `rows` rows: the normals of its stream, mixed by
    diag(act)^(1/2) Q_a^T."""
    mix = np.sqrt(np.asarray(spec.activation_spectrum))[:, None] * basis(spec).T
    return normals(spec.seed, linalg.ROWS, (rows, spec.d), k) @ mix


def reference_w(spec):
    """W: the normals of its stream, scaled and turned by Q_w."""
    q_w = basis(spec) @ _plane_rotations(spec.d, spec.misalignment)
    return q_w @ (np.sqrt(np.asarray(spec.weight_spectrum))[:, None]
                  * normals(spec.seed, linalg.WEIGHTS, (spec.d, spec.m)))


def spread_spec(d, n, m, seed, misalignment=0.3):
    return SyntheticInstanceSpec(
        d=d, n=n, m=m, activation_spectrum=tuple(4.0 / (1 + i) for i in range(d)),
        weight_spectrum=tuple(1.0 + (i % 3) for i in range(d)),
        misalignment=misalignment, seed=seed)


ONE_BLOCK = synth.BLOCK_BYTES // (8 * 64)  # rows of one block at d = 64


@pytest.mark.parametrize("spec", [
    weight_anisotropic_spec(1, 1, 1, 0),
    weight_anisotropic_spec(16, 64, 16, 1),
    weight_anisotropic_spec(64, 256, 64, 5),
    weight_anisotropic_spec(256, 1024, 768, 3),
    spread_spec(7, 300, 5, 12),
    spread_spec(64, ONE_BLOCK, 8, 9),  # exactly one block
], ids=lambda s: f"d{s.d}-n{s.n}-m{s.m}-seed{s.seed}")
def test_one_block_instance_is_the_single_stream_draw(spec):
    # X of one block is the draw of one stream; W has its own
    x, w = generate_instance(spec)
    assert x.tobytes() == reference_block(spec, 0, spec.n).tobytes()
    assert w.tobytes() == reference_w(spec).tobytes()


@pytest.mark.parametrize("n", [1, 65, ONE_BLOCK + 1])
def test_w_does_not_depend_on_n(n):
    w = generate_instance(weight_anisotropic_spec(64, 64, 8, 3))[1]
    assert generate_instance(weight_anisotropic_spec(64, n, 8, 3))[1].tobytes() == w.tobytes()


ROWS = 20000  # with d = 8 and n = 65536: three blocks and a tail of 5536 rows


@pytest.fixture
def blocks(monkeypatch):
    monkeypatch.setattr(synth, "BLOCK_BYTES", 8 * 8 * ROWS)
    return spread_spec(8, 3 * ROWS + 5536, 6, 21)


class TestRowBlocks:
    def test_draws_are_repeatable(self, blocks):
        first, second = generate_instance(blocks), generate_instance(blocks)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_bytes_do_not_depend_on_the_pool(self, blocks, monkeypatch, workers):
        default = generate_instance(blocks)
        monkeypatch.setattr(synth, "_cpus", lambda: workers)
        for a, b in zip(generate_instance(blocks), default):
            assert a.tobytes() == b.tobytes()

    def test_block_zero_and_w_come_from_the_instance_stream(self, blocks):
        x, w = generate_instance(blocks)
        assert x[:ROWS].tobytes() == reference_block(blocks, 0, ROWS).tobytes()
        assert w.tobytes() == reference_w(blocks).tobytes()

    def test_block_k_comes_from_its_own_stream(self, blocks):
        x, _ = generate_instance(blocks)
        for k, lo in enumerate(range(ROWS, blocks.n, ROWS), start=1):
            rows = min(ROWS, blocks.n - lo)
            assert x[lo:lo + rows].tobytes() == reference_block(blocks, k, rows).tobytes()

    def test_no_two_blocks_are_equal(self, blocks):
        x, _ = generate_instance(blocks)
        for i, j in itertools.combinations(range(0, blocks.n, ROWS), 2):
            k = min(ROWS, blocks.n - j)
            assert not np.any(np.all(x[i:i + k] == x[j:j + k], axis=1))

    def test_sample_covariance_matches_the_spectrum(self, blocks):
        x, _ = generate_instance(blocks)
        q_a = basis(blocks)
        cov = q_a @ np.diag(blocks.activation_spectrum) @ q_a.T
        # each entry of X^T X / n has standard error
        # sqrt((cov_ii cov_jj + cov_ij^2) / n) for zero-mean normal rows;
        # allow 6 of them, over the whole draw and over each full block
        var = np.diag(cov)
        se = np.sqrt(np.outer(var, var) + cov ** 2)
        for lo, hi in ((0, blocks.n), (0, ROWS), (ROWS, 2 * ROWS), (2 * ROWS, 3 * ROWS)):
            sample = x[lo:hi].T @ x[lo:hi] / (hi - lo)
            assert np.all(np.abs(sample - cov) <= 6 * se / math.sqrt(hi - lo))

    def test_x_is_the_only_n_by_d_array(self, monkeypatch):
        monkeypatch.setattr(synth, "BLOCK_BYTES", 8 * 8 * 4096)
        spec = spread_spec(8, 65536, 4, 3)
        tracemalloc.start()
        try:
            x, _ = generate_instance(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * x.nbytes

    def test_one_block_imports_no_thread_pool(self):
        # a fresh interpreter: this one may already have imported the pool
        code = ("import sys\n"
                "from subquant.synth import generate_instance, weight_anisotropic_spec\n"
                "generate_instance(weight_anisotropic_spec(64, 256, 64, 1))\n"
                "sys.exit('concurrent.futures' in sys.modules)")
        src = os.path.dirname(os.path.dirname(synth.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
