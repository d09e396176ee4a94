import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subquant.engine import use_gram_form
from subquant.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotSymmetricError,
)
from subquant import linalg
from subquant.linalg import (
    gram_input,
    hadamard,
    random_orthogonal,
    row_blocks,
    stream,
    sym_eig,
)


def random_symmetric(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return a + a.T


class TestSymEig:
    def test_diagonal(self):
        r = sym_eig(np.diag([5.0, 3.0, 1.0]))
        assert np.allclose(r.values, [5.0, 3.0, 1.0])
        assert np.allclose(r.vectors, np.eye(3))

    def test_identity_tie_break(self):
        r = sym_eig(np.eye(4))
        assert np.allclose(r.values, np.ones(4))
        assert np.allclose(r.vectors, np.eye(4))

    def test_two_by_two_hand_oracle(self):
        # characteristic polynomial l^2 - 4l + 3 has roots 3 and 1
        r = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(r.values, [3.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(r.vectors[:, 0], [s, s])
        assert np.allclose(r.vectors[:, 1], [s, -s])

    @pytest.mark.parametrize("d", [2, 5, 16, 33, 64, 256])
    def test_reconstruction_vs_eigh_oracle(self, d):
        m = random_symmetric(d, seed=d)
        r = sym_eig(m)
        rec = r.vectors @ np.diag(r.values) @ r.vectors.T
        fnorm = np.linalg.norm(m)
        assert np.linalg.norm(rec - m) <= 1e-7 * fnorm
        assert np.allclose(r.vectors.T @ r.vectors, np.eye(d), atol=1e-8)
        # eigenvalues match numpy's independent solver
        oracle = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(r.values, oracle, atol=1e-9 * max(1.0, fnorm))
        # residual of each eigenpair
        res = m @ r.vectors - r.vectors * r.values
        assert np.max(np.abs(res)) <= 1e-7 * fnorm

    def test_values_sorted_descending(self):
        r = sym_eig(random_symmetric(12, seed=7))
        assert np.all(np.diff(r.values) <= 1e-12)

    def test_rayleigh_bound(self):
        m = random_symmetric(10, seed=3)
        r = sym_eig(m)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.standard_normal(10)
            u /= np.linalg.norm(u)
            assert u @ m @ u <= r.values[0] + 1e-7 * np.linalg.norm(m)

    def test_deterministic(self):
        m = random_symmetric(9, seed=11)
        a, b = sym_eig(m), sym_eig(m)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            sym_eig(np.zeros((2, 3)))

    def test_solves_the_lower_triangle(self):
        # an asymmetry within SYMMETRY_TOL above the diagonal is not read
        m = random_symmetric(24, seed=13)
        upper = np.triu(np.random.default_rng(14).standard_normal((24, 24)), 1)
        m += 1e-12 * np.max(np.abs(m)) * upper
        assert not np.array_equal(m, m.T)
        lower = np.tril(m) + np.tril(m, -1).T
        a, b = sym_eig(m), sym_eig(lower)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGram:
    def test_gram_input_identity(self):
        assert np.array_equal(gram_input(np.eye(2)), np.eye(2))

    def test_gram_input_outer_product(self):
        assert np.array_equal(gram_input(np.array([[1.0, 2.0]])),
                              np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_gram_input_zeros(self):
        assert np.array_equal(gram_input(np.zeros((3, 2))), np.zeros((2, 2)))

    # W W^T is the Gram of the rows of W^T, a transposed view
    def test_gram_weight_identity(self):
        assert np.array_equal(gram_input(np.eye(2).T), np.eye(2))

    def test_gram_weight_outer_product(self):
        assert np.array_equal(gram_input(np.array([[1.0], [2.0]]).T),
                              np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_gram_weight_zeros(self):
        assert np.array_equal(gram_input(np.zeros((2, 3)).T), np.zeros((2, 2)))

    def test_gram_weight_is_bit_for_bit_w_w_t(self):
        w = np.random.default_rng(6).standard_normal((5, 7))
        assert np.array_equal(gram_input(w.T), w @ w.T)

    @pytest.mark.parametrize("dtype, gram_dtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float16, np.float64),
        (np.int32, np.float64)])
    def test_gram_input_keeps_float32_and_widens_the_rest(self, dtype, gram_dtype):
        x = (np.random.default_rng(7).standard_normal((9, 4)) * 10).astype(dtype)
        g = gram_input(x)
        assert g.dtype == gram_dtype
        a = x.astype(gram_dtype)
        assert np.array_equal(g, a.T @ a)

    # 1e-23 squares to 0 in float32 and 1e-20 to a subnormal: a nonzero
    # column whose float32 square sum underflows is formed in float64
    @pytest.mark.parametrize("scale", [1e-23, 1e-20])
    def test_gram_input_widens_a_float32_block_whose_squares_underflow(self, scale):
        x = np.random.default_rng(7).standard_normal((9, 4)).astype(np.float32)
        x[:, 2] *= np.float32(scale)
        g = gram_input(x)
        a = x.astype(np.float64)
        assert g.dtype == np.float64 and np.array_equal(g, a.T @ a)
        assert g[2, 2] > 0

    def test_gram_input_keeps_float32_for_a_zero_column(self):
        x = np.random.default_rng(7).standard_normal((9, 4)).astype(np.float32)
        x[:, 2] = 0
        g = gram_input(x)
        assert g.dtype == np.float32 and np.array_equal(g, x.T @ x)

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_outputs_psd(self, seed):
        rng = np.random.default_rng(seed)
        s = gram_input(rng.standard_normal((6, 8)))
        evals = np.linalg.eigvalsh(s)
        assert evals.min() >= -1e-9 * np.linalg.norm(s)


# each pass's blocks at the benchmark's shapes under the default 1 MiB and
# 256-row floor: (n, d, m), the width of the widest buffer, whether each
# block adds a fresh Gram of that width, and the rows of each block
BENCH_BLOCKS = {
    "calibration-pipeline-shard": ((16384, 64, None), 64, True, [2048] * 8),
    "gram-form-pipeline": ((16384, 64, 512), 128, True, [1024] * 16),
    "row-form-wide": ((1024, 256, 768), 768, False, [256] * 4),
    "row-form-ablation": ((256, 64, 64), 64, False, [256]),
}


class TestRowBlocks:
    @pytest.mark.parametrize("case", sorted(BENCH_BLOCKS))
    def test_rows_at_the_benchmark_shapes(self, case):
        (n, d, m), width, gram, rows = BENCH_BLOCKS[case]
        if m is not None:  # a measurement: the shape picks the form
            assert use_gram_form(n, d, m) == gram
        x = np.zeros((n, d), dtype=np.float32)
        blocks = row_blocks(x, d, width, gram)
        assert [len(b) for b in blocks] == rows
        assert all(b.base is x for b in blocks)

    @pytest.mark.parametrize("shape", [(24,), (2, 3, 4), (5, 3), (0, 4)],
                             ids=["1-d", "3-d", "columns", "no-rows"])
    def test_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatchError,
                           match=r"x must be 2-d with 4 columns and at least one row"):
            row_blocks(np.zeros(shape), 4, 4, False)


class TestOrthogonal:
    def test_one_dimensional(self):
        q = random_orthogonal(1, seed=5)
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("d,seed", [(8, 42), (17, 0), (64, 9), (512, 3)])
    def test_orthogonality(self, d, seed):
        q = random_orthogonal(d, seed)
        assert np.max(np.abs(q @ q.T - np.eye(d))) < 1e-10

    @pytest.mark.parametrize("d,seed", [(1, 5), (8, 42), (64, 9),
                                        (6, stream(5, linalg.HIGH_ROTATION))])
    def test_matches_qr_with_positive_r_diagonal(self, d, seed):
        g = np.random.Generator(np.random.PCG64(seed)).standard_normal((d, d))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        assert np.max(np.abs(random_orthogonal(d, seed) - q)) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_orthogonal(8, 42), random_orthogonal(8, 42))

    def test_seed_changes_output(self):
        assert not np.array_equal(random_orthogonal(8, 1), random_orthogonal(8, 2))

    def test_rejects_zero_dim(self):
        with pytest.raises(DimensionMismatchError):
            random_orthogonal(0, 1)


# every draw of an instance and its plans: X's first row blocks, W, the
# basis, and the two internal rotations
DRAWS = {**{f"x-block-{k}": (linalg.ROWS, k) for k in range(3)},
         "w": (linalg.WEIGHTS, 0), "basis": (linalg.BASIS, 0),
         "low-rotation": (linalg.LOW_ROTATION, 0),
         "high-rotation": (linalg.HIGH_ROTATION, 0)}


class TestStream:
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
    def test_no_two_draws_share_normals(self, seed):
        # the draws of seed and seed + 1: no normal of one stream's first 64
        # appears in another's, so neither one stream nor a shifted one is
        # shared
        first = {(s, name): np.random.default_rng(stream(s, *key)).standard_normal(64)
                 for s in (seed, seed + 1) for name, key in DRAWS.items()}
        assert len(first) == 2 * len(DRAWS)
        for (a, za), (b, zb) in itertools.combinations(first.items(), 2):
            assert not np.intersect1d(za, zb).size, (a, b)

    def test_no_seed_reaches_another_seeds_streams(self):
        # SeedSequence([12345, 3]) is SeedSequence(12345 + (3 << 32)): a role
        # in the entropy would collide with another seed, a spawn key does not
        states = {stream(seed, *key).generate_state(4).tobytes()
                  for seed in (12345, 12345 + (3 << 32)) for key in DRAWS.values()}
        assert len(states) == 2 * len(DRAWS)


class TestHadamard:
    def test_base_cases(self):
        assert np.array_equal(hadamard(1), np.array([[1.0]]))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(hadamard(2), np.array([[s, s], [s, -s]]))

    @pytest.mark.parametrize("d", [4, 8, 32])
    def test_orthogonality(self, d):
        h = hadamard(d)
        assert np.max(np.abs(h @ h.T - np.eye(d))) < 1e-12
        assert np.allclose(np.abs(h), 1.0 / np.sqrt(d))

    @pytest.mark.parametrize("d", [0, 3, 6, 12])
    def test_rejects_non_power_of_two(self, d):
        with pytest.raises(DimensionMismatchError):
            hadamard(d)


class TestArithmetic:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 16), seed=st.integers(0, 10_000))
def test_eig_reconstruction_property(d, seed):
    m = random_symmetric(d, seed)
    r = sym_eig(m)
    assert np.linalg.norm(r.vectors @ np.diag(r.values) @ r.vectors.T - m) \
        <= 1e-7 * np.linalg.norm(m)
