import dataclasses
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from reference import assert_within_f32_gram_bound
from subquant import calib, formats, linalg
from subquant.calib import ProjectionGroup, calibrate
from subquant.linalg import gram_input


def group(dim, kind="attn-input"):
    return ProjectionGroup(kind=kind, dim=dim, name="g")


def activations(dim, *batches):
    """The statistics of `batches` and no weight."""
    return calibrate(group(dim), batches, [])


class TestAccumulate:
    def test_identity_batch(self):
        stats = activations(2, np.eye(2))
        assert np.array_equal(stats.sigma_x, np.eye(2))
        assert stats.tokens_seen == 2
        assert stats.energy_x == 2.0

    def test_additivity(self):
        two = activations(2, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        one = activations(2, np.eye(2))
        assert np.array_equal(two.sigma_x, one.sigma_x)
        assert two.tokens_seen == one.tokens_seen

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        batches = [rng.standard_normal((4, 3)) for _ in range(3)]
        concat = activations(3, np.vstack(batches))
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            s = activations(3, *(batches[i] for i in perm))
            assert np.allclose(s.sigma_x, concat.sigma_x, rtol=1e-12)
            assert s.energy_x == pytest.approx(concat.energy_x, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="x must be 2-d with 3 columns"):
            activations(3, np.eye(2))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("row", [0, 9], ids=["first-block", "later-block"])
    @pytest.mark.parametrize("value,error,message", [
        *((v, ValueError, "^x contains non-finite entries$")
          for v in (np.nan, np.inf, -np.inf)),
        # a finite entry, a numerical failure
        (1e200, ArithmeticError, "^the sum of x's squares overflows float64$"),
    ], ids=["nan", "+inf", "-inf", "square-overflows"])
    def test_non_finite_rejected(self, monkeypatch, row, value, error, message):
        monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 4 * 8 * 3)  # 4 rows of d=3
        batch = np.ones((11, 3))
        batch[row, 1] = value
        with pytest.raises(error, match=message):
            activations(3, batch)

    @pytest.mark.parametrize("row", [0, 9], ids=["first-block", "later-block"])
    def test_float32_square_overflow_is_a_scale_range_error(self, monkeypatch, row):
        # 2e19 is a finite float32 whose square, 4e38, overflows float32's
        # 3.4e38: the block's float32 Gram has an inf diagonal
        monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 4 * 8 * 3)  # 4 rows of d=3
        batch = np.ones((11, 3), dtype=np.float32)
        batch[row, 1] = 2e19
        message = "^the sum of x's squares overflows float32$"
        with pytest.raises(ArithmeticError, match=message):
            activations(3, batch)
        # the failing block adds nothing: Sigma holds the blocks before it
        sigma = np.zeros((3, 3))
        with pytest.raises(ArithmeticError, match=message):
            calib._fold(sigma, 0.0, batch, "x")
        assert np.array_equal(sigma, np.full((3, 3), 4.0 * (row // 4)))
        # its float64 twin folds the square
        twin = activations(3, batch.astype(np.float64))
        assert twin.sigma_x[1, 1] == pytest.approx(float(batch[row, 1]) ** 2)
        assert np.isfinite(twin.energy_x)

    def test_float32_squares_that_underflow_are_summed_in_float64(self):
        # each 1e-23 squares to 0 in float32; its float64 Gram keeps it, so
        # Sigma_X is not 0 and the plan does not fall back to W alone
        batch = (np.random.default_rng(9).standard_normal((11, 3)) * 1e-23).astype(np.float32)
        stats, twin = activations(3, batch), activations(3, batch.astype(np.float64))
        assert np.array_equal(stats.sigma_x, twin.sigma_x)
        assert stats.energy_x == twin.energy_x > 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_whole_batch(self, monkeypatch, dtype):
        batch = np.random.default_rng(9).standard_normal((11, 3)).astype(dtype)
        whole = activations(3, batch.astype(np.float64))
        monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 4 * 8 * 3)  # 4 rows of d=3
        blocked = activations(3, batch)
        if dtype == np.float32:  # float32 Grams of 4 rows, summed in float64
            assert_within_f32_gram_bound(blocked.sigma_x, blocked.energy_x, batch, 4)
        else:
            assert np.allclose(blocked.sigma_x, whole.sigma_x, rtol=1e-12, atol=0)
            assert blocked.energy_x == pytest.approx(whole.energy_x, rel=1e-12)
        assert blocked.tokens_seen == whole.tokens_seen == 11

    def test_block_rows_at_d_512(self, monkeypatch):
        # 1 MiB of float64 is 256 rows of d=512; each block is at least d rows
        rows = []

        def recording(x):
            rows.append(x.shape[0])
            return gram_input(x)

        monkeypatch.setattr(calib, "gram_input", recording)
        batch = np.random.default_rng(10).standard_normal((1100, 512)).astype(np.float32)
        stats = activations(512, batch)
        assert rows == [512, 512, 76]
        assert_within_f32_gram_bound(stats.sigma_x, stats.energy_x, batch, 512)
        assert stats.tokens_seen == 1100

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            activations(3, np.zeros((0, 3)))

    def test_trace_energy_invariant(self):
        rng = np.random.default_rng(5)
        s = activations(6, *(rng.standard_normal((10, 6)) for _ in range(4)))
        assert np.trace(s.sigma_x) == pytest.approx(s.energy_x, rel=1e-6)
        assert np.max(np.abs(s.sigma_x - s.sigma_x.T)) <= \
            1e-9 * np.max(np.abs(s.sigma_x))


class TestCovarianceRule:
    @pytest.mark.parametrize("key", ["sigma_x", "sigma_w"])
    @pytest.mark.parametrize("sigma", [
        -np.eye(3), np.diag([1.0, np.nan, 1.0]), np.eye(2), np.ones(3)],
        ids=["negative-diagonal", "nan-diagonal", "wrong-dim", "1-d"])
    def test_each_sigma_is_d_by_d_with_a_diagonal_at_least_0(self, key, sigma):
        empty = activations(3)
        message = (f"{key} must be a 3 x 3 matrix whose diagonal is >= 0, "
                   f"got an array of shape {sigma.shape}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(empty, **{key: sigma})

    def test_a_negative_off_diagonal_is_a_gram(self):
        sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])  # the Gram of [[1, -1]]
        stats = dataclasses.replace(activations(2), sigma_x=sigma)
        assert np.array_equal(stats.sigma_x, sigma)


class TestFuse:
    def fuse(self, weights, dim=None):
        dim = weights[0].shape[0] if dim is None else dim
        s = calibrate(group(dim), [], weights)
        return s.sigma_w, s.energy_w

    def test_two_identities(self):
        sigma, energy = self.fuse([np.eye(2), np.eye(2)])
        assert np.array_equal(sigma, 2 * np.eye(2))
        assert energy == 4.0

    def test_single_member_is_gram(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 3))
        sigma, energy = self.fuse([w])
        assert np.array_equal(sigma, w @ w.T)
        assert energy == pytest.approx(np.sum(w**2))

    def test_three_members_sum_oracle(self):
        rng = np.random.default_rng(2)
        ws = [rng.standard_normal((4, 3)) for _ in range(3)]
        sigma, energy = self.fuse(ws)
        expected = sum(w @ w.T for w in ws)
        assert np.allclose(sigma, expected, rtol=1e-12)
        assert energy == pytest.approx(sum(np.sum(w**2) for w in ws), rel=1e-12)
        assert np.trace(sigma) == pytest.approx(energy, rel=1e-6)

    def test_empty_and_mismatched(self):
        # no member folds nothing: the empty statistics' zero Sigma_W
        sigma, energy = self.fuse([], dim=2)
        assert np.array_equal(sigma, np.zeros((2, 2))) and energy == 0.0
        with pytest.raises(ValueError, match=r"w must be 2-d with 2 rows, got shape \(3, 3\)"):
            self.fuse([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("weights, member, message", [
        ([np.eye(3)], 0, "w must be 2-d with 2 rows, got shape (3, 3)"),
        ([np.eye(2), np.eye(3)], 1, "w must be 2-d with 2 rows, got shape (3, 3)"),
        ([np.eye(2), np.full((2, 2), np.nan)], 1, "w contains non-finite entries"),
        ([np.ones(2)], 0, "w must be 2-d with 2 rows, got shape (2,)"),
        ([np.ones((2, 2, 1))], 0, "w must be 2-d with 2 rows, got shape (2, 2, 1)")],
        ids=["only-member-wrong-dim", "second-member-wrong-dim", "non-finite",
             "1-d", "3-d"])
    def test_error_names_the_member_at_fault(self, weights, member, message):
        # members are read one at a time: the last one read is the member's
        read = []

        def members():
            for w in weights:
                read.append(w)
                yield w

        with pytest.raises(ValueError, match=re.escape(message)):
            calibrate(group(2), [], members())
        assert len(read) == member + 1

    def test_accumulate_weights(self):
        s = calibrate(group(2), [], [np.eye(2)])
        assert np.array_equal(s.sigma_w, np.eye(2))
        assert s.energy_w == 2.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_three_blocks_and_a_tail(self, monkeypatch, dtype):
        # 4 columns of W per block: three blocks and a 2-column tail
        monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 4 * 8 * 3)
        w = np.random.default_rng(3).standard_normal((3, 14)).astype(dtype)
        assert [len(b) for b in linalg.row_blocks(w.T, 3, 3, gram=True)] == [4, 4, 4, 2]
        s = calibrate(group(3), [], [w])
        if dtype == np.float32:  # float32 Grams of 4 columns, summed in float64
            assert_within_f32_gram_bound(s.sigma_w, s.energy_w, w.T, 4)
        else:
            assert np.allclose(s.sigma_w, w @ w.T, rtol=1e-12, atol=0)
        assert s.energy_w == pytest.approx(np.trace(s.sigma_w), rel=1e-12)
        assert s.tokens_seen == 0

    def test_peak_does_not_grow_with_columns(self):
        # one 1 MiB block is 2048 columns of d = 64: 8 blocks hold no more
        peaks = []
        for m in (2048, 8 * 2048):
            w = np.random.default_rng(4).standard_normal((64, m)).astype(np.float32)
            tracemalloc.start()
            try:
                calibrate(group(64), [], [w])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestCalibrate:
    def test_each_input_is_dropped_before_the_next_is_read(self):
        refs = []
        track = lambda a: refs.append(weakref.ref(a)) or a

        def inputs(shape):
            for _ in range(3):
                assert all(r() is None for r in refs)
                yield track(np.ones(shape))

        s = calibrate(group(3), inputs((2, 3)), inputs((3, 5)))
        assert len(refs) == 6
        assert s.tokens_seen == 6 and s.energy_x == 18.0 and s.energy_w == 45.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sums_are_exactly_symmetric(self, monkeypatch, dtype):
        # sym_eig solves M's lower triangle, so Sigma must hold no rounding
        # asymmetry: 16 rows per block, so X is 4 blocks and each W 3
        monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 16 * 8 * 16)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 16)).astype(dtype)
        w = rng.standard_normal((16, 40)).astype(dtype)
        w_t = rng.standard_normal((40, 16)).astype(dtype).T  # a transposed member
        assert len(linalg.row_blocks(x, 16, 16, gram=True)) == 4
        s = calibrate(group(16), [x, x[:5]], [w, w_t])
        for sigma in (s.sigma_x, s.sigma_w):
            assert np.array_equal(sigma, sigma.T)

    # at d = 512 a row block is d rows. Besides Sigma_X and Sigma_W, a float32
    # block adds its float32 Gram, d x d / 2, and a float64 block its float64
    # Gram; an aligned block, a mapped file's included, is not copied
    @pytest.mark.parametrize("dtype, peak, mapped", [
        (np.float32, 2.6, False), (np.float64, 3.0, False),
        (np.float32, 2.6, True), (np.float64, 3.0, True)],
        ids=["float32", "float64", "float32-mapped", "float64-mapped"])
    def test_holds_two_sums_and_peaks_by_dtype(self, tmp_path, dtype, peak, mapped):
        d = 512
        rng = np.random.default_rng(11)
        shards = [rng.standard_normal((4 * d, d)).astype(dtype) for _ in range(2)]
        members = [rng.standard_normal((d, 2 * d)).astype(dtype) for _ in range(2)]
        if mapped:
            paths = [str(tmp_path / f"{k}.cqt") for k in range(4)]
            for path, a in zip(paths, shards + members):
                formats.write_tensor(path, "a", a,
                                     dtype={np.float32: "f32", np.float64: "f64"}[dtype])
            shards, members = ([formats.map_tensor(p) for p in paths[:2]],
                               [formats.map_tensor(p) for p in paths[2:]])
        tracemalloc.start()
        try:
            stats = calibrate(group(d), shards, members)
            held, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.tokens_seen == 8 * d
        square = 8 * d * d
        assert held / square == pytest.approx(2.0, abs=0.01)
        assert peak_bytes <= peak * square * 1.01

    # d and the rows k of its row blocks: 1 MiB of float64, and at least d
    @pytest.mark.parametrize("d, k", [(64, 2048), (512, 512), (1024, 1024)])
    def test_float32_sums_are_within_the_gram_bound(self, d, k):
        # two row blocks and a tail, 4 channels scaled x21 as massive
        # activation channels are
        rng = np.random.default_rng(d)
        x = rng.standard_normal((2 * k + 37, d), dtype=np.float32)
        x[:, [1, 7, 20, 50]] *= 21
        assert [len(b) for b in linalg.row_blocks(x, d, d, gram=True)] == [k, k, 37]
        s = activations(d, x)
        assert_within_f32_gram_bound(s.sigma_x, s.energy_x, x, k)
