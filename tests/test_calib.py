import numpy as np
import pytest

from subquant import calib
from subquant.calib import (
    CalibStats,
    ProjectionGroup,
    accumulate_activations,
    attach_weights,
)
from subquant.errors import DimensionMismatchError
from subquant.linalg import gram_input, gram_weight


def group(dim, kind="attn-input"):
    return ProjectionGroup(kind=kind, dim=dim, name="g")


class TestAccumulate:
    def test_identity_batch(self):
        stats = accumulate_activations(CalibStats.empty(group(2)), np.eye(2))
        assert np.array_equal(stats.sigma_x, np.eye(2))
        assert stats.tokens_seen == 2
        assert stats.energy_x == 2.0

    def test_additivity(self):
        s0 = CalibStats.empty(group(2))
        two = accumulate_activations(
            accumulate_activations(s0, np.array([[1.0, 0.0]])),
            np.array([[0.0, 1.0]]))
        one = accumulate_activations(s0, np.eye(2))
        assert np.array_equal(two.sigma_x, one.sigma_x)
        assert two.tokens_seen == one.tokens_seen

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        batches = [rng.standard_normal((4, 3)) for _ in range(3)]
        concat = accumulate_activations(CalibStats.empty(group(3)),
                                        np.vstack(batches))
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            s = CalibStats.empty(group(3))
            for i in perm:
                s = accumulate_activations(s, batches[i])
            assert np.allclose(s.sigma_x, concat.sigma_x, rtol=1e-12)
            assert s.energy_x == pytest.approx(concat.energy_x, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            accumulate_activations(CalibStats.empty(group(3)), np.eye(2))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("row", [0, 9], ids=["first-block", "later-block"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200],
                             ids=["nan", "+inf", "-inf", "square-overflows"])
    def test_non_finite_rejected(self, monkeypatch, row, value):
        monkeypatch.setattr(calib, "BLOCK_BYTES", 4 * 8 * 3)  # 4 rows of d=3
        batch = np.ones((11, 3))
        batch[row, 1] = value
        with pytest.raises(ValueError):
            accumulate_activations(CalibStats.empty(group(3)), batch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_whole_batch(self, monkeypatch, dtype):
        batch = np.random.default_rng(9).standard_normal((11, 3)).astype(dtype)
        whole = accumulate_activations(CalibStats.empty(group(3)),
                                       batch.astype(np.float64))
        monkeypatch.setattr(calib, "BLOCK_BYTES", 4 * 8 * 3)
        blocked = accumulate_activations(CalibStats.empty(group(3)), batch)
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
        stats = accumulate_activations(CalibStats.empty(group(512)), batch)
        assert rows == [512, 512, 76]
        whole = batch.astype(np.float64)
        assert np.allclose(stats.sigma_x, whole.T @ whole, rtol=1e-12, atol=1e-9)
        assert stats.tokens_seen == 1100

    def test_empty_batch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            accumulate_activations(CalibStats.empty(group(3)), np.zeros((0, 3)))

    def test_trace_energy_invariant(self):
        rng = np.random.default_rng(5)
        s = CalibStats.empty(group(6))
        for _ in range(4):
            s = accumulate_activations(s, rng.standard_normal((10, 6)))
        assert np.trace(s.sigma_x) == pytest.approx(s.energy_x, rel=1e-6)
        assert np.max(np.abs(s.sigma_x - s.sigma_x.T)) <= \
            1e-9 * np.max(np.abs(s.sigma_x))


class TestFuse:
    def fuse(self, weights, dim=None):
        dim = weights[0].shape[0] if dim is None else dim
        s = attach_weights(CalibStats.empty(group(dim)), weights)
        return s.sigma_w, s.energy_w

    def test_two_identities(self):
        sigma, energy = self.fuse([np.eye(2), np.eye(2)])
        assert np.array_equal(sigma, 2 * np.eye(2))
        assert energy == 4.0

    def test_single_member_is_gram(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 3))
        sigma, energy = self.fuse([w])
        assert np.array_equal(sigma, gram_weight(w))
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
        with pytest.raises(DimensionMismatchError):
            self.fuse([], dim=2)
        with pytest.raises(DimensionMismatchError):
            self.fuse([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("weights, member", [
        ([np.eye(3)], 0), ([np.eye(2), np.eye(3)], 1),
        ([np.eye(2), np.full((2, 2), np.nan)], 1)],
        ids=["only-member-wrong-dim", "second-member-wrong-dim", "non-finite"])
    def test_error_names_the_member_at_fault(self, weights, member):
        with pytest.raises(ValueError, match=f"weights\\[{member}\\]") as e:
            attach_weights(CalibStats.empty(group(2)), weights)
        assert e.value.member == member

    def test_attach_weights(self):
        s = CalibStats.empty(group(2))
        s = attach_weights(s, [np.eye(2)])
        assert np.array_equal(s.sigma_w, np.eye(2))
        assert s.energy_w == 2.0
