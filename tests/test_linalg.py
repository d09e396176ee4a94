import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subquant.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotSymmetricError,
)
from subquant.linalg import (
    gram_input,
    gram_weight,
    hadamard,
    random_orthogonal,
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

    def test_gram_weight_identity(self):
        assert np.array_equal(gram_weight(np.eye(2)), np.eye(2))

    def test_gram_weight_outer_product(self):
        assert np.array_equal(gram_weight(np.array([[1.0], [2.0]])),
                              np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_gram_weight_zeros(self):
        assert np.array_equal(gram_weight(np.zeros((2, 3))), np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_outputs_psd(self, seed):
        rng = np.random.default_rng(seed)
        s = gram_input(rng.standard_normal((6, 8)))
        evals = np.linalg.eigvalsh(s)
        assert evals.min() >= -1e-9 * np.linalg.norm(s)


class TestOrthogonal:
    def test_one_dimensional(self):
        q = random_orthogonal(1, seed=5)
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("d,seed", [(8, 42), (17, 0), (64, 9), (512, 3)])
    def test_orthogonality(self, d, seed):
        q = random_orthogonal(d, seed)
        assert np.max(np.abs(q @ q.T - np.eye(d))) < 1e-10

    @pytest.mark.parametrize("d,seed", [(1, 5), (8, 42), (64, 9)])
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
