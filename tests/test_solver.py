import dataclasses

import numpy as np
import pytest

from subquant import solver
from subquant.calib import CalibStats, ProjectionGroup
from subquant.errors import DimensionMismatchError, NoSignalError
from subquant.linalg import hadamard, random_orthogonal, sym_eig
from subquant.solver import (
    ROTATIONS,
    lambda_weights,
    shared_rotations,
    solve_partition,
    surrogate_objective,
)


def stats_from_sigmas(sigma_x, sigma_w, energy_x=None, energy_w=None):
    d = sigma_x.shape[0]
    return CalibStats(
        group=ProjectionGroup(kind="attn-input", dim=d, name="t"),
        sigma_x=sigma_x, sigma_w=sigma_w,
        energy_x=float(np.trace(sigma_x)) if energy_x is None else energy_x,
        energy_w=float(np.trace(sigma_w)) if energy_w is None else energy_w,
        tokens_seen=1,
    )


def random_psd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return a @ a.T


class TestLambdaWeights:
    def test_joint_substitution(self):
        s = stats_from_sigmas(np.eye(2), np.eye(2), energy_x=4.0, energy_w=9.0)
        assert lambda_weights(s, 2.0 / 343.0, "joint") == \
            (18.0 / 343.0, 8.0 / 343.0)

    def test_single_sided(self):
        s = stats_from_sigmas(np.eye(2), np.eye(2), energy_x=4.0, energy_w=9.0)
        assert lambda_weights(s, 2.0 / 343.0, "activation") == (18.0 / 343.0, 0.0)
        assert lambda_weights(s, 2.0 / 343.0, "weight") == (0.0, 8.0 / 343.0)

    def test_linearity_in_gamma(self):
        s = stats_from_sigmas(np.eye(3), np.eye(3), energy_x=2.0, energy_w=5.0)
        lx1, lw1 = lambda_weights(s, 0.5, "joint")
        lx3, lw3 = lambda_weights(s, 1.5, "joint")
        assert lx3 == pytest.approx(3 * lx1) and lw3 == pytest.approx(3 * lw1)

    def test_rejects_nonpositive_gamma(self):
        s = stats_from_sigmas(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            lambda_weights(s, 0.0, "joint")


class TestSolvePartition:
    def test_diagonal_selects_dominant_direction(self):
        # gamma cancels in the argmax; use unit lambdas via matching energies
        s = stats_from_sigmas(np.diag([4.0, 1.0]), np.diag([1.0, 2.0]),
                              energy_x=1.0, energy_w=1.0)
        part = solve_partition(s, rank=1, gamma_low=1.0, seed=0)
        # M = diag(5, 3) -> top eigenvector e1
        assert np.allclose(np.abs(part.p_h[:, 0]), [1.0, 0.0], atol=1e-10)

    def test_weight_covariance_can_flip_choice(self):
        s = stats_from_sigmas(np.diag([4.0, 1.0]), np.diag([1.0, 2.0]),
                              energy_x=4.0, energy_w=1.0)
        part = solve_partition(s, rank=1, gamma_low=1.0, seed=0)
        # lambda_x = 1, lambda_w = 4 -> M = diag(8, 9) -> e2 wins
        assert np.allclose(np.abs(part.p_h[:, 0]), [0.0, 1.0], atol=1e-10)
        assert part.lambda_w == 4.0

    def test_invariants(self):
        s = stats_from_sigmas(random_psd(8, 0), random_psd(8, 1))
        part = solve_partition(s, rank=2, gamma_low=0.01, seed=3)
        assert np.allclose(part.p_h.T @ part.p_h, np.eye(2), atol=1e-8)
        assert np.allclose(part.p_l.T @ part.p_l, np.eye(6), atol=1e-8)
        assert np.max(np.abs(part.p_h.T @ part.p_l)) < 1e-8
        assert np.max(np.abs(part.u @ part.u.T - np.eye(8))) < 1e-8
        assert part.rank == 2 and part.dim == 8

    def test_random_search_dominance(self):
        s = stats_from_sigmas(random_psd(8, 2), random_psd(8, 3))
        part = solve_partition(s, rank=2, gamma_low=0.1, seed=1)
        m = part.lambda_x * s.sigma_x + part.lambda_w * s.sigma_w
        best = surrogate_objective(part, s)
        rng = np.random.default_rng(0)
        cand = np.linalg.qr(rng.standard_normal((10_000, 8, 2)))[0]
        vals = np.einsum("kij,il,klj->k", cand, m, cand)
        assert best >= vals.max() - 1e-8 * np.linalg.norm(m)

    def test_activation_only_matches_sigma_x_eigenvectors(self):
        s = stats_from_sigmas(random_psd(6, 4), random_psd(6, 5))
        part = solve_partition(s, rank=2, objective="activation",
                               gamma_low=1.0, seed=0)
        top = sym_eig(s.sigma_x).vectors[:, :2]
        # column spaces agree
        assert np.allclose(np.abs(part.p_h.T @ top), np.eye(2), atol=1e-7)

    def test_scale_invariance_of_argmax(self):
        s = stats_from_sigmas(random_psd(6, 6), random_psd(6, 7))
        a = solve_partition(s, rank=2, gamma_low=1.0, seed=0)
        b = solve_partition(s, rank=2, gamma_low=123.0, seed=0)
        assert np.allclose(a.p_h, b.p_h, atol=1e-9)

    def test_zero_weight_covariance_falls_back(self):
        s = stats_from_sigmas(random_psd(4, 8), np.zeros((4, 4)))
        part = solve_partition(s, rank=1, gamma_low=1.0, seed=0)
        top = sym_eig(s.sigma_x).vectors[:, :1]
        assert np.allclose(np.abs(part.p_h.T @ top), 1.0, atol=1e-8)

    def test_no_signal(self):
        s = stats_from_sigmas(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(NoSignalError):
            solve_partition(s, rank=1, gamma_low=1.0, seed=0)

    def test_rank_out_of_range(self):
        s = stats_from_sigmas(np.eye(3), np.eye(3))
        for r in (0, 3, 5):
            with pytest.raises(ValueError):
                solve_partition(s, rank=r, gamma_low=1.0, seed=0)

    def test_hadamard_rotation_when_power_of_two(self, rotation_calls):
        s = stats_from_sigmas(random_psd(6, 9), random_psd(6, 10))
        part = solve_partition(s, rank=2, gamma_low=1.0, seed=0,
                               rotation="hadamard")
        # r=2 is a power of two -> Hadamard; d-r=4 as well
        assert np.array_equal(part.u, np.hstack([part.p_l @ hadamard(4),
                                                 part.p_h @ hadamard(2)]))
        assert rotation_calls == []

    def test_hadamard_falls_back_to_random_for_other_sizes(self, rotation_calls):
        s = stats_from_sigmas(random_psd(6, 9), random_psd(6, 10))
        part = solve_partition(s, rank=2, gamma_low=1.0, seed=0,
                               rotation="hadamard")
        part = dataclasses.replace(part, rank=1)
        # blocks of 1 and 5: H_1 = [1], and 5 is not a power of two
        assert np.array_equal(part.u, np.hstack([part.p_l @ random_orthogonal(5, 1),
                                                 part.p_h]))
        assert rotation_calls == [(5, 1)]

    def test_stores_one_basis_and_derives_the_rest(self):
        s = stats_from_sigmas(random_psd(6, 9), random_psd(6, 10))
        part = solve_partition(s, rank=2, gamma_low=1.0, seed=0)
        assert part.vectors.flags.c_contiguous and part.vectors.shape == (6, 6)
        assert np.shares_memory(part.p_h, part.vectors)
        assert np.shares_memory(part.p_l, part.vectors)
        assert [f.name for f in dataclasses.fields(part) if f.init] == [
            "vectors", "eigenvalues", "rank", "seed", "rotation",
            "lambda_x", "lambda_w"]

    def test_deterministic(self):
        s = stats_from_sigmas(random_psd(5, 11), random_psd(5, 12))
        a = solve_partition(s, rank=2, gamma_low=1.0, seed=9)
        b = solve_partition(s, rank=2, gamma_low=1.0, seed=9)
        assert np.array_equal(a.u, b.u)


class TestSharedRotations:
    def stats(self, d=8):
        return stats_from_sigmas(random_psd(d, 20), random_psd(d, 21))

    def test_outside_a_scope_each_plan_gets_a_fresh_writable_rotation(
            self, rotation_calls):
        s = self.stats()
        a = solve_partition(s, rank=2, gamma_low=1.0, seed=3)
        b = solve_partition(s, rank=2, gamma_low=1.0, seed=3)
        assert rotation_calls == []  # u is derived on first use
        assert np.array_equal(a.u, b.u)
        assert len(rotation_calls) == 4
        r1 = solver._internal_rotation(6, 4, "random")
        r2 = solver._internal_rotation(6, 4, "random")
        assert r1 is not r2 and np.array_equal(r1, r2)
        assert r1.flags.writeable and r2.flags.writeable

    def test_shared_arrays_are_read_only_and_bit_identical(self, rotation_calls):
        s = self.stats()
        with shared_rotations():
            a = solve_partition(s, rank=2, gamma_low=1.0, seed=3)
            b = solve_partition(s, rank=2, objective="activation",
                                gamma_low=1.0, seed=3)
            had = solve_partition(s, rank=4, gamma_low=1.0, seed=3,
                                  rotation="hadamard")
            assert rotation_calls == []
            us = [part.u for part in (a, b, had)]  # derived in the scope
            assert rotation_calls == [(2, 3), (6, 4)]
            r_h = solver._internal_rotation(2, 3, "random")
            r_l = solver._internal_rotation(6, 4, "random")
            assert r_h is solver._internal_rotation(2, 3, "random")
            # a Hadamard block depends on its size alone: both blocks of 4 share it
            h = solver._internal_rotation(4, 3, "hadamard")
            assert h is solver._internal_rotation(4, 4, "hadamard")
        assert rotation_calls == [(2, 3), (6, 4)]
        assert np.array_equal(r_h, random_orthogonal(2, 3))
        assert np.array_equal(r_l, random_orthogonal(6, 4))
        assert np.array_equal(h, hadamard(4))
        for part, u in zip((a, b), us):
            assert np.array_equal(u, np.hstack([part.p_l @ r_l, part.p_h @ r_h]))
        assert np.array_equal(us[2], np.hstack([had.p_l @ h, had.p_h @ h]))
        for r in (r_h, r_l, h):
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[0, 0] = 0.0

    @pytest.mark.parametrize("rotation", ROTATIONS)
    def test_plans_inside_and_outside_a_scope_agree_bit_for_bit(self, rotation):
        s = self.stats()
        outside = solve_partition(s, rank=4, gamma_low=1.0, seed=5,
                                  rotation=rotation)
        with shared_rotations():
            # the first u derived in the scope computes the rotations
            solve_partition(s, rank=4, objective="weight", gamma_low=1.0,
                            seed=5, rotation=rotation).u
            inside = solve_partition(s, rank=4, gamma_low=1.0, seed=5,
                                     rotation=rotation)
            u_inside = inside.u
        assert np.array_equal(u_inside, outside.u)
        for name in ("vectors", "eigenvalues"):
            assert np.array_equal(getattr(inside, name), getattr(outside, name))

    def test_nothing_is_cached_after_the_scope(self, rotation_calls):
        s = self.stats()
        def derive_u():
            return solve_partition(s, rank=2, gamma_low=1.0, seed=3).u

        with shared_rotations():
            derive_u()
            derive_u()
        assert len(rotation_calls) == 2
        assert solver._shared.get() is None
        with shared_rotations():
            derive_u()
        assert len(rotation_calls) == 4
        derive_u()
        assert len(rotation_calls) == 6

    def test_scope_is_dropped_when_its_body_raises(self):
        with pytest.raises(NoSignalError):
            with shared_rotations():
                solve_partition(stats_from_sigmas(np.zeros((3, 3)), np.zeros((3, 3))),
                                rank=1, gamma_low=1.0, seed=0)
        assert solver._shared.get() is None


class TestObjectives:
    def test_surrogate_diagonal(self):
        s = stats_from_sigmas(np.diag([5.0, 3.0]), np.zeros((2, 2)),
                              energy_x=1.0, energy_w=1.0)
        part = solve_partition(s, rank=1, objective="activation",
                               gamma_low=1.0, seed=0)
        assert surrogate_objective(part, s) == pytest.approx(5.0)

    def test_surrogate_for_suboptimal_basis(self):
        s = stats_from_sigmas(np.diag([5.0, 3.0]), np.zeros((2, 2)),
                              energy_x=1.0, energy_w=1.0)
        part = solve_partition(s, rank=1, objective="activation",
                               gamma_low=1.0, seed=0)
        # p_h = e2, p_l = e1
        swapped = dataclasses.replace(part, vectors=np.eye(2)[:, ::-1])
        assert surrogate_objective(swapped, s) == pytest.approx(3.0)

    def test_surrogate_equals_top_eigenvalue_sum(self):
        s = stats_from_sigmas(random_psd(7, 13), random_psd(7, 14))
        part = solve_partition(s, rank=3, gamma_low=0.05, seed=2)
        assert surrogate_objective(part, s) == pytest.approx(
            float(np.sum(part.eigenvalues[:3])), rel=1e-8)

    def test_full_and_surrogate_agree_on_diagonal_argmax(self):
        # exhaustive check over canonical axes with a small cross-penalty
        sx = np.diag([9.0, 5.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.2])
        sw = np.diag([0.1, 0.3, 0.2, 0.5, 0.15, 0.1, 0.05, 0.02])
        s = stats_from_sigmas(sx, sw)
        gl, gh = 1e-3, 1e-4
        lx = gl * s.energy_w
        lw = gl * s.energy_x
        surro, full = [], []
        for i in range(8):
            xh, wh = sx[i, i], sw[i, i]
            surro.append(lx * xh + lw * wh)
            full.append(gl * s.energy_w * xh + gl * s.energy_x * wh
                        - (gl + gh) * xh * wh)
        assert np.argmax(surro) == np.argmax(full)

    def test_empty_partition_is_rejected(self):
        s = stats_from_sigmas(np.eye(3), np.eye(3))
        part = solve_partition(s, rank=1, gamma_low=1.0, seed=0)
        # a rank of 0 or d leaves one block empty: it has no rotation
        for rank in (0, 3):
            with pytest.raises(DimensionMismatchError):
                dataclasses.replace(part, rank=rank)


def test_reconstruction_identity():
    rng = np.random.default_rng(17)
    s = stats_from_sigmas(random_psd(8, 18), random_psd(8, 19))
    part = solve_partition(s, rank=2, gamma_low=1.0, seed=4)
    x = rng.standard_normal((20, 8))
    rec = (x @ part.u) @ part.u.T
    assert np.linalg.norm(x - rec) <= 1e-7 * np.linalg.norm(x)
