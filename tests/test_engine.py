import dataclasses
import tracemalloc

import numpy as np
import pytest

from reference import execute_plan_reference
from subquant import engine
from subquant.calib import CalibStats, ProjectionGroup, kv_key_stats, kv_value_stats
from subquant.engine import (
    analyze_layer,
    build_kv_plans,
    build_plan,
    decompose,
    execute_plan,
    predict_error,
    stats_from_tensors,
)
from subquant.errors import DimensionMismatchError
from subquant.solver import solve_partition
from subquant.synth import aligned_spec, generate_instance, weight_anisotropic_spec


def make_plan(x, w, rank=2, bits_low=4, bits_high=8, seed=0, **kw):
    return build_plan(stats_from_tensors(x, w), rank, bits_low, bits_high,
                      seed=seed, **kw)


def random_instance(n, d, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((d, m))


class TestDecompose:
    def test_identity_coordinate_partition(self):
        s = stats_from_tensors(np.eye(2), np.eye(2))
        part = solve_partition(s, rank=1, gamma_low=1.0, seed=0)
        part = dataclasses.replace(part, u=np.eye(2), p_h=np.eye(2)[:, 1:],
                                   p_l=np.eye(2)[:, :1])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        x_l, x_h, w_l, w_h = decompose(x, np.eye(2), part)
        assert np.array_equal(x_l, x[:, :1])
        assert np.array_equal(x_h, x[:, 1:])

    def test_recomposition(self):
        x, w = random_instance(10, 8, 5, seed=0)
        plan = make_plan(x, w)
        x_l, x_h, w_l, w_h = decompose(x, w, plan.partition)
        y = x @ w
        assert np.linalg.norm(x_l @ w_l + x_h @ w_h - y) <= 1e-6 * np.linalg.norm(y)

    def test_zeros(self):
        x, w = random_instance(4, 8, 3, seed=1)
        plan = make_plan(x, w)
        x_l, x_h, _, _ = decompose(np.zeros((4, 8)), w, plan.partition)
        assert not x_l.any() and not x_h.any()

    def test_shape_mismatch(self):
        x, w = random_instance(4, 8, 3, seed=2)
        plan = make_plan(x, w)
        with pytest.raises(DimensionMismatchError):
            decompose(np.zeros((4, 7)), w, plan.partition)


class TestExecutePlan:
    def test_bypass_matches_full_precision(self):
        x, w = random_instance(16, 8, 8, seed=3)
        plan = make_plan(x, w, bypass=True)
        y_hat, report = execute_plan(x, w, plan)
        y = x @ w
        assert np.linalg.norm(y_hat - y) <= 1e-6 * np.linalg.norm(y)
        assert report.bits_low is None

    def test_grid_aligned_exact(self):
        # integer tensors whose per-group ranges hit the scale-1 grid quantize
        # losslessly in the identity basis
        rng = np.random.default_rng(4)
        x = rng.integers(-7, 8, size=(6, 4)).astype(float)
        w = rng.integers(-7, 8, size=(4, 4)).astype(float)
        x[:, 0] = 7.0  # per-token groups of x_l span cols 0..2: max|.| = 7
        w[0, :] = 7.0  # per-channel groups of w_l span rows 0..2: max|.| = 7
        # x_h / w_h groups are single elements, which always round-trip
        s = stats_from_tensors(x, w)
        plan = build_plan(s, 1, 4, 8, seed=0)
        ident = dataclasses.replace(
            plan.partition, u=np.eye(4),
            p_l=np.eye(4)[:, :3], p_h=np.eye(4)[:, 3:])
        plan = dataclasses.replace(
            plan, partition=ident,
            spec_low=dataclasses.replace(plan.spec_low, symmetric=True),
            spec_high=dataclasses.replace(plan.spec_high, symmetric=True))
        _, report = execute_plan(x, w, plan)
        assert report.exact_error == 0.0

    @pytest.mark.parametrize("seed,n,bypass", [(s, 576, False) for s in range(5)]
                             + [(5, 549, False), (6, 549, True)],
                             ids=["0", "1", "2", "3", "4", "tail", "tail-bypass"])
    def test_matches_straight_line_reference(self, monkeypatch, seed, n, bypass):
        # 5-row residual blocks are raised to the 256-row floor: 576 rows make
        # three blocks, 549 leave a 37-row tail
        monkeypatch.setattr(engine, "BLOCK_BYTES", 5 * 8 * 16)
        x, w = random_instance(n, 16, 16, seed=seed)
        plan = make_plan(x, w, rank=2, bypass=bypass)
        y_hat, report = execute_plan(x, w, plan)
        y_ref = execute_plan_reference(x, w, plan)
        assert np.allclose(y_hat, y_ref, rtol=1e-9, atol=1e-12)
        assert report.exact_error == pytest.approx(
            np.sum((y_ref - x @ w) ** 2), rel=1e-9)

    def test_block_rows_at_d_512(self, monkeypatch):
        # m = 1024 fits 128 rows in BLOCK_BYTES; the floor raises that to 256
        x, w = random_instance(600, 512, 1024, seed=8)
        plan = make_plan(x, w, rank=64)
        rows = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b, out):
                rows.append(out.shape[0])
                return np.matmul(a, b, out=out)

        monkeypatch.setattr(engine, "np", RecordingNumpy())
        y_hat, report = execute_plan(x, w, plan)
        assert rows == [256, 256, 88]
        assert report.exact_error == pytest.approx(np.sum((x @ w - y_hat) ** 2),
                                                   rel=1e-9)

    def test_output_is_the_only_n_by_m_allocation(self):
        n, d, m = 4096, 8, 256
        x, w = random_instance(n, d, m, seed=7)
        plan = make_plan(x, w, rank=2)
        tracemalloc.start()
        try:
            execute_plan(x, w, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = n * m * 8
        assert output <= peak < 1.5 * output

    def test_report_energies(self):
        x, w = random_instance(10, 8, 4, seed=6)
        plan = make_plan(x, w)
        _, report = execute_plan(x, w, plan)
        assert report.energy_x_low + report.energy_x_high == \
            pytest.approx(np.sum(x**2), rel=1e-9)
        assert report.energy_w_low + report.energy_w_high == \
            pytest.approx(np.sum(w**2), rel=1e-9)


class TestPredictError:
    def test_zero_energies(self):
        assert predict_error((0.0, 0.0), (0.0, 0.0), 4, 8, (7, 1)) == 0.0

    def test_low_subspace_substitution(self):
        assert predict_error((1.0, 0.0), (1.0, 0.0), 4, 8, (7, 1)) == \
            pytest.approx(2.0 / 343.0)

    def test_monte_carlo_within_factor_three(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4096, 32))
        w = rng.standard_normal((32, 32))
        plan = make_plan(x, w, rank=4, seed=8)
        _, report = execute_plan(x, w, plan)
        ratio = report.exact_error / report.predicted_error
        assert 1.0 / 3.0 <= ratio <= 3.0

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            predict_error((-1.0, 0.0), (0.0, 0.0), 4, 8, (1, 1))


class TestAnalyzeLayer:
    def test_aligned_instance_reduction_near_zero(self):
        x, w = generate_instance(aligned_spec(16, 128, 16, seed=3))
        joint, act, _ = analyze_layer(x, w, rank=2, bits_low=4, bits_high=8, seed=3)
        assert act.relative_reduction == 0.0
        assert abs(joint.relative_reduction) < 0.2

    def test_weight_dominant_instance_joint_wins(self):
        x, w = generate_instance(weight_anisotropic_spec(32, 256, 32, seed=0))
        joint, act, _ = analyze_layer(x, w, rank=4, bits_low=4, bits_high=8, seed=0)
        assert joint.exact_error < act.exact_error
        assert joint.relative_reduction > 0.0

    def test_campaign_win_rate(self):
        # smaller sibling of the acceptance campaign
        wins = 0
        for k in range(20):
            x, w = generate_instance(weight_anisotropic_spec(32, 128, 16, seed=k))
            joint, act, _ = analyze_layer(x, w, rank=4, bits_low=4,
                                          bits_high=8, seed=k)
            wins += joint.exact_error <= act.exact_error
        assert wins >= 18

    def test_each_rotation_is_computed_once_per_call(self, rotation_calls):
        x, w = random_instance(32, 16, 8, seed=9)
        analyze_layer(x, w, rank=2, bits_low=4, bits_high=8, seed=4)
        assert rotation_calls == [(2, 4), (14, 5)]
        # nothing outlives the call: the next one computes them again
        analyze_layer(x, w, rank=2, bits_low=4, bits_high=8, seed=4)
        assert len(rotation_calls) == 4

    def test_shared_rotations_leave_reports_unchanged(self):
        x, w = random_instance(32, 16, 8, seed=10)
        stats = stats_from_tensors(x, w)
        reports = analyze_layer(x, w, rank=2, bits_low=4, bits_high=8, seed=4)
        for rep in reports:
            plan = build_plan(stats, 2, 4, 8, objective=rep.objective, seed=4)
            _, alone = execute_plan(x, w, plan)
            assert rep.exact_error == alone.exact_error

    def test_report_order_and_objectives(self):
        x, w = random_instance(16, 8, 4, seed=9)
        reports = analyze_layer(x, w, rank=1, bits_low=4, bits_high=8)
        assert [r.objective for r in reports] == ["joint", "activation", "weight"]


class TestInvariantsAndProperties:
    def test_rotation_equivalence(self):
        for seed in range(10):
            x, w = random_instance(12, 16, 8, seed=seed)
            plan = make_plan(x, w, rank=2, seed=seed)
            u = plan.partition.u
            y = x @ w
            assert np.linalg.norm(y - (x @ u) @ (u.T @ w)) <= \
                1e-6 * np.linalg.norm(y)

    def test_error_monotone_in_bits_on_average(self):
        worse, better = [], []
        for seed in range(30):
            x, w = random_instance(32, 16, 8, seed=seed)
            stats = stats_from_tensors(x, w)
            for bits, sink in ((4, worse), (8, better)):
                plan = build_plan(stats, 2, bits, 8, seed=seed)
                _, rep = execute_plan(x, w, plan)
                sink.append(rep.exact_error)
        assert np.mean(better) <= np.mean(worse)

    def test_identity_shift_keeps_selection(self):
        x, w = random_instance(24, 8, 8, seed=10)
        stats = stats_from_tensors(x, w)
        base = solve_partition(stats, rank=2, gamma_low=1.0, seed=0)
        for c in (0.1, 1.0, 10.0):
            shifted = dataclasses.replace(
                stats, sigma_w=stats.sigma_w + c * np.eye(8))
            part = solve_partition(shifted, rank=2, gamma_low=1.0, seed=0)
            overlap = np.linalg.svd(base.p_h.T @ part.p_h, compute_uv=False)
            assert np.all(np.abs(overlap - 1.0) < 1e-6)

    def test_near_full_rank_with_high_bypass(self):
        # r = d-1 with the high side bypassed leaves only a 1-dim quantized slice
        x, w = random_instance(32, 8, 8, seed=11)
        stats = stats_from_tensors(x, w)
        plan = build_plan(stats, 7, 4, 8, seed=0)
        plan = dataclasses.replace(plan, spec_high=None, spec_high_w=None)
        _, wide = execute_plan(x, w, plan)
        narrow = build_plan(stats, 2, 4, 8, seed=0)
        _, rep2 = execute_plan(x, w, narrow)
        assert wide.exact_error < rep2.exact_error


class TestKvPlans:
    def heads(self, n_heads, seed):
        rng = np.random.default_rng(seed)
        return [kv_value_stats(rng.standard_normal((16, 8)),
                               rng.standard_normal((8, 8)), head_index=h)
                for h in range(n_heads)]

    def test_identical_stats_identical_partitions(self):
        rng = np.random.default_rng(12)
        v, wo = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
        stats = [kv_value_stats(v, wo, head_index=h) for h in range(3)]
        plans = build_kv_plans(stats, rank=1, bits_low=4, bits_high=8, seed=5)
        assert all(np.array_equal(p.partition.u, plans[0].partition.u)
                   for p in plans)

    def test_identity_wo_reduces_to_value_covariance_selection(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((32, 8))
        stats = kv_value_stats(v, np.eye(8))
        plans = build_kv_plans([stats], rank=2, bits_low=4, bits_high=8, seed=0)
        act = solve_partition(stats, rank=2, objective="activation",
                              gamma_low=1.0, seed=0)
        overlap = np.linalg.svd(plans[0].partition.p_h.T @ act.p_h,
                                compute_uv=False)
        assert np.all(np.abs(overlap - 1.0) < 1e-7)

    def test_per_head_matches_direct_solve(self):
        stats = self.heads(4, seed=14)
        plans = build_kv_plans(stats, rank=2, bits_low=4, bits_high=8, seed=7)
        from subquant.quantizer import combined_error_coeff
        for st, plan in zip(stats, plans):
            direct = solve_partition(st, 2, gamma_low=combined_error_coeff(4, 6),
                                     seed=7)
            assert np.array_equal(plan.partition.u, direct.u)

    def test_key_path_plans(self):
        rng = np.random.default_rng(15)
        stats = [kv_key_stats(rng.standard_normal((16, 8)),
                              rng.standard_normal((24, 8)), head_index=h)
                 for h in range(2)]
        plans = build_kv_plans(stats, rank=1, bits_low=4, bits_high=8)
        assert len(plans) == 2
        assert all(p.spec_low.symmetric is False for p in plans)

    def test_heads_share_one_pair_of_rotations(self, rotation_calls):
        plans = build_kv_plans(self.heads(4, seed=16), rank=2, bits_low=4,
                               bits_high=8, seed=7)
        assert rotation_calls == [(2, 7), (6, 8)]
        assert all(p.partition.r_l is plans[0].partition.r_l for p in plans)

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            build_kv_plans([], rank=1, bits_low=4, bits_high=8)


def test_plan_bit_ordering_enforced():
    x, w = random_instance(8, 8, 4, seed=16)
    with pytest.raises(ValueError):
        make_plan(x, w, bits_low=8, bits_high=4)
