import dataclasses
import tracemalloc

import numpy as np
import pytest

from groupings import as_rows
from reference import (
    assert_reports_agree, assert_within_f32_gram_bound, execute_plan_reference,
    quantize_reference)
from subquant import engine, formats, linalg, solver
from subquant.calib import ProjectionGroup
from subquant.engine import (
    ErrorReport,
    analyze_layer,
    build_plan,
    execute_plan,
    measure_plan,
    predict_error,
    stats_from_tensors,
    use_gram_form,
)
from subquant.errors import DimensionMismatchError, ScaleRangeError
from subquant.linalg import HIGH_ROTATION, LOW_ROTATION
from subquant.quantizer import QuantResult, quantize
from subquant.solver import OBJECTIVES, solve_partition
from subquant.synth import aligned_spec, generate_instance, weight_anisotropic_spec


def make_plan(x, w, rank=2, bits_low=4, bits_high=8, seed=0):
    return build_plan(stats_from_tensors(x, w), rank, bits_low, bits_high, seed=seed)


def random_instance(n, d, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((d, m))


class TestExecutePlan:
    def test_shape_mismatch(self):
        x, w = random_instance(4, 8, 3, seed=2)
        plan = make_plan(x, w)
        with pytest.raises(DimensionMismatchError):
            execute_plan(np.zeros((4, 7)), w, plan)
        with pytest.raises(DimensionMismatchError):
            execute_plan(x, np.zeros((7, 3)), plan)

    @pytest.mark.parametrize("measure", [measure_plan, execute_plan],
                             ids=["measure", "execute"])
    def test_x_with_no_rows_rejected(self, measure):
        x, w = random_instance(4, 8, 3, seed=2)
        with pytest.raises(DimensionMismatchError, match="at least one row"):
            measure(np.empty((0, 8)), w, make_plan(x, w))

    @pytest.mark.parametrize("n,m", [(6, 4), (64, 64)], ids=["rows", "gram"])
    def test_grid_aligned_exact(self, monkeypatch, n, m):
        # integer tensors whose per-group ranges hit the scale-1 grids of
        # 4 bits quantize losslessly in the identity basis
        assert use_gram_form(n, 4, m) == (n == 64)
        rng = np.random.default_rng(4)
        x = rng.integers(-7, 8, size=(n, 4)).astype(float)
        w = rng.integers(-7, 8, size=(4, m)).astype(float)
        # per-token asymmetric groups of x_l span cols 0..2, on the grid
        # min + [0, 15]: each row's range is 15
        x[:, 0] = x[:, 2] - 8.0
        x[:, 1] = x[:, 2] + 7.0
        w[0, :] = 7.0  # per-channel symmetric groups of w_l: max|.| = 7
        # x_h / w_h groups are single elements, which always round-trip
        s = stats_from_tensors(x, w)
        plan = build_plan(s, 1, 4, 8, seed=0)
        # p_h = e4, p_l = (e1, e2, e3), with no internal rotation
        monkeypatch.setattr(solver, "_internal_rotation",
                            lambda dim, seed, role, rotation: np.eye(dim))
        ident = dataclasses.replace(plan.partition, vectors=np.eye(4)[:, [3, 0, 1, 2]])
        assert np.array_equal(ident.u, np.eye(4))
        plan = dataclasses.replace(plan, partition=ident)
        for report in (measure_plan(x, w, plan), execute_plan(x, w, plan)[1]):
            assert report.exact_error == 0.0

    @pytest.mark.parametrize("seed,n", [(s, 576) for s in range(5)] + [(5, 549)],
                             ids=["0", "1", "2", "3", "4", "tail"])
    def test_matches_straight_line_reference(self, monkeypatch, seed, n):
        # 5-row residual blocks are raised to the 256-row floor: 576 rows make
        # three blocks, 549 leave a 37-row tail
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 5 * 8 * 16)
        x, w = random_instance(n, 16, 16, seed=seed)
        plan = make_plan(x, w, rank=2)
        y_hat, report = execute_plan(x, w, plan)
        y_ref = execute_plan_reference(x, w, plan)
        assert np.allclose(y_hat, y_ref, rtol=1e-9, atol=1e-12)
        assert report.exact_error == pytest.approx(
            np.sum((y_ref - x @ w) ** 2), rel=1e-9)

    def test_block_rows_at_d_512(self, monkeypatch):
        # m = 1024 fits 128 rows in BLOCK_BYTES; the floor raises that to 256.
        # After B = u^T W, each block is two products, X_b W and A_hat_b B_hat
        n, m = 600, 1024
        x, w = random_instance(n, 512, m, seed=8)
        plan = make_plan(x, w, rank=64)
        assert not use_gram_form(n, 512, m)
        rows = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b, out):
                if out.shape[1] == m:
                    rows.append(out.shape[0])
                return np.matmul(a, b, out=out)

        # B = u^T W is the partition's product, the rest the engine's
        for module in (engine, solver):
            monkeypatch.setattr(module, "np", RecordingNumpy())
        y_hat, report = execute_plan(x, w, plan)
        assert rows == [512, 256, 256, 256, 256, 88, 88]
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


# (n, d, m) on each side of the shape rule; with rows = 48 (see `blocked`)
# the row-block shape spans three blocks and a tail
SHAPES = {"gram": (120, 8, 64), "rows": (120, 16, 16)}
GRANULARITIES = ("per-tensor", "per-token", "per-channel", "per-head")
SPECS = [(bits, granularity, symmetric) for bits in (2, 4, 8, 16)
         for granularity in GRANULARITIES for symmetric in (False, True)]


def grouped(dequantize, granularity, symmetric):
    """A quantizer (m, bits, side) -> m dequantized that applies `dequantize`
    at `symmetric`, whatever symmetry it is asked for, to the groups of
    `granularity` (heads of 2 columns) on the B^T side, which the engine
    asks for symmetric groups. A plan quantizes in one scheme, but the two
    forms of the measured error hold for any quantizer, so they are checked
    against these. The engine reads X in row blocks, so a group of A must lie
    in one row: on the A side the groups are tokens."""
    def q(m, bits, side):
        by = granularity if side else "per-token"
        flat = as_rows(np.arange(m.size).reshape(m.shape), by, 2)
        out = np.empty(m.size)
        out[flat] = dequantize(as_rows(m, by, 2), bits, symmetric)
        return out.reshape(m.shape)
    return q


def spec_plan(monkeypatch, x, w, bits, granularity, symmetric):
    """A rank-2 plan at `bits` whose four blocks the engine quantizes as
    `grouped`, and the same quantizer built on the reference."""
    lib = grouped(lambda g, *a: quantize(g, *a).dequantized, granularity, symmetric)
    monkeypatch.setattr(engine, "quantize",
                        lambda m, *a: QuantResult(lib(m, *a), None, None))
    plan = make_plan(x, w, rank=2, bits_low=bits, bits_high=bits, seed=bits)
    return plan, grouped(lambda g, *a: quantize_reference(g, *a)[0],
                         granularity, symmetric)


@pytest.fixture
def blocked(monkeypatch):
    """Measurement's row blocks of 48 rows (calibration's too at d = 16)."""
    monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 48 * 8 * 16)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMeasurePlan:
    @pytest.mark.parametrize("form", sorted(SHAPES))
    def test_shapes_fall_on_their_side_of_the_rule(self, form):
        assert use_gram_form(*SHAPES[form]) == (form == "gram")

    @pytest.mark.parametrize("form", sorted(SHAPES))
    @pytest.mark.parametrize("bits,granularity,symmetric", SPECS)
    def test_matches_reference(self, blocked, monkeypatch, form, bits, granularity,
                               symmetric):
        n, d, m = SHAPES[form]
        x, w = random_instance(n, d, m, seed=bits)
        plan, reference = spec_plan(monkeypatch, x, w, bits, granularity, symmetric)
        y_ref = execute_plan_reference(x, w, plan, reference)
        assert measure_plan(x, w, plan).exact_error == pytest.approx(
            np.sum((y_ref - x @ w) ** 2), rel=1e-9)

    @pytest.mark.parametrize("bits,granularity,symmetric", SPECS)
    def test_gram_and_row_block_forms_agree(self, blocked, monkeypatch, bits,
                                            granularity, symmetric):
        x, w = random_instance(*SHAPES["gram"], seed=bits)
        plan, _ = spec_plan(monkeypatch, x, w, bits, granularity, symmetric)
        errors = []
        for gram in (True, False):
            monkeypatch.setattr(engine, "use_gram_form", lambda n, d, m: gram)
            errors.append(measure_plan(x, w, plan).exact_error)
        assert errors[0] == pytest.approx(errors[1], rel=1e-10)

    @pytest.mark.parametrize("form", sorted(SHAPES))
    def test_execute_reports_what_measure_reports(self, blocked, form):
        x, w = random_instance(*SHAPES[form], seed=12)
        plan = make_plan(x, w, rank=3)
        _, executed = execute_plan(x, w, plan)
        assert measure_plan(x, w, plan) == executed

    @pytest.mark.parametrize("form", sorted(SHAPES))
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_measurement_raises(self, blocked, form, scale):
        # a plan solved on unit-scale data, measured on an X far beyond it:
        # unchecked, the Gram form's error reads NaN and the row blocks' inf
        x, w = random_instance(*SHAPES[form], seed=4)
        plan = make_plan(x, w)
        for measure in (measure_plan, lambda *a: execute_plan(*a)[1]):
            with pytest.raises(ScaleRangeError, match="overflows float64"):
                measure(x * scale, w, plan)

    # d = 16 at rank 2, n = 120: m = 64 is measured in the Gram form, 16 in rows
    @pytest.mark.parametrize("m", [64, 16], ids=["gram", "rows"])
    @pytest.mark.parametrize("side", ["x", "w"])
    @pytest.mark.parametrize("value", [1.7e308, np.nan, -np.inf])
    def test_input_is_classified_by_its_rotated_energies(self, blocked, m, side, value):
        # finite entries whose rotation overflows are a numerical failure, as
        # calibration finds their squares to be; NaN or +-inf is bad input
        x, w = generate_instance(weight_anisotropic_spec(16, 120, m, seed=0))
        plan = make_plan(x, w)
        if side == "x":
            x[50] = value * np.where(np.arange(16) % 2, 1.0, -1.0)  # second block
        else:
            w[:, 3] = value * np.where(np.arange(16) % 2, 1.0, -1.0)
        error, match = ((ScaleRangeError, f"rotated {side}'s squares overflows float64")
                        if np.isfinite(value)
                        else (ValueError, f"^{side} contains non-finite entries$"))
        for measure in (measure_plan, lambda *a: execute_plan(*a)[1]):
            with pytest.raises(error, match=match):
                measure(x, w, plan)

    def test_gram_sum_rounded_below_zero_is_clamped(self, monkeypatch):
        # scaling the activations by 3 and the weights by 1/3 leaves
        # A_hat B_hat = A B, so ||E||^2 = 0 and the Gram sum is rounding
        # alone (about -4e-12 unclamped, with OpenBLAS, for this seed)
        monkeypatch.setattr(engine, "quantize", lambda x, bits, symmetric: QuantResult(
            x * (1 / 3.0 if symmetric else 3.0), None, None))
        x, w = random_instance(64, 4, 64, seed=0)
        assert use_gram_form(64, 4, 64)
        report = measure_plan(x, w, make_plan(x, w, rank=1))
        assert 0.0 <= report.exact_error < 1e-9

    def test_gram_form_holds_no_quarter_of_an_n_by_m_array(self):
        n, d, m = 8192, 16, 512
        assert use_gram_form(n, d, m)
        x, w = random_instance(n, d, m, seed=13)
        plan = make_plan(x, w, rank=2)
        assert traced_peak(measure_plan, x, w, plan) < n * m * 8 / 4

    @pytest.mark.parametrize("n,d,m", [(8192, 16, 512), (4096, 256, 512)],
                             ids=["gram", "rows"])
    def test_error_needs_no_quarter_of_an_n_by_m_array(self, n, d, m):
        x, w = random_instance(n, d, m, seed=14)
        plan = make_plan(x, w, rank=d // 8)
        plan.partition.u  # derived on first use; a plan's cost, not the error's
        # count what is allocated beyond the one operand held throughout,
        # B_hat = u^T W quantized, of W's shape
        for fn in (measure_plan, execute_plan):
            peak = traced_peak(fn, x, w, plan) - w.nbytes
            if fn is measure_plan:
                assert peak < n * m * 8 / 4
            else:
                assert peak >= n * m * 8

    @pytest.mark.parametrize("form", sorted(SHAPES))
    def test_mapped_f32_x_reports_as_its_f64_copy(self, tmp_path, monkeypatch, form):
        # blocks of MIN_BLOCK_ROWS (256): three and a 37-row tail
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
        (_, d, m), n = SHAPES[form], 3 * 256 + 37
        assert use_gram_form(n, d, m) == (form == "gram")
        x, w = random_instance(n, d, m, seed=19)
        path = str(tmp_path / "x.cqt")
        formats.write_tensor(path, "x", x, dtype="f32")
        mapped, copy = formats.map_tensor(path), formats.read_tensor(path)
        assert mapped.dtype == np.float32
        plan = make_plan(copy, w, rank=2)
        assert measure_plan(mapped, w, plan) == measure_plan(copy, w, plan)
        (y_mapped, mapped_report), (y_copy, copy_report) = (
            execute_plan(mapped, w, plan), execute_plan(copy, w, plan))
        assert mapped_report == copy_report
        assert np.array_equal(y_mapped, y_copy)
        # the stats analyze_layer solves: float32 Grams of 256 rows, summed in
        # float64, where the float64 copy's are float64 Grams
        f32, f64 = stats_from_tensors(mapped, w), stats_from_tensors(copy, w)
        assert_within_f32_gram_bound(f32.sigma_x, f32.energy_x, mapped, 256)
        assert np.array_equal(f32.sigma_w, f64.sigma_w)
        assert_reports_agree(analyze_layer(mapped, w, 2, 4, 8),
                             analyze_layer(copy, w, 2, 4, 8), rel=1e-3)
        errors = []
        for gram in (True, False):
            monkeypatch.setattr(engine, "use_gram_form", lambda n, d, m: gram)
            errors.append(measure_plan(mapped, w, plan).exact_error)
        assert errors[0] == pytest.approx(errors[1], rel=1e-10)

    @pytest.mark.parametrize("n,d,m", [(4096, 16, 512), (2048, 64, 64)],
                             ids=["gram", "rows"])
    def test_peak_does_not_grow_with_n(self, n, d, m):
        # beyond X, W and u, which are held before the call, 8n rows peak
        # within 10% of n rows (n is one whole block)
        x, w = random_instance(8 * n, d, m, seed=20)
        assert use_gram_form(n, d, m) == use_gram_form(8 * n, d, m) == (d == 16)
        plan = make_plan(x, w, rank=d // 8)
        plan.partition.u  # derived before tracing
        small, large = (traced_peak(measure_plan, x[:rows], w, plan)
                        for rows in (n, 8 * n))
        assert large <= 1.1 * small


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

    def test_summarize(self):
        # joint's error against (activation, weight): two wins of three and
        # one of three; joint's relative reductions 0.5, 0.0 and -0.25
        def run(joint, act, weight):
            return [ErrorReport(group="g", objective=o, exact_error=e,
                                predicted_error=0.0,
                                relative_reduction=1.0 - e / act,
                                energy_x_low=0.0, energy_x_high=0.0,
                                energy_w_low=0.0, energy_w_high=0.0,
                                bits_low=4, bits_high=8, rank=1, seed=0)
                    for o, e in zip(OBJECTIVES, (joint, act, weight))]

        runs = [run(1.0, 2.0, 0.5), run(2.0, 2.0, 1.0), run(5.0, 4.0, 6.0)]
        assert engine.summarize(runs) == {
            "instances": 3, "win_rate_vs_activation": 2 / 3,
            "win_rate_vs_weight": 1 / 3, "mean_relative_reduction": 0.25 / 3,
            "median_relative_reduction": 0.0}

    def test_each_rotation_is_computed_once_per_call(self, rotation_calls):
        x, w = random_instance(32, 16, 8, seed=9)
        analyze_layer(x, w, rank=2, bits_low=4, bits_high=8, seed=4)
        both = [(2, (4, HIGH_ROTATION, 0)), (14, (4, LOW_ROTATION, 0))]
        assert rotation_calls == both
        # the next call of one shape and seed reads them from the cache
        analyze_layer(x, w, rank=2, bits_low=4, bits_high=8, seed=4)
        assert rotation_calls == both

    def test_shared_rotations_leave_reports_unchanged(self):
        x, w = random_instance(32, 16, 8, seed=10)
        stats = stats_from_tensors(x, w)
        reports = analyze_layer(x, w, rank=2, bits_low=4, bits_high=8, seed=4)
        for rep in reports:
            plan = build_plan(stats, 2, 4, 8, objective=rep.objective, seed=4)
            solver._internal_rotation.cache_clear()  # u from fresh rotations
            plan.partition.u
            _, alone = execute_plan(x, w, plan)
            assert rep.exact_error == alone.exact_error
            assert rep.exact_error == measure_plan(x, w, plan).exact_error

    def test_report_order_and_objectives(self):
        x, w = random_instance(16, 8, 4, seed=9)
        reports = analyze_layer(x, w, rank=1, bits_low=4, bits_high=8)
        assert [r.objective for r in reports] == ["joint", "activation", "weight"]

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_a_plan_derives_its_objective_from_its_lambdas(self, objective):
        x, w = random_instance(16, 8, 4, seed=9)
        plan = build_plan(stats_from_tensors(x, w), 1, 4, 8, objective=objective)
        assert plan.objective == objective
        assert "objective" not in plan.to_json()

    @pytest.mark.parametrize("lambdas,objective", [
        ((1.0, 0.0), "activation"), ((0.0, 1.0), "weight"), ((1.0, 2.0), "joint")])
    def test_the_objective_follows_the_lambdas(self, lambdas, objective):
        x, w = random_instance(16, 8, 4, seed=9)
        plan = build_plan(stats_from_tensors(x, w), 1, 4, 8)
        part = dataclasses.replace(plan.partition, lambda_x=lambdas[0],
                                   lambda_w=lambdas[1])
        assert dataclasses.replace(plan, partition=part).objective == objective


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


def test_plan_bit_ordering_enforced():
    x, w = random_instance(8, 8, 4, seed=16)
    with pytest.raises(ValueError):
        make_plan(x, w, bits_low=8, bits_high=4)


@pytest.mark.parametrize("bits_low, bits_high", [(8, 4), (4, 17), (1, 8)])
def test_bad_bit_widths_fail_before_any_work(monkeypatch, bits_low, bits_high):
    calls = []
    monkeypatch.setattr(engine, "solve_partition", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(engine, "generate_instance", lambda *a, **k: calls.append(a))
    x, w = random_instance(8, 8, 4, seed=16)
    with pytest.raises(ValueError, match="bits_"):
        build_plan(stats_from_tensors(x, w), 2, bits_low, bits_high)
    with pytest.raises(ValueError, match="bits_"):
        engine.campaign(weight_anisotropic_spec(8, 16, 4, 0), 2, 2, bits_low, bits_high)
    assert calls == []


def test_plan_partition_must_have_the_group_dim():
    x, w = random_instance(16, 8, 4, seed=17)
    plan = make_plan(x, w)
    with pytest.raises(DimensionMismatchError, match="partition must be of the "
                                                     "group's dim \\(16\\), got 8"):
        dataclasses.replace(plan, group=ProjectionGroup("attn-input", 16, "g"))


@pytest.mark.parametrize("name", ["", None])
def test_group_name_is_required_and_non_empty(name):
    x, w = random_instance(16, 8, 4, seed=18)
    with pytest.raises(ValueError, match="name must be a non-empty string"):
        stats_from_tensors(x, w, name=name)
