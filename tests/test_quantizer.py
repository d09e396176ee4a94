import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import quantize_reference
from subquant.errors import ScaleRangeError, SubquantError
from subquant.quantizer import (
    QuantSpec,
    combined_error_coeff,
    quantize,
    relative_error_coeff,
)


GROUPINGS = [("per-tensor", None), ("per-token", None),
             ("per-channel", None), ("per-head", 4)]


def spec_pt(bits, symmetric=True):
    return QuantSpec(bits=bits, symmetric=symmetric, granularity="per-tensor")


class TestQuantSpec:
    def test_bits_range(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=1, symmetric=True, granularity="per-tensor")
        with pytest.raises(ValueError):
            QuantSpec(bits=17, symmetric=True, granularity="per-tensor")

    def test_per_head_requires_head_dim(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=4, symmetric=False, granularity="per-head")

    def test_head_dim_must_divide_columns(self):
        spec = QuantSpec(bits=4, symmetric=False, granularity="per-head", head_dim=3)
        with pytest.raises(Exception):
            quantize(np.zeros((2, 4)), spec)

    def test_json_round_trip(self):
        spec = QuantSpec(bits=8, symmetric=False, granularity="per-head", head_dim=4)
        assert QuantSpec.from_json(spec.to_json()) == spec


class TestQuantize:
    def test_grid_aligned_integers_exact(self):
        # s = 7/(2^3-1) = 1, so every integer in [-7, 7] is representable
        x = np.arange(-7.0, 8.0).reshape(3, 5)
        r = quantize(x, spec_pt(4))
        assert np.array_equal(r.dequantized, x)
        assert r.scales[0] == 1.0 and r.zero_points[0] == 0.0

    def test_all_zero_group(self):
        r = quantize(np.zeros((2, 3)), spec_pt(4))
        assert np.array_equal(r.dequantized, np.zeros((2, 3)))
        assert r.scales[0] == 1.0 and r.zero_points[0] == 0.0
        r = quantize(np.zeros((2, 3)), spec_pt(4, symmetric=False))
        assert r.scales[0] == 1.0 and r.zero_points[0] == 0.0

    def test_symmetric_zero_points_all_zero(self):
        rng = np.random.default_rng(0)
        spec = QuantSpec(bits=4, symmetric=True, granularity="per-token")
        r = quantize(rng.standard_normal((5, 6)), spec)
        assert np.array_equal(r.zero_points, np.zeros(5))
        assert np.all(r.scales > 0)

    def test_reference_oracle_bit_for_bit(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1.0, 1.0, size=(8, 8))
        r = quantize(x, spec_pt(4))
        ref, scales, zps = quantize_reference(x, spec_pt(4))
        assert np.array_equal(r.dequantized, ref)
        assert np.array_equal(r.scales, scales)
        assert np.array_equal(r.zero_points, zps)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("granularity,head_dim", [
        ("per-tensor", None), ("per-token", None),
        ("per-channel", None), ("per-head", 4),
    ])
    def test_oracle_all_granularities(self, bits, symmetric, granularity, head_dim):
        rng = np.random.default_rng(bits * 7 + symmetric)
        spec = QuantSpec(bits=bits, symmetric=symmetric,
                         granularity=granularity, head_dim=head_dim)
        for _ in range(10):
            x = rng.standard_normal((6, 8)) * rng.uniform(0.01, 50.0)
            r = quantize(x, spec)
            ref, _, _ = quantize_reference(x, spec)
            assert np.array_equal(r.dequantized, ref)

    def test_bounded_error(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16))
        r = quantize(x, spec_pt(6))
        assert np.max(np.abs(x - r.dequantized)) <= r.scales[0] / 2 + 1e-15

    def test_per_token_equals_rowwise_per_tensor(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 7))
        spec = QuantSpec(bits=4, symmetric=False, granularity="per-token")
        r = quantize(x, spec)
        for i in range(5):
            row = quantize(x[i:i + 1], spec_pt(4, symmetric=False))
            assert np.array_equal(r.dequantized[i], row.dequantized[0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([[np.inf, 0.0]]), spec_pt(4))

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("granularity,head_dim", GROUPINGS)
    def test_memory_order_does_not_change_the_result(self, bits, symmetric,
                                                      granularity, head_dim):
        spec = QuantSpec(bits=bits, symmetric=symmetric,
                         granularity=granularity, head_dim=head_dim)
        x = np.random.default_rng(bits).standard_normal((6, 8)) * 3.0
        c = quantize(np.ascontiguousarray(x), spec)
        f = quantize(np.asfortranarray(x), spec)
        for field in ("dequantized", "scales", "zero_points"):
            assert np.array_equal(getattr(c, field), getattr(f, field))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("granularity,head_dim", GROUPINGS)
    @pytest.mark.parametrize("where", [(0, 0), (-1, -1)], ids=["first", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_group_raises(self, value, where, granularity, head_dim,
                                     symmetric, order):
        # x[0, 0] lies in the first group and x[-1, -1] in the last one under
        # every grouping; the other groups are finite
        spec = QuantSpec(bits=4, symmetric=symmetric, granularity=granularity,
                         head_dim=head_dim)
        x = np.array(np.random.default_rng(1).standard_normal((6, 8)), order=order)
        x[where] = value
        with pytest.raises(ValueError, match="non-finite") as e:
            quantize(x, spec)
        assert not isinstance(e.value, ScaleRangeError)

    @pytest.mark.parametrize("values,symmetric", [
        ([1e308, -1e308, 0.5], False),   # max - min overflows
        ([5e-324, 0.0, 0.0], True),      # amax / qmax underflows to 0
        ([5e-324, 0.0, 0.0], False),
    ], ids=["range-overflow", "sym-scale-underflow", "asym-scale-underflow"])
    def test_unrepresentable_scale_raises(self, values, symmetric):
        spec = QuantSpec(bits=4, symmetric=symmetric, granularity="per-token")
        with pytest.raises(ScaleRangeError) as e:
            quantize(np.array([values, [1.0, 2.0, 3.0]]), spec)
        assert isinstance(e.value, SubquantError)
        assert isinstance(e.value, ArithmeticError)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), bits=st.sampled_from([2, 3, 4, 8]),
       symmetric=st.booleans())
def test_idempotence_exact(seed, bits, symmetric):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 6)) * rng.uniform(1e-3, 1e3)
    spec = spec_pt(bits, symmetric=symmetric)
    r1 = quantize(x, spec)
    r2 = quantize(r1.dequantized, spec)
    assert np.array_equal(r1.dequantized, r2.dequantized)
    assert np.array_equal(r1.scales, r2.scales)
    assert np.array_equal(r1.zero_points, r2.zero_points)


class TestErrorCoefficients:
    def test_known_values(self):
        assert relative_error_coeff(4) == 1.0 / 49.0
        assert relative_error_coeff(8) == 1.0 / 16129.0
        assert relative_error_coeff(2) == 1.0

    def test_combined(self):
        assert combined_error_coeff(4, 7) == 2.0 / 343.0
        assert combined_error_coeff(8, 1) == 2.0 / 16129.0

    def test_combined_scales_inversely_with_dim(self):
        for bits in (3, 5, 9):
            assert combined_error_coeff(bits, 10) == pytest.approx(
                combined_error_coeff(bits, 5) / 2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            relative_error_coeff(1)
        with pytest.raises(ValueError):
            combined_error_coeff(4, 0)


@pytest.mark.parametrize("bits", [4, 6, 8])
def test_noise_model_monte_carlo(bits):
    # relative noise energy of Gaussian data stays within a factor of 3 of
    # the analytic coefficient (envelope verified once with the oracle run)
    rng = np.random.default_rng(bits)
    x = rng.standard_normal((128, 64))  # 8192 samples >= 4096
    r = quantize(x, spec_pt(bits))
    measured = np.sum((x - r.dequantized) ** 2) / np.sum(x**2)
    ratio = measured / relative_error_coeff(bits)
    assert 1.0 / 3.0 <= ratio <= 3.0
