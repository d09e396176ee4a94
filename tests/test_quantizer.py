import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupings import as_rows
from reference import quantize_reference
from subquant.calib import ProjectionGroup
from subquant.cli import ConfigGroup, RunConfig
from subquant.engine import build_plan, measure_plan, stats_from_tensors
from subquant.errors import Checked
from subquant.quantizer import combined_error_coeff, quantize, relative_error_coeff
from subquant.synth import weight_anisotropic_spec


# groupings of a 6 x 8 tensor, each passed to `quantize` as rows (`as_rows`)
GROUPINGS = [("per-tensor", None), ("per-token", None),
             ("per-channel", None), ("per-head", 4)]


def assert_same_bytes(result, reference):
    """Assert that a `QuantResult` and the oracle's (dequantized, scales,
    zero_points) are the same arrays byte for byte: `np.array_equal` takes
    -0.0 for 0.0."""
    for a, b in zip((result.dequantized, result.scales, result.zero_points),
                    reference):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def checked_examples() -> dict:
    """One value of each validated type, by type name."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((32, 8)), rng.standard_normal((8, 6))
    stats = stats_from_tensors(x, w, name="g")
    plan = build_plan(stats, 2, 4, 6)
    group = ConfigGroup("g", "attn-input", 8, activations=("x.cqt",),
                        weights=("w.cqt",))
    values = (
        ProjectionGroup("mlp-input", 8, "g"),
        stats, plan, plan.partition, measure_plan(x, w, plan),
        weight_anisotropic_spec(8, 32, 6, seed=3),
        RunConfig(groups=[group.to_json()], rank_ratio=0.25, seed=3),
        group,
    )
    return {type(v).__name__: v for v in values}


def read_back(value):
    """`value` rebuilt from its JSON text as a file reader rebuilds it: nested
    validated fields from their own objects, arrays passed as they are."""
    parsed = {}
    for f in dataclasses.fields(value):
        v = getattr(value, f.name)
        if f.init and isinstance(v, (np.ndarray, Checked)):
            parsed[f.name] = read_back(v) if isinstance(v, Checked) else v
    obj = json.loads(json.dumps(value.to_json()))
    return type(value).from_json(obj, "value", **parsed)


@pytest.mark.parametrize("name", sorted(t.__name__ for t in Checked.__subclasses__()))
def test_json_round_trip(name):
    value = checked_examples()[name]
    assert read_back(value) == value


class TestQuantize:
    def test_bits_range(self):
        for bits in (1, 17, True):
            with pytest.raises(ValueError, match="bits must be an int in"):
                quantize(np.ones((2, 3)), bits, True)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)], ids=["1-d", "3-d"])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ValueError, match="x must be 2-d"):
            quantize(np.ones(shape), 4, True)

    def test_grid_aligned_integers_exact(self):
        # s = 7/(2^3-1) = 1, so every integer in [-7, 7] is representable
        x = np.arange(-7.0, 8.0).reshape(1, 15)
        r = quantize(x, 4, True)
        assert np.array_equal(r.dequantized, x)
        assert r.scales[0] == 1.0 and r.zero_points[0] == 0.0

    def test_all_zero_group(self):
        for symmetric in (True, False):
            r = quantize(np.zeros((2, 3)), 4, symmetric)
            assert np.array_equal(r.dequantized, np.zeros((2, 3)))
            assert np.array_equal(r.scales, [1.0, 1.0])
            assert np.array_equal(r.zero_points, [0.0, 0.0])

    def test_symmetric_zero_points_all_zero(self):
        rng = np.random.default_rng(0)
        r = quantize(rng.standard_normal((5, 6)), 4, True)
        assert np.array_equal(r.zero_points, np.zeros(5))
        assert np.all(r.scales > 0)

    def test_reference_oracle_bit_for_bit(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1.0, 1.0, size=(8, 8))
        assert_same_bytes(quantize(x, 4, True), quantize_reference(x, 4, True))

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("granularity,head_dim", GROUPINGS)
    def test_oracle_all_granularities(self, bits, symmetric, granularity, head_dim):
        rng = np.random.default_rng(bits * 7 + symmetric)
        for _ in range(10):
            x = rng.standard_normal((6, 8)) * rng.uniform(0.01, 50.0)
            g = as_rows(x, granularity, head_dim)
            assert_same_bytes(quantize(g, bits, symmetric),
                              quantize_reference(g, bits, symmetric))

    def test_bounded_error(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16))
        r = quantize(x, 6, True)
        assert np.all(np.abs(x - r.dequantized) <= r.scales[:, None] / 2 + 1e-15)

    def test_per_token_equals_rowwise_per_tensor(self):
        # a row quantized among others equals the row quantized alone
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 7))
        r = quantize(x, 4, False)
        for i in range(5):
            row = quantize(x[i:i + 1], 4, False)
            assert np.array_equal(r.dequantized[i], row.dequantized[0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([[np.inf, 0.0]]), 4, True)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("granularity,head_dim", GROUPINGS)
    def test_memory_order_does_not_change_the_result(self, bits, symmetric,
                                                      granularity, head_dim):
        # per-channel quantizes x.T: an F-ordered view of the C-ordered x,
        # against a C-ordered view of its F-ordered copy
        x = np.random.default_rng(bits).standard_normal((6, 8)) * 3.0
        c = quantize(as_rows(np.ascontiguousarray(x), granularity, head_dim),
                     bits, symmetric)
        f = quantize(as_rows(np.asfortranarray(x), granularity, head_dim),
                     bits, symmetric)
        assert_same_bytes(c, (f.dequantized, f.scales, f.zero_points))

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    def test_signed_zero_extremes_match_the_oracle(self, layout, symmetric, bits):
        # each row's min (or max) is a zero held as both 0.0 and -0.0, in a
        # random order: the oracle's min and max return the first occurrence
        rng = np.random.default_rng(bits)
        for _ in range(20):
            x = np.abs(rng.standard_normal((12, 9))) * rng.choice([-1.0, 1.0], (12, 1))
            x[rng.random(x.shape) < 0.4] = 0.0
            x *= np.where(x == 0, rng.choice([-1.0, 1.0], x.shape), 1.0)
            x[:, :2] = [0.0, -0.0]
            x = rng.permuted(x, axis=1)
            g = {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
                 "transposed": np.ascontiguousarray(x.T).T}[layout]
            assert_same_bytes(quantize(g, bits, symmetric),
                              quantize_reference(g, bits, symmetric))

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
        x = np.array(np.random.default_rng(1).standard_normal((6, 8)), order=order)
        x[where] = value
        with pytest.raises(ValueError, match="non-finite") as e:
            quantize(as_rows(x, granularity, head_dim), 4, symmetric)
        assert not isinstance(e.value, ArithmeticError)

    @pytest.mark.parametrize("values,symmetric", [
        ([1e308, -1e308, 0.5], False),   # max - min overflows
        ([5e-324, 0.0, 0.0], True),      # amax / qmax underflows to 0
        ([5e-324, 0.0, 0.0], False),
    ], ids=["range-overflow", "sym-scale-underflow", "asym-scale-underflow"])
    def test_unrepresentable_scale_raises(self, values, symmetric):
        with pytest.raises(ArithmeticError, match=r"^1 quantization group\(s\) have a "
                           "range that overflows float64 or a scale that underflows") as e:
            quantize(np.array([values, [1.0, 2.0, 3.0]]), 4, symmetric)
        assert not isinstance(e.value, ValueError)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), bits=st.sampled_from([2, 3, 4, 8]),
       symmetric=st.booleans())
def test_idempotence_exact(seed, bits, symmetric):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 6)) * rng.uniform(1e-3, 1e3)
    r1 = quantize(x, bits, symmetric)
    r2 = quantize(r1.dequantized, bits, symmetric)
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
    x = rng.standard_normal((1, 8192))  # one group of 8192 samples >= 4096
    r = quantize(x, bits, True)
    measured = np.sum((x - r.dequantized) ** 2) / np.sum(x**2)
    ratio = measured / relative_error_coeff(bits)
    assert 1.0 / 3.0 <= ratio <= 3.0
