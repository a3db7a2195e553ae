"""Fixed-point arithmetic: Q-formats, the Eq. 5 multiplier, integer isqrt."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import FixedPointMultiplier, LN_PARAM_FORMAT, QFormat, integer_isqrt, saturate
from repro.quant.fixedpoint import bit_width_of


class TestQFormat:
    def test_q3_4_bounds(self):
        fmt = LN_PARAM_FORMAT
        assert fmt.total_bits == 8
        assert fmt.max_value == pytest.approx(7.9375)
        assert fmt.min_value == -8.0
        assert fmt.resolution == 0.0625

    def test_roundtrip_on_grid(self):
        fmt = QFormat(3, 4)
        values = np.arange(-8.0, 8.0, 0.0625)
        np.testing.assert_allclose(fmt.round_trip(values), values)

    def test_saturates(self):
        fmt = QFormat(3, 4)
        assert fmt.round_trip(np.array([100.0]))[0] == fmt.max_value
        assert fmt.round_trip(np.array([-100.0]))[0] == fmt.min_value

    def test_rounding_error_bound(self, rng):
        fmt = QFormat(3, 4)
        x = rng.uniform(-7.9, 7.9, size=100)
        assert np.abs(fmt.round_trip(x) - x).max() <= fmt.resolution / 2 + 1e-12


class TestFixedPointMultiplier:
    def test_roundtrip_accuracy(self):
        for value in (1e-6, 0.37, 1.0, 17.3, 1e6):
            fpm = FixedPointMultiplier.from_float(value)
            assert fpm.to_float() == pytest.approx(value, rel=1e-8)

    def test_mantissa_normalized(self):
        fpm = FixedPointMultiplier.from_float(0.123)
        assert 2 ** 30 <= fpm.multiplier < 2 ** 31

    def test_apply_matches_float_rounding(self, rng):
        fpm = FixedPointMultiplier.from_float(0.0037)
        acc = rng.integers(-(2 ** 24), 2 ** 24, size=1000)
        applied = fpm.apply(acc)
        expected = np.rint(acc * 0.0037)
        # off-by-one allowed at exact rounding boundaries
        assert np.abs(applied - expected).max() <= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedPointMultiplier.from_float(0.0)

    def test_apply_zero(self):
        fpm = FixedPointMultiplier.from_float(3.7)
        assert fpm.apply(np.array([0]))[0] == 0

    def test_large_factor(self):
        fpm = FixedPointMultiplier.from_float(1000.0)
        result = fpm.apply(np.array([123]))
        assert result[0] == pytest.approx(123000, abs=1)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-(2 ** 30), max_value=2 ** 30),
)
def test_multiplier_relative_error_property(factor, acc):
    """Requantization error is at most 1 code + 2^-30 relative (Eq. 5 s_f)."""
    fpm = FixedPointMultiplier.from_float(factor)
    applied = int(fpm.apply(np.array([acc]))[0])
    exact = acc * factor
    assert abs(applied - exact) <= 1.0 + abs(exact) * 2 ** -30


class TestIntegerIsqrt:
    def test_exhaustive_small(self):
        values = np.arange(0, 4096)
        roots = integer_isqrt(values)
        assert np.all(roots * roots <= values)
        assert np.all((roots + 1) * (roots + 1) > values)

    def test_perfect_squares(self):
        values = np.arange(0, 1000) ** 2
        np.testing.assert_array_equal(integer_isqrt(values), np.arange(0, 1000))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            integer_isqrt(np.array([-1]))

    def test_zero(self):
        assert integer_isqrt(np.array([0]))[0] == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 52))
def test_isqrt_floor_property(value):
    root = int(integer_isqrt(np.array([value]))[0])
    assert root * root <= value < (root + 1) * (root + 1)


class TestSaturate:
    def test_signed_8bit(self):
        out = saturate(np.array([-1000, -128, 0, 127, 1000]), 8)
        np.testing.assert_array_equal(out, [-128, -128, 0, 127, 127])

    def test_unsigned(self):
        out = saturate(np.array([-5, 0, 255, 300]), 8, signed=False)
        np.testing.assert_array_equal(out, [0, 0, 255, 255])


class TestBitWidth:
    def test_positive(self):
        assert bit_width_of(0) == 1
        assert bit_width_of(1) == 2
        assert bit_width_of(127) == 8
        assert bit_width_of(128) == 9

    def test_negative(self):
        assert bit_width_of(-1) == 1
        assert bit_width_of(-128) == 8
        assert bit_width_of(-129) == 9


def _staged_shift(acc: int, m: int, shift: int) -> int:
    """The hardware's staged round-half-up shifts, in Python ints."""
    pre = max(0, shift - 31)
    post = shift - pre
    product = acc * m
    if pre:
        product = (product + (1 << (pre - 1))) >> pre
    return (product + (1 << (post - 1))) >> post


class TestFloatRequant:
    """The float64 requantization equals the int64 staged shifts, bit for bit."""

    def test_staged_shifts_are_one_floor(self, rng):
        """floor((floor((x + 2^(p-1)) / 2^p) + 2^(q-1)) / 2^q)
        == floor((x + 2^(p-1) + 2^(p+q-1)) / 2^(p+q))."""
        for _ in range(20000):
            shift = int(rng.integers(1, 63))
            m = int(rng.integers(0, 2 ** 31))
            acc = int(rng.integers(-(2 ** 31), 2 ** 31))
            pre = max(0, shift - 31)
            c = (1 << (shift - 1)) + ((1 << (pre - 1)) if pre else 0)
            single = (acc * m + c) >> shift  # >> on Python ints floors
            assert _staged_shift(acc, m, shift) == single
            applied = FixedPointMultiplier(m, shift).apply(np.array([acc]))
            assert int(applied[0]) == single

    @pytest.mark.parametrize("value", [1e-6, 0.0037, 0.25, 1.0, 1638.4, 1e5])
    def test_exact_apply_over_the_certified_range(self, rng, value):
        fpm = FixedPointMultiplier.from_float(value)
        limit = fpm._float_constants[2]
        assert limit >= 2 ** 20
        acc = np.concatenate(
            [rng.integers(-limit, limit + 1, size=50000), [-limit, limit, 0, 1, -1]]
        )
        got = fpm.exact_apply(acc)
        assert got.dtype == np.float64  # the float path ran
        np.testing.assert_array_equal(got, fpm.apply(acc))

    @pytest.mark.parametrize(
        "fpm",
        [
            FixedPointMultiplier.from_float(1638.4),
            FixedPointMultiplier.from_float(3e9),  # negative shift
            FixedPointMultiplier(multiplier=3, shift=0),
            FixedPointMultiplier(multiplier=2 ** 31 - 1, shift=1),
        ],
    )
    def test_exact_apply_results_add_exactly(self, fpm):
        """Float results stay within 2^52, so Add&LN's sum of two is exact."""
        limit = fpm._float_constants[2]
        got = fpm.exact_apply(np.array([-limit, limit]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, fpm.apply(np.array([-limit, limit])))
        assert np.abs(got).max() <= 2 ** 52

    def test_exact_apply_falls_back_beyond_the_limit(self):
        fpm = FixedPointMultiplier.from_float(0.0037)
        acc = np.array([fpm._float_constants[2] + 1, 5])
        got = fpm.exact_apply(acc)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, fpm.apply(acc))

    def test_rounding_would_break_without_the_certificate(self):
        """Beyond the limit float64 rounds, so the guard is needed."""
        fpm = FixedPointMultiplier(multiplier=2 ** 31 - 1, shift=31)
        scale, offset, limit, _ = fpm._float_constants
        acc = np.arange(2 ** 40, 2 ** 40 + 4096, dtype=np.int64)
        assert acc.min() > limit
        naive = np.floor(acc * scale + offset)
        assert not np.array_equal(naive, fpm.apply(acc))
        np.testing.assert_array_equal(fpm.exact_apply(acc), fpm.apply(acc))

    @pytest.mark.parametrize("value", [1e-4, 0.0037, 0.0071, 0.3])
    def test_requantize_saturates_beyond_the_window(self, rng, value):
        """Accumulators past the exact limit still land on the right rail
        (over apply's int32 accumulator domain, where its product fits int64)."""
        fpm = FixedPointMultiplier.from_float(value)
        assert fpm.certifies(8)
        assert fpm._float_constants[2] < 2 ** 31 - 1
        acc = np.concatenate(
            [
                rng.integers(-(2 ** 31), 2 ** 31, size=20000),
                rng.integers(-(2 ** 20), 2 ** 20, size=20000),
                [-(2 ** 31), 2 ** 31 - 1],
            ]
        )
        got = fpm.requantize(acc, 8)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, saturate(fpm.apply(acc), 8))

    def test_requantize_past_apply_overflow(self, rng):
        """Where |acc|*m reaches 2^63, apply's int64 product wraps.  The
        certified float path still returns the rail of the exact result;
        the uncertified int64 fallback wraps exactly as apply does."""
        fpm = FixedPointMultiplier.from_float(0.0071)
        m, shift = fpm.multiplier, fpm.shift
        assert fpm.certifies(8) and m >= 2 ** 30
        acc = np.concatenate(
            [
                [2 ** 40, -(2 ** 40), 2 ** 62, -(2 ** 63), 2 ** 63 - 1],
                rng.integers(2 ** 33, 2 ** 63 - 1, size=2000),
                -rng.integers(2 ** 33, 2 ** 63 - 1, size=2000),
            ]
        ).astype(np.int64)
        assert (np.abs(acc.astype(np.float64)) * m >= 2.0 ** 63).all()
        exact = [
            min(127, max(-128, _staged_shift(int(a), m, shift))) for a in acc.tolist()
        ]
        assert exact[:2] == [127, -128]
        wrapped = saturate(fpm.apply(acc), 8)
        assert wrapped.tolist() != exact  # the int64 evaluation wraps here
        assert fpm.requantize(acc, 8).tolist() == exact
        # An addend the certificate does not cover forces the int64 fallback.
        half = acc // 2
        huge = np.array([2 ** 40])
        assert not fpm.certifies(8, 2 ** 40)
        np.testing.assert_array_equal(
            fpm.requantize((half - huge[0])[:, None], 8, addend=huge)[:, 0],
            saturate(fpm.apply(half), 8),
        )

    def test_requantize_folds_the_addend(self, rng):
        fpm = FixedPointMultiplier.from_float(0.0071)
        bias = rng.integers(-3000, 3001, size=24)
        assert fpm.certifies(8, 3000)
        acc = rng.integers(-(2 ** 22), 2 ** 22, size=(50, 24))
        np.testing.assert_array_equal(
            fpm.requantize(acc, 8, addend=bias), saturate(fpm.apply(acc + bias), 8)
        )

    def test_requantize_falls_back_when_uncertified(self, rng):
        fpm = FixedPointMultiplier.from_float(0.0071)
        huge = np.array([2 ** 40, -(2 ** 40)])
        assert not fpm.certifies(8, 2 ** 40)
        acc = rng.integers(-(2 ** 22), 2 ** 22, size=(10, 2))
        np.testing.assert_array_equal(
            fpm.requantize(acc, 8, addend=huge), saturate(fpm.apply(acc + huge), 8)
        )

    def test_per_channel_float_path(self, rng):
        from repro.quant import VectorFixedPointMultiplier

        vector = VectorFixedPointMultiplier.from_floats(rng.uniform(1e-4, 0.05, size=16))
        bias = rng.integers(-500, 501, size=16)
        assert vector.certifies(8, 500)
        acc = rng.integers(-(2 ** 24), 2 ** 24, size=(400, 16))
        np.testing.assert_array_equal(
            vector.requantize(acc, 8, addend=bias), saturate(vector.apply(acc + bias), 8)
        )
        np.testing.assert_array_equal(vector.exact_apply(acc), vector.apply(acc))
        with pytest.raises(ValueError, match="channels"):
            vector.requantize(acc[:, :1], 8)

    def test_every_bench_multiplier_exhaustively(self):
        """Every distinct multiplier of the pinned bench model, over every
        accumulator with |acc| <= 2^24: float requant + saturate equals the
        int64 apply + saturate, and the unsaturated float path equals apply
        up to its exact limit."""
        from repro.perf import build_synthetic_integer_model

        model = build_synthetic_integer_model()
        multipliers = set()
        for layer in model.layers:
            attn = layer.attention
            for linear in (attn.query, attn.key, attn.value, layer.attention_output,
                           layer.ffn1, layer.ffn2):
                multipliers.add(linear.requant)
            multipliers.update((attn.score_requant, attn.context_requant))
            for ln in (layer.attention_layernorm, layer.output_layernorm):
                multipliers.update((ln.align_a, ln.align_b, ln.out_requant))
        assert len(multipliers) == 5
        chunk = 2 ** 20
        for fpm in multipliers:
            assert fpm.certifies(8)
            limit = min(fpm._float_constants[2], 2 ** 24)
            for start in range(-(2 ** 24), 2 ** 24 + 1, chunk):
                acc = np.arange(start, min(start + chunk, 2 ** 24 + 1), dtype=np.int64)
                expected = fpm.apply(acc)
                np.testing.assert_array_equal(fpm.requantize(acc, 8), saturate(expected, 8))
                inside = np.abs(acc) <= limit
                if inside.any():
                    got = fpm.exact_apply(acc[inside])
                    assert got.dtype == np.float64
                    np.testing.assert_array_equal(got, expected[inside])


class TestIsqrtAgainstMathIsqrt:
    def test_random_values(self, rng):
        import math

        values = np.concatenate(
            [
                rng.integers(0, 2 ** 63 - 1, size=20000, dtype=np.int64),
                rng.integers(0, 2 ** 52, size=20000, dtype=np.int64),
                rng.integers(0, 2 ** 20, size=20000, dtype=np.int64),
            ]
        )
        roots = integer_isqrt(values)
        assert roots.tolist() == [math.isqrt(int(v)) for v in values]

    def test_top_of_int64(self):
        """Roots near isqrt(2^63 - 1), whose next square overflows int64."""
        import math

        top = 3037000499
        values = np.array(
            [2 ** 63 - 1, top * top, top * top + 1, top * top - 1, (top - 1) ** 2 - 1],
            dtype=np.int64,
        )
        assert integer_isqrt(values).tolist() == [math.isqrt(int(v)) for v in values]

    def test_around_perfect_squares(self, rng):
        import math

        k = np.concatenate(
            [
                np.arange(0, 4097),
                rng.integers(1, 2 ** 26 + 1, size=100000),
                2 ** 26 - np.arange(0, 64),
                2 ** np.arange(0, 27),
                # Above 2^52 the float64 guess alone must land within 1.
                rng.integers(2 ** 26, 3037000499, size=100000),
                3037000499 - np.arange(0, 64),
            ]
        ).astype(np.int64)
        values = np.concatenate([k * k - 1, k * k, k * k + 1])
        values = values[values >= 0]
        roots = integer_isqrt(values)
        assert roots.tolist() == [math.isqrt(int(v)) for v in values]
