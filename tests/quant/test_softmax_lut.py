"""Quantized softmax with the 256-entry exp LUT (Sec. III-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor
from repro.quant import (
    LUT_ENTRIES,
    OUTPUT_LEVELS,
    build_exp_lut,
    fake_quant_softmax,
    lut_max_error,
    quantized_softmax,
)


class TestLutConstruction:
    def test_entry_zero_is_one(self):
        lut = build_exp_lut(score_scale=10.0)
        assert lut[0] == OUTPUT_LEVELS  # exp(0) = 1.0 -> 255

    def test_monotone_decreasing(self):
        lut = build_exp_lut(score_scale=10.0)
        assert np.all(np.diff(lut) <= 0)

    def test_256_entries(self):
        assert len(build_exp_lut(score_scale=5.0)) == LUT_ENTRIES

    def test_max_error_small(self):
        """8-bit exp LUT is accurate to half a level."""
        assert lut_max_error(score_scale=10.0) <= 0.5 / OUTPUT_LEVELS + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_exp_lut(score_scale=0.0)
        with pytest.raises(ValueError):
            build_exp_lut(score_scale=1.0, entries=1)


class TestQuantizedSoftmax:
    def test_close_to_float_softmax(self, rng):
        scale = 20.0
        scores = rng.standard_normal((4, 12)) * 3
        codes = np.clip(np.rint(scores * scale), -127, 127).astype(np.int64)
        out, _ = quantized_softmax(codes, scale)
        exact = np.exp(codes / scale - (codes / scale).max(-1, keepdims=True))
        exact = exact / exact.sum(-1, keepdims=True)
        np.testing.assert_allclose(out / OUTPUT_LEVELS, exact, atol=0.02)

    def test_shift_invariance_exact(self, rng):
        """Adding a constant code to a row leaves the output unchanged."""
        scale = 15.0
        codes = rng.integers(-50, 50, size=(3, 8))
        a, _ = quantized_softmax(codes, scale)
        b, _ = quantized_softmax(codes + 20, scale)
        np.testing.assert_array_equal(a, b)

    def test_outputs_are_8bit(self, rng):
        codes = rng.integers(-127, 128, size=(5, 16))
        out, numerators = quantized_softmax(codes, 10.0)
        assert out.min() >= 0 and out.max() <= OUTPUT_LEVELS
        assert numerators.min() >= 0 and numerators.max() <= OUTPUT_LEVELS

    def test_max_position_dominates(self):
        codes = np.array([[0, 0, 120, 0]])
        out, _ = quantized_softmax(codes, 2.0)
        assert out[0, 2] == out.max()
        assert out[0, 2] > 200

    def test_mask_zeroes_padded_positions(self):
        codes = np.array([[10, 5, 120, 120]])
        mask = np.array([[1, 1, 0, 0]])
        out, numerators = quantized_softmax(codes, 5.0, mask=mask)
        assert out[0, 2] == 0 and out[0, 3] == 0
        assert numerators[0, 2] == 0
        # The valid positions renormalize among themselves.
        assert out[0, 0] > out[0, 1]

    def test_mask_max_taken_over_valid_only(self):
        """A huge masked score must not wash out the valid entries."""
        codes = np.array([[10, 8, 127]])
        mask = np.array([[1, 1, 0]])
        out, _ = quantized_softmax(codes, 5.0, mask=mask)
        assert out[0, 0] > 100  # not crushed by the masked 127

    def test_uniform_input_uniform_output(self):
        codes = np.full((1, 8), 42)
        out, _ = quantized_softmax(codes, 10.0)
        assert len(set(out[0].tolist())) == 1

    def test_rejects_lut_without_exp0(self):
        lut = build_exp_lut(5.0)
        lut[0] = 0
        with pytest.raises(ValueError, match="exp LUT entry 0"):
            quantized_softmax(np.array([[3, 1, 2]]), 5.0, lut=lut)

    def test_rejects_row_with_no_valid_key(self):
        codes = np.array([[10, 5], [7, 7]])
        mask = np.array([[1, 0], [0, 0]])
        with pytest.raises(ValueError, match="no valid key"):
            quantized_softmax(codes, 5.0, mask=mask)


class TestFakeQuantSoftmax:
    def test_matches_integer_softmax(self, rng):
        """The QAT forward and the integer engine compute the same codes."""
        scale = 25.0
        scores = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        codes = np.clip(np.rint(scores * scale), -127, 127).astype(np.int64)

        fake = fake_quant_softmax(Tensor((codes / scale).astype(np.float32)), scale)
        integer, _ = quantized_softmax(codes, scale)
        np.testing.assert_allclose(fake.data * OUTPUT_LEVELS, integer, atol=1.0)

    def test_gradient_flows(self, rng):
        scores = Tensor(rng.standard_normal((2, 5)).astype(np.float32), requires_grad=True)
        out = fake_quant_softmax(scores, 20.0)
        (out * Tensor(np.arange(5, dtype=np.float32))).sum().backward()
        assert scores.grad is not None
        assert np.isfinite(scores.grad).all()

    def test_masked_overflow_safe(self, rng):
        """Masked positions above the valid max must not produce NaNs."""
        scores = np.zeros((1, 1, 1, 4), dtype=np.float32)
        scores[..., 2] = 60.0  # masked, far above valid max
        mask = np.array([1, 1, 0, 1]).reshape(1, 1, 1, 4)
        out = fake_quant_softmax(Tensor(scores), score_scale=2.0, mask=mask)
        assert np.isfinite(out.data).all()
        assert out.data[0, 0, 0, 2] == 0.0

    def test_rows_sum_near_one(self, rng):
        scores = Tensor(rng.standard_normal((3, 9)).astype(np.float32))
        out = fake_quant_softmax(scores, 30.0)
        np.testing.assert_allclose(out.data.sum(-1), 1.0, atol=0.05)

    def test_rejects_non_last_axis(self):
        with pytest.raises(ValueError):
            fake_quant_softmax(Tensor(np.zeros((2, 2))), 1.0, axis=0)


@settings(max_examples=80, deadline=None)
@given(
    arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(1, 4), st.integers(2, 16)),
        elements=st.integers(-127, 127),
    ),
    st.floats(min_value=2.0, max_value=60.0),
)
def test_quantized_softmax_properties(codes, scale):
    out, numerators = quantized_softmax(codes, scale)
    # Output codes valid and rows approximately normalized.
    assert out.min() >= 0 and out.max() <= OUTPUT_LEVELS
    row_sums = out.sum(axis=-1)
    # Each row's probabilities sum to ~255 (rounding slack per element).
    assert np.all(np.abs(row_sums - OUTPUT_LEVELS) <= codes.shape[-1])
    # The arg-max of the input is the arg-max of the output.
    assert np.all(
        out[np.arange(codes.shape[0]), codes.argmax(-1)] == out.max(axis=-1)
    )
