"""Integer-only inference engine: agreement with the QAT model (Eq. 5 realized)."""

import copy

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.bert import BertConfig
from repro.quant import (
    GeluLUT,
    IntegerLinear,
    QuantBertForSequenceClassification,
    QuantConfig,
    convert_to_integer,
    int_range,
)
from repro.quant.fixedpoint import FixedPointMultiplier
from repro.quant.integer_model import IntegerLayerNorm, LN_FRAC_BITS
from repro.quant.observer import EMAObserver
from repro.quant.qat import QuantLinear


@pytest.fixture(scope="module")
def calibrated_pair():
    """A QAT model with initialized observers plus its integer conversion."""
    rng = np.random.default_rng(42)
    config = BertConfig.tiny(vocab_size=64, num_labels=2, max_position_embeddings=16)
    model = QuantBertForSequenceClassification(config, QuantConfig.fq_bert(), rng=rng)
    model.train()
    # Calibrate observers with a few batches.
    for _ in range(4):
        ids = rng.integers(0, config.vocab_size, size=(4, 12))
        model(ids, np.ones((4, 12), dtype=np.int64))
    model.eval()
    integer = convert_to_integer(model)
    return model, integer, config


class TestIntegerLinear:
    def test_matches_fake_quant_linear(self, rng):
        """IntegerLinear.forward == QuantLinear forward on the same codes."""
        config = QuantConfig.fq_bert()
        qlinear = QuantLinear(16, 8, config, rng=rng)
        qlinear.train()
        in_scale = 32.0
        x_codes = rng.integers(-127, 128, size=(6, 16))
        x = (x_codes / in_scale).astype(np.float32)

        from repro.autograd import Tensor
        from repro.quant.integer_model import _convert_linear

        out, out_scale = qlinear(Tensor(x), in_scale)  # initializes observer
        qlinear.eval()
        out, out_scale = qlinear(Tensor(x), in_scale)
        integer = _convert_linear(qlinear, in_scale)
        int_out = integer.forward(x_codes)
        fake_codes = np.rint(out.data * out_scale)
        assert np.abs(int_out - fake_codes).max() <= 1  # rounding-tie slack

    def test_output_saturates_to_8bit(self, rng):
        weight = np.full((2, 4), 7, dtype=np.int64)
        linear = IntegerLinear(
            weight_codes=weight,
            bias_codes=None,
            requant=FixedPointMultiplier.from_float(1.0),
            in_scale=1.0,
            weight_scale=1.0,
            out_scale=1.0,
        )
        out = linear.forward(np.full((1, 4), 127, dtype=np.int64))
        assert out.max() <= 127 and out.min() >= -128

    def test_weight_bits_reported(self):
        linear = IntegerLinear(
            weight_codes=np.array([[7, -7]]),
            bias_codes=None,
            requant=FixedPointMultiplier.from_float(1.0),
            in_scale=1.0,
            weight_scale=1.0,
            out_scale=1.0,
        )
        assert linear.weight_bits == 4


class TestGeluLUT:
    def test_table_has_256_entries(self):
        lut = GeluLUT.build(in_scale=16.0, out_scale=16.0)
        assert len(lut.table) == 256  # codes -128..127

    def test_matches_float_gelu(self):
        in_scale, out_scale = 16.0, 20.0
        lut = GeluLUT.build(in_scale, out_scale)
        codes = np.arange(-128, 128)
        x = codes / in_scale
        gelu = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
        expected = np.clip(np.rint(gelu * out_scale), -127, 127)
        np.testing.assert_array_equal(lut.forward(codes), expected)

    def test_zero_maps_to_zero(self):
        lut = GeluLUT.build(10.0, 10.0)
        assert lut.forward(np.array([0]))[0] == 0

    def test_saturated_low_code_reads_its_own_entry(self):
        """Requantization saturates to -128, so the ROM holds that row too:
        -128 maps to GELU(-128 / s), not to the +127 entry."""
        lut = GeluLUT.build(in_scale=128.0, out_scale=100.0)
        # GELU(-1.0) = -0.1588 -> -16; GELU(127/128) = 0.8259 -> 83
        np.testing.assert_array_equal(
            lut.forward(np.array([-128, 127])), [-16, 83]
        )
        lut = GeluLUT.build(20.0, 20.0)
        np.testing.assert_array_equal(
            lut.forward(np.array([-128, -127, 0, 127])), [0, 0, 0, 127]
        )


class TestIntegerLayerNorm:
    def test_matches_float_layernorm(self, rng):
        from repro.quant.fixedpoint import LN_PARAM_FORMAT

        hidden = 32
        gamma = rng.uniform(0.5, 2.0, hidden)
        beta = rng.uniform(-0.5, 0.5, hidden)
        scale_a, scale_b, out_scale = 20.0, 24.0, 18.0
        ln = IntegerLayerNorm(
            gamma_codes=LN_PARAM_FORMAT.to_fixed(gamma),
            beta_codes=LN_PARAM_FORMAT.to_fixed(beta),
            align_a=FixedPointMultiplier.from_float(2.0 ** LN_FRAC_BITS / scale_a),
            align_b=FixedPointMultiplier.from_float(2.0 ** LN_FRAC_BITS / scale_b),
            out_requant=FixedPointMultiplier.from_float(
                out_scale / 2.0 ** (LN_FRAC_BITS + LN_PARAM_FORMAT.frac_bits)
            ),
            out_scale=out_scale,
            eps_fx=int(1e-5 * 2 ** (2 * LN_FRAC_BITS)),
        )
        codes_a = rng.integers(-127, 128, size=(4, hidden))
        codes_b = rng.integers(-127, 128, size=(4, hidden))
        out = ln.forward(codes_a, codes_b)

        x = codes_a / scale_a + codes_b / scale_b
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        gamma_q = LN_PARAM_FORMAT.round_trip(gamma)
        beta_q = LN_PARAM_FORMAT.round_trip(beta)
        expected = gamma_q * (x - mu) / np.sqrt(var + 1e-5) + beta_q
        expected_codes = np.clip(np.rint(expected * out_scale), -128, 127)
        assert np.abs(out - expected_codes).max() <= 1

    def test_constant_input_gives_beta(self, rng):
        from repro.quant.fixedpoint import LN_PARAM_FORMAT

        hidden = 16
        beta = np.full(hidden, 0.5)
        out_scale = 16.0
        ln = IntegerLayerNorm(
            gamma_codes=LN_PARAM_FORMAT.to_fixed(np.ones(hidden)),
            beta_codes=LN_PARAM_FORMAT.to_fixed(beta),
            align_a=FixedPointMultiplier.from_float(2.0 ** LN_FRAC_BITS / 16.0),
            align_b=FixedPointMultiplier.from_float(2.0 ** LN_FRAC_BITS / 16.0),
            out_requant=FixedPointMultiplier.from_float(
                out_scale / 2.0 ** (LN_FRAC_BITS + LN_PARAM_FORMAT.frac_bits)
            ),
            out_scale=out_scale,
            eps_fx=int(1e-5 * 2 ** (2 * LN_FRAC_BITS)),
        )
        codes = np.full((1, hidden), 32, dtype=np.int64)
        out = ln.forward(codes, codes)
        # (x - mu) = 0 everywhere, so output is beta -> 0.5 * 16 = 8.
        np.testing.assert_allclose(out, np.full((1, hidden), 8), atol=1)


class TestEndToEndAgreement:
    def test_predictions_match_fake_quant_model(self, calibrated_pair, rng):
        model, integer, config = calibrated_pair
        ids = rng.integers(0, config.vocab_size, size=(8, 12))
        mask = np.ones((8, 12), dtype=np.int64)
        mask[:, 9:] = 0
        fake_preds = model.predict(ids, mask)
        int_preds = integer.predict(ids, mask)
        assert (fake_preds == int_preds).mean() >= 0.9

    def test_logits_close(self, calibrated_pair, rng):
        model, integer, config = calibrated_pair
        ids = rng.integers(0, config.vocab_size, size=(4, 10))
        mask = np.ones((4, 10), dtype=np.int64)
        with no_grad():
            fake_logits = model(ids, mask).data
        int_logits = integer.forward(ids, mask)
        np.testing.assert_allclose(int_logits, fake_logits, atol=0.25)

    def test_encoder_outputs_are_int8_codes(self, calibrated_pair, rng):
        _, integer, config = calibrated_pair
        ids = rng.integers(0, config.vocab_size, size=(2, 8))
        codes = integer.encode(ids, np.ones((2, 8), dtype=np.int64))
        qmin, qmax = int_range(8)
        assert codes.dtype == np.int64
        assert codes.min() >= qmin and codes.max() <= qmax

    def test_weight_codes_fit_4_bits(self, calibrated_pair):
        _, integer, _ = calibrated_pair
        for layer in integer.layers:
            for linear in (layer.attention.query, layer.ffn1, layer.ffn2):
                assert np.abs(linear.weight_codes).max() <= 7

    def test_conversion_requires_activation_quant(self, rng):
        config = BertConfig.tiny(vocab_size=16, num_labels=2)
        model = QuantBertForSequenceClassification(
            config, QuantConfig.figure3(weight_bits=4, clip=True), rng=rng
        )
        with pytest.raises(ValueError):
            convert_to_integer(model)

    def test_uncalibrated_quantizer_is_named(self, calibrated_pair):
        model = copy.deepcopy(calibrated_pair[0])
        quantizer = model.encoder.layers[1].feed_forward.gelu_quantizer
        quantizer.observer = EMAObserver()
        with pytest.raises(
            RuntimeError, match=r"encoder\.layers\.1\.feed_forward\.gelu_quantizer has seen no data"
        ):
            convert_to_integer(model)
