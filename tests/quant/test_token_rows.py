"""The padding-free encoder: packed token rows and requested output rows.

``encode`` computes only the valid tokens, and in its last layer only the
rows the caller asks for.  These differentials check that no code depends
on the padding, on the other sequences of the batch or on which rows were
requested, against the seed oracle in ``repro.perf.reference``, on the
synthetic model, a saturating variant of it and converted QAT models
(per-tensor and per-channel weight multipliers).
"""

import copy
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bert import BertConfig, BertForSequenceClassification
from repro.perf import build_synthetic_integer_model, reference_encode
from repro.quant import QuantConfig, convert_to_integer, quantize_model
from repro.quant.fixedpoint import FixedPointMultiplier
from repro.quant.integer_model import TokenRows

MAX_SEQ = 10
MAX_EXTRA_PAD = 4  # MAX_SEQ + MAX_EXTRA_PAD stays within max_position_embeddings

SMALL_CONFIG = BertConfig(
    vocab_size=64,
    hidden_size=32,
    num_hidden_layers=2,
    num_attention_heads=4,
    intermediate_size=64,
    max_position_embeddings=32,
    num_labels=2,
)
SATURATION_GAIN = 8.0


def _linears(model):
    for layer in model.layers:
        attention = layer.attention
        yield from (attention.query, attention.key, attention.value)
        yield from (layer.attention_output, layer.ffn1, layer.ffn2)


def _saturating_model():
    """The synthetic model with every linear's multiplier scaled up 8x."""
    model = copy.deepcopy(build_synthetic_integer_model(SMALL_CONFIG, seed=4))
    for linear in _linears(model):
        linear.requant = FixedPointMultiplier.from_float(
            linear.requant.to_float() * SATURATION_GAIN
        )
    return model


def _converted_model(qconfig: QuantConfig, seed: int):
    """A tiny QAT model, calibrated on a few batches and frozen to integers."""
    rng = np.random.default_rng(seed)
    config = BertConfig.tiny(vocab_size=48, max_position_embeddings=16)
    quant = quantize_model(BertForSequenceClassification(config, rng=rng), qconfig, rng=rng)
    quant.train()
    for _ in range(3):
        ids = rng.integers(0, config.vocab_size, size=(4, MAX_SEQ))
        quant(ids, np.ones((4, MAX_SEQ), dtype=np.int64))
    quant.eval()
    return convert_to_integer(quant)


@lru_cache(maxsize=None)
def model_named(name: str):
    if name == "synthetic":
        return build_synthetic_integer_model(SMALL_CONFIG, seed=3)
    if name == "saturating":
        return _saturating_model()
    if name == "qat":
        return _converted_model(QuantConfig.fq_bert(), seed=7)
    if name == "qat_per_channel":
        qconfig = replace(QuantConfig.fq_bert(), per_channel_weights=True, use_clip=False)
        return _converted_model(qconfig, seed=5)
    raise ValueError(name)


MODELS = ["synthetic", "saturating", "qat", "qat_per_channel"]


@st.composite
def batches(draw):
    """Ids, a mask with at least one valid token per row, and segment ids."""
    batch = draw(st.integers(1, 4))
    seq = draw(st.integers(1, MAX_SEQ))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ids = rng.integers(0, 48, size=(batch, seq))
    types = rng.integers(0, 2, size=(batch, seq))
    if draw(st.booleans()):
        # Tokenizer-shaped: a valid prefix, then padding.
        lengths = rng.integers(1, seq + 1, size=batch)
        mask = (np.arange(seq)[None, :] < lengths[:, None]).astype(np.int64)
    else:
        mask = (rng.random((batch, seq)) < 0.6).astype(np.int64)
        mask[np.arange(batch), rng.integers(0, seq, size=batch)] = 1
    return ids, mask, types


def _pad(array: np.ndarray, extra: int) -> np.ndarray:
    return np.pad(array, ((0, 0), (0, extra)))


class TestPackedDifferential:
    @pytest.mark.parametrize("name", MODELS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_rows_do_not_depend_on_padding_batch_mates_or_request(self, name, data):
        model = model_named(name)
        ids, mask, types = data.draw(batches())
        batch, seq = ids.shape
        full = model.encode(ids, mask, types)
        assert full.dtype == np.int64 and full.shape == (batch, seq, model.config.hidden_size)
        np.testing.assert_array_equal(full, reference_encode(model, ids, mask, types))

        # One sequence alone, with extra padding: every position it shares
        # with the batch (pad positions included) keeps its codes.
        extra = data.draw(st.integers(0, MAX_EXTRA_PAD))
        for i in range(batch):
            alone = model.encode(*(_pad(a[i : i + 1], extra) for a in (ids, mask, types)))
            np.testing.assert_array_equal(alone[0, :seq], full[i])

        rows = data.draw(st.lists(st.integers(0, seq - 1), min_size=1, max_size=4))
        np.testing.assert_array_equal(model.encode(ids, mask, types, rows=rows), full[:, rows])

        head = model.encode(ids, mask, types, rows=model.head_rows)
        np.testing.assert_array_equal(model.classify_rows(head), model.classify_rows(full))
        np.testing.assert_array_equal(model.forward(ids, mask, types), model.classify(full))

    def test_saturating_model_reaches_both_rails(self):
        model = model_named("saturating")
        codes = np.random.default_rng(0).integers(-128, 128, size=(64, SMALL_CONFIG.hidden_size))
        out = model.layers[0].ffn1.forward(codes)
        assert out.min() == -128 and out.max() == 127


class TestRowsComputed:
    """The last layer runs only the requested rows; no layer runs padding."""

    def test_operator_row_counts(self):
        model = copy.deepcopy(build_synthetic_integer_model(SMALL_CONFIG, seed=3))
        seen = {}
        for depth, layer in enumerate(model.layers):
            for name in ("query", "key"):
                linear = getattr(layer.attention, name)
                linear.forward = _recording(seen, (depth, name), linear.forward)
            layer.ffn1.forward = _recording(seen, (depth, "ffn1"), layer.ffn1.forward)
        lengths = np.array([5, 2, 3])
        mask = (np.arange(12)[None, :] < lengths[:, None]).astype(np.int64)
        ids = np.arange(36).reshape(3, 12) % SMALL_CONFIG.vocab_size
        out = model.encode(ids, mask, rows=(0, 1))
        assert out.shape == (3, 2, SMALL_CONFIG.hidden_size)
        valid = int(lengths.sum())
        assert seen[(0, "query")] == seen[(0, "key")] == seen[(0, "ffn1")] == valid
        assert seen[(1, "key")] == valid
        assert seen[(1, "query")] == seen[(1, "ffn1")] == 3 * 2

    def test_requested_pad_rows_are_computed_but_are_not_keys(self):
        mask = np.array([[1, 1, 0, 0, 0], [1, 0, 0, 0, 0]])
        plan = TokenRows.build(mask, (3,))
        assert plan.width == 4  # trimmed after the last needed position
        assert plan.out_shape == (2, 1)
        # Needed: valid tokens plus position 3 of each row.
        np.testing.assert_array_equal(plan.gather, [0, 1, 3, 4, 7])
        np.testing.assert_array_equal(plan.inner.key_rows, [0, 1, 3])
        np.testing.assert_array_equal(plan.last.query_rows, [2, 4])

    def test_full_request_keeps_every_position(self):
        mask = np.array([[1, 1, 0], [1, 1, 1]])
        plan = TokenRows.build(mask, None)
        assert plan.width == 3 and plan.gather is None and plan.out_shape == (2, 3)
        assert plan.inner.query_rows is None
        np.testing.assert_array_equal(plan.inner.key_rows, [0, 1, 3, 4, 5])


def _recording(seen, key, forward):
    def recorded(x):
        seen[key] = x.shape[0]
        return forward(x)

    return recorded


class TestValidation:
    @pytest.fixture(scope="class")
    def model(self):
        return model_named("synthetic")

    def test_empty_mask_row_names_the_row(self, model):
        ids = np.ones((3, 4), dtype=np.int64)
        mask = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
        with pytest.raises(ValueError, match="attention_mask row 1"):
            model.encode(ids, mask)
        with pytest.raises(ValueError, match="attention_mask row 1"):
            model.layers[0].attention.forward(np.zeros((3, 4, 32)), mask)

    def test_mask_shape_must_match_ids(self, model):
        with pytest.raises(ValueError, match="attention_mask shape"):
            model.encode(np.ones((2, 4), dtype=np.int64), np.ones((2, 3)))

    @pytest.mark.parametrize("rows", [(4,), (-1,), ()])
    def test_rows_must_be_positions(self, model, rows):
        with pytest.raises(ValueError, match="rows must be positions"):
            model.encode(np.ones((2, 4), dtype=np.int64), rows=rows)

