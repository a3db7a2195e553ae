"""Pinned synthetic workloads for benchmarks and pinned tests.

The accuracy experiments need *trained* models, but benchmarking only needs
realistic shapes and code distributions — so this module builds frozen
:class:`~repro.quant.integer_model.IntegerBertForSequenceClassification`
instances directly from seeded random parameter codes, at sizes the numpy
QAT path could never train in bench-budget time.  Everything is
deterministic given ``seed``: same model, same inputs, same logits, every
run on every machine — which is what lets the tier-1 tests pin their
simulated statistics exactly.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

import numpy as np

from ..bert.config import BertConfig
from ..quant.fixedpoint import FixedPointMultiplier, LN_PARAM_FORMAT
from ..quant.integer_model import (
    ACT_BITS,
    LN_FRAC_BITS,
    GeluLUT,
    IntegerBertForSequenceClassification,
    IntegerBertLayer,
    IntegerLayerNorm,
    IntegerLinear,
    IntegerSelfAttention,
)
from ..quant.quantizer import int_range
from ..quant.softmax_lut import OUTPUT_LEVELS, build_exp_lut

# One plausible frozen activation scale used at every buffer point of the
# synthetic model; benchmarks only need the datapath, not tuned scales.
_ACT_SCALE = 20.0
_SCORE_SCALE = 25.0


def _random_linear(
    rng: np.random.Generator, in_dim: int, out_dim: int, weight_bits: int = 4
) -> IntegerLinear:
    """A frozen linear layer with seeded random integer parameters."""
    qmin, qmax = int_range(weight_bits)
    return IntegerLinear(
        weight_codes=rng.integers(qmin, qmax + 1, size=(out_dim, in_dim)).astype(np.int64),
        bias_codes=rng.integers(-2000, 2001, size=out_dim).astype(np.int64),
        requant=FixedPointMultiplier.from_float(1.0 / (_ACT_SCALE * qmax)),
        in_scale=_ACT_SCALE,
        weight_scale=float(qmax),
        out_scale=_ACT_SCALE,
    )


def _random_layernorm(rng: np.random.Generator, hidden: int) -> IntegerLayerNorm:
    """A frozen fixed-point Add&LN with seeded random gamma/beta."""
    two_f = 2.0 ** LN_FRAC_BITS
    return IntegerLayerNorm(
        gamma_codes=LN_PARAM_FORMAT.to_fixed(rng.uniform(0.5, 2.0, size=hidden)),
        beta_codes=LN_PARAM_FORMAT.to_fixed(rng.uniform(-0.5, 0.5, size=hidden)),
        align_a=FixedPointMultiplier.from_float(two_f / _ACT_SCALE),
        align_b=FixedPointMultiplier.from_float(two_f / _ACT_SCALE),
        out_requant=FixedPointMultiplier.from_float(
            _ACT_SCALE / 2.0 ** (LN_FRAC_BITS + LN_PARAM_FORMAT.frac_bits)
        ),
        out_scale=_ACT_SCALE,
        eps_fx=int(round(1e-5 * 2.0 ** (2 * LN_FRAC_BITS))),
    )


def build_synthetic_integer_model(
    config: Optional[BertConfig] = None, seed: int = 0
) -> IntegerBertForSequenceClassification:
    """Build a frozen integer model from seeded random parameter codes.

    Args:
        config: Architecture to instantiate (default: a 4-layer,
            hidden-192 shape sized for sub-second bench iterations).
        seed: Seed for every random parameter; two calls with equal
            arguments produce bit-identical models.

    Returns:
        An integer model whose ``encode``/``classify``/``forward`` behave
        exactly like a converted QAT model — including the host-side float
        embedding lookup and classification head.
    """
    config = config or BertConfig(
        vocab_size=512,
        hidden_size=192,
        num_hidden_layers=4,
        num_attention_heads=12,
        intermediate_size=768,
        max_position_embeddings=128,
        num_labels=2,
    )
    rng = np.random.default_rng(seed)
    hidden = config.hidden_size
    exp_lut = build_exp_lut(_SCORE_SCALE)
    inv_sqrt_d = 1.0 / np.sqrt(config.head_dim)

    layers: List[IntegerBertLayer] = []
    for _ in range(config.num_hidden_layers):
        attention = IntegerSelfAttention(
            query=_random_linear(rng, hidden, hidden),
            key=_random_linear(rng, hidden, hidden),
            value=_random_linear(rng, hidden, hidden),
            num_heads=config.num_attention_heads,
            score_requant=FixedPointMultiplier.from_float(
                _SCORE_SCALE * inv_sqrt_d / (_ACT_SCALE * _ACT_SCALE)
            ),
            score_scale=_SCORE_SCALE,
            exp_lut=exp_lut,
            context_requant=FixedPointMultiplier.from_float(
                _ACT_SCALE / (OUTPUT_LEVELS * _ACT_SCALE)
            ),
            context_scale=_ACT_SCALE,
        )
        layers.append(
            IntegerBertLayer(
                attention=attention,
                attention_output=_random_linear(rng, hidden, hidden),
                attention_layernorm=_random_layernorm(rng, hidden),
                ffn1=_random_linear(rng, hidden, config.intermediate_size),
                gelu=GeluLUT.build(_ACT_SCALE, _ACT_SCALE),
                ffn2=_random_linear(rng, config.intermediate_size, hidden),
                output_layernorm=_random_layernorm(rng, hidden),
            )
        )

    qmin, qmax = int_range(ACT_BITS)
    embed_table = rng.integers(qmin, qmax + 1, size=(config.vocab_size, hidden)).astype(
        np.int64
    )
    head_weight = rng.standard_normal((hidden, config.num_labels)).astype(np.float32)
    head_bias = rng.standard_normal(config.num_labels).astype(np.float32)

    def embed_fn(input_ids: np.ndarray, token_type_ids) -> np.ndarray:
        """Host embedding stand-in: a deterministic code-table lookup."""
        return embed_table[np.asarray(input_ids) % config.vocab_size]

    def head_fn(hidden_states: np.ndarray) -> np.ndarray:
        """Host head stand-in: [CLS] pooling + one float linear layer."""
        pooled = hidden_states[:, 0, :].astype(np.float32)
        return pooled @ head_weight + head_bias

    return IntegerBertForSequenceClassification(
        config=config,
        layers=layers,
        embed_fn=embed_fn,
        head_fn=head_fn,
        input_scale=_ACT_SCALE,
    )


class HashTokenizer:
    """A deterministic stand-in tokenizer for serve benchmarks.

    Maps each whitespace token to a stable vocabulary id via CRC32 (stable
    across processes and platforms, unlike Python's ``hash``).  Implements
    the same ``encode`` contract as
    :class:`repro.bert.tokenizer.WordPieceTokenizer`, which is all the
    serving engine requires.
    """

    def __init__(self, vocab_size: int = 512):
        """Args:
            vocab_size: Id space; ids 0/1 are reserved (pad / [CLS]-like).
        """
        if vocab_size < 4:
            raise ValueError(f"vocab_size must be >= 4, got {vocab_size}")
        self.vocab_size = vocab_size

    def encode(
        self, text_a: str, text_b: Optional[str] = None, max_length: int = 64
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode one (pair of) text(s) into padded id arrays.

        Args:
            text_a: First segment.
            text_b: Optional second segment.
            max_length: Padded output length.

        Returns:
            ``(input_ids, attention_mask, token_type_ids)`` int64 arrays of
            shape ``(max_length,)``.
        """
        ids = [1]  # leading [CLS]-like marker so row 0 pools meaningfully
        segments = [0]
        for segment, text in enumerate(t for t in (text_a, text_b) if t is not None):
            for word in text.split():
                ids.append(2 + zlib.crc32(word.encode("utf-8")) % (self.vocab_size - 2))
                segments.append(segment)
        ids = ids[:max_length]
        segments = segments[:max_length]
        length = len(ids)
        input_ids = np.zeros(max_length, dtype=np.int64)
        input_ids[:length] = ids
        mask = np.zeros(max_length, dtype=np.int64)
        mask[:length] = 1
        token_types = np.zeros(max_length, dtype=np.int64)
        token_types[:length] = segments
        return input_ids, mask, token_types


def bench_text_pool(num_texts: int = 64, seed: int = 0) -> List[Tuple[str, None]]:
    """A deterministic pool of variable-length texts for serve traces.

    Args:
        num_texts: Pool size (traces draw from it with replacement, so the
            tokenization cache sees realistic repetition).
        seed: Seed for lengths and word choices.

    Returns:
        ``(text_a, None)`` pairs as :func:`repro.serve.generate_trace` expects.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(num_texts):
        length = int(rng.integers(3, 24))
        words = [f"w{int(rng.integers(0, 400))}" for _ in range(length)]
        pool.append((" ".join(words), None))
    return pool
