"""Seed (pre-optimization) integer kernels, kept as the equivalence oracle.

The vectorization pass in :mod:`repro.quant.integer_model` is only allowed
to make the hot path *faster*, never *different*: every optimized kernel
must produce codes bit-identical to the implementation this repository
seeded with.  This module preserves those seed kernels verbatim — per-call
transpose copies, redundant ``int64`` casts, native integer matmuls and all
— so that

- ``tests/perf/test_reference_equivalence.py`` can assert bit-exactness on
  random and adversarial inputs, and
- ``benchmarks/test_bench_vectorization.py`` can report the optimized/seed
  speedup of each kernel.

These functions operate on the *same* frozen dataclasses as the optimized
engine (:class:`~repro.quant.integer_model.IntegerLinear` etc.), so a single
converted model can be executed through either path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..quant.fixedpoint import integer_isqrt, saturate
from ..quant.integer_model import (
    ACT_BITS,
    LN_FRAC_BITS,
    IntegerBertForSequenceClassification,
    IntegerBertLayer,
    IntegerLayerNorm,
    IntegerLinear,
    IntegerSelfAttention,
    _merge_heads_np,
    _split_heads_np,
)
from ..quant.softmax_lut import quantized_softmax


def reference_linear_forward(linear: IntegerLinear, x_codes: np.ndarray) -> np.ndarray:
    """Seed Eq. 5 kernel: per-call transpose + cast, native int64 matmul.

    Args:
        linear: A frozen integer linear layer.
        x_codes: Activation codes, shape ``(..., in_features)``.

    Returns:
        Output codes saturated to ``linear.out_bits``.
    """
    acc = x_codes.astype(np.int64) @ linear.weight_codes.T.astype(np.int64)
    if linear.bias_codes is not None:
        acc = acc + linear.bias_codes
    return saturate(linear.requant.apply(acc), linear.out_bits)


def reference_layernorm_forward(
    ln: IntegerLayerNorm, codes_a: np.ndarray, codes_b: np.ndarray
) -> np.ndarray:
    """Seed fixed-point Add&LN: re-widens gamma/beta on every call.

    Args:
        ln: A frozen integer layer norm.
        codes_a: Integer codes of the first addend.
        codes_b: Integer codes of the second addend, same shape.

    Returns:
        8-bit output codes.
    """
    v = ln.align_a.apply(codes_a.astype(np.int64)) + ln.align_b.apply(
        codes_b.astype(np.int64)
    )
    n = v.shape[-1]
    total = v.sum(axis=-1, keepdims=True)
    mean = np.rint(total / n).astype(np.int64)
    centered = v - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) // n
    std = integer_isqrt(var + ln.eps_fx)
    normalized = (centered << LN_FRAC_BITS) // np.maximum(std, 1)
    scaled = normalized * ln.gamma_codes.astype(np.int64)
    beta_aligned = ln.beta_codes.astype(np.int64) << LN_FRAC_BITS
    acc = scaled + beta_aligned
    return saturate(ln.out_requant.apply(acc), ACT_BITS)


def reference_attention_forward(
    attn: IntegerSelfAttention,
    x_codes: np.ndarray,
    attention_mask: Optional[np.ndarray],
) -> np.ndarray:
    """Seed integer multi-head attention (native int64 batched matmuls).

    Args:
        attn: A frozen integer self-attention block.
        x_codes: Hidden codes, shape ``(batch, seq, hidden)``.
        attention_mask: Optional 0/1 validity mask, ``(batch, seq)``.

    Returns:
        Context codes, shape ``(batch, seq, hidden)``.
    """
    q = _split_heads_np(reference_linear_forward(attn.query, x_codes), attn.num_heads)
    k = _split_heads_np(reference_linear_forward(attn.key, x_codes), attn.num_heads)
    v = _split_heads_np(reference_linear_forward(attn.value, x_codes), attn.num_heads)

    score_acc = q.astype(np.int64) @ k.swapaxes(-1, -2).astype(np.int64)
    score_codes = saturate(attn.score_requant.apply(score_acc), ACT_BITS)

    mask = attention_mask[:, None, None, :] if attention_mask is not None else None
    prob_codes, _ = quantized_softmax(
        score_codes, attn.score_scale, lut=attn.exp_lut, mask=mask
    )

    context_acc = prob_codes.astype(np.int64) @ v.astype(np.int64)
    context_codes = saturate(attn.context_requant.apply(context_acc), ACT_BITS)
    return _merge_heads_np(context_codes)


def reference_layer_forward(
    layer: IntegerBertLayer,
    x_codes: np.ndarray,
    attention_mask: Optional[np.ndarray],
) -> np.ndarray:
    """One encoder layer through the seed kernels.

    Args:
        layer: A frozen integer encoder layer.
        x_codes: Hidden codes, shape ``(batch, seq, hidden)``.
        attention_mask: Optional 0/1 validity mask, ``(batch, seq)``.

    Returns:
        The layer's output codes.
    """
    context = reference_attention_forward(layer.attention, x_codes, attention_mask)
    projected = reference_linear_forward(layer.attention_output, context)
    attended = _reference_ln(layer.attention_layernorm, projected, x_codes)

    intermediate = reference_linear_forward(layer.ffn1, attended)
    activated = layer.gelu.forward(intermediate)
    ffn_out = reference_linear_forward(layer.ffn2, activated)
    return _reference_ln(layer.output_layernorm, ffn_out, attended)


def reference_encode(
    model: IntegerBertForSequenceClassification,
    input_ids: np.ndarray,
    attention_mask: Optional[np.ndarray] = None,
    token_type_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Host embedding + the integer encoder, all through seed kernels.

    Args:
        model: A converted integer model.
        input_ids: Token ids, shape ``(batch, seq)``.
        attention_mask: Optional 0/1 mask, ``(batch, seq)``.
        token_type_ids: Optional segment ids, ``(batch, seq)``.

    Returns:
        Final encoder codes, shape ``(batch, seq, hidden)``.
    """
    codes = model._embed_fn(np.asarray(input_ids), token_type_ids)
    for layer in model.layers:
        codes = reference_layer_forward(layer, codes, attention_mask)
    return codes


def reference_forward(
    model: IntegerBertForSequenceClassification,
    input_ids: np.ndarray,
    attention_mask: Optional[np.ndarray] = None,
    token_type_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Logits through the seed kernels (encoder + the shared float head).

    Args:
        model: A converted integer model.
        input_ids: Token ids, shape ``(batch, seq)``.
        attention_mask: Optional 0/1 mask, ``(batch, seq)``.
        token_type_ids: Optional segment ids, ``(batch, seq)``.

    Returns:
        Logits of shape ``(batch, num_labels)``.
    """
    codes = reference_encode(model, input_ids, attention_mask, token_type_ids)
    return model.classify(codes)


def _reference_ln(ln, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """Dispatch Add&LN to the seed integer kernel (float LN is unchanged)."""
    if isinstance(ln, IntegerLayerNorm):
        return reference_layernorm_forward(ln, codes_a, codes_b)
    return ln.forward(codes_a, codes_b)
