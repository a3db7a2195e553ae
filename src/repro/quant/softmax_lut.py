"""Quantized softmax with a 256-entry exponential lookup table.

Section III-B of the paper: exp() is too expensive in LUTs/DSPs, so the
softmax core subtracts the row maximum first — softmax is shift-invariant —
which bounds exp(x - max) to (0, 1].  With the numerator quantized to 8
bits, a 256-entry table indexed by the quantized difference suffices.

This module provides:

- :func:`build_exp_lut` — the table the hardware loads into its parameter
  buffer at initialization.
- :func:`quantized_softmax` — the bit-accurate integer softmax used by both
  the integer inference engine and the accelerator's functional model.
- :func:`fake_quant_softmax` — the differentiable QAT version whose forward
  matches the integer path but which backpropagates like float softmax via
  straight-through estimators.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.functional import ste_round

LUT_ENTRIES = 256
OUTPUT_LEVELS = 255  # 8-bit unsigned numerator/output codes: 0..255


def build_exp_lut(
    score_scale: float,
    entries: int = LUT_ENTRIES,
    output_levels: int = OUTPUT_LEVELS,
) -> np.ndarray:
    """Build the exp LUT: entry ``d`` holds ``round(exp(-d / s) * levels)``.

    ``d`` is the non-negative integer difference ``max_code - x_code`` of the
    8-bit score codes; dividing by the score scale recovers the real-valued
    (negative) argument of exp.  Entry 0 is exp(0) = ``output_levels``.
    """
    if score_scale <= 0:
        raise ValueError(f"score_scale must be positive, got {score_scale}")
    if entries < 2:
        raise ValueError(f"LUT needs >= 2 entries, got {entries}")
    diffs = np.arange(entries, dtype=np.float64)
    values = np.exp(-diffs / score_scale) * output_levels
    return np.rint(values).astype(np.int64)


def quantized_softmax(
    score_codes: np.ndarray,
    score_scale: float,
    lut: np.ndarray = None,
    output_levels: int = OUTPUT_LEVELS,
    mask: np.ndarray = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer softmax over the last axis.

    Parameters
    ----------
    score_codes:
        Integer codes of the attention scores (output of the QKᵀ requantizer).
    score_scale:
        The scale mapping codes back to real scores.
    lut:
        Optional prebuilt table (otherwise built from ``score_scale``).
    mask:
        Optional 0/1 validity mask broadcastable to ``score_codes``.  The
        hardware controller simply never streams padded key positions into
        the softmax core; we model that by excluding masked entries from the
        row max and zeroing their numerators.

    Returns
    -------
    (output_codes, numerators):
        ``output_codes`` are the 8-bit unsigned attention-probability codes
        in ``[0, output_levels]`` with scale ``output_levels`` (i.e. the real
        probability is ``code / output_levels``); ``numerators`` are the
        8-bit exp codes, exposed because the accelerator's softmax core
        streams them to the divider.

    Raises
    ------
    ValueError
        If the exp LUT's entry 0 (exp(0)) is not positive, or ``mask``
        leaves a row with no valid key: either would divide 0 by 0.
    """
    score_codes = np.asarray(score_codes, dtype=np.int64)
    if lut is None:
        lut = build_exp_lut(score_scale, output_levels=output_levels)
    if lut[0] <= 0:
        raise ValueError(
            f"exp LUT entry 0 holds exp(0) and must be positive, got {lut[0]}"
        )
    if mask is not None:
        valid = np.broadcast_to(np.asarray(mask, dtype=bool), score_codes.shape)
        masked_codes = np.where(valid, score_codes, np.iinfo(np.int64).min)
        row_max = masked_codes.max(axis=-1, keepdims=True)
    else:
        valid = None
        row_max = score_codes.max(axis=-1, keepdims=True)
    diffs = row_max - score_codes  # >= 0 on valid positions
    diffs = np.clip(diffs, 0, len(lut) - 1)
    numerators = lut[diffs]
    if valid is not None:
        numerators = np.where(valid, numerators, 0)
    denominators = numerators.sum(axis=-1, keepdims=True)
    # A row with a valid key has denominator >= lut[0] > 0 (its max element
    # contributes exp(0)); only a row the mask empties sums to 0.
    if (
        valid is not None
        and not denominators.all()
        and not valid.any(axis=-1).all()
    ):
        raise ValueError("mask leaves a softmax row with no valid key")
    outputs = np.rint(numerators * output_levels / denominators).astype(np.int64)
    return outputs, numerators


def fake_quant_softmax(
    scores: Tensor,
    score_scale: float,
    axis: int = -1,
    mask: np.ndarray = None,
) -> Tensor:
    """Differentiable softmax whose forward follows the quantized datapath.

    Forward: quantize scores, subtract max, quantize exp() numerators to
    8 bits, normalize, quantize the output to 8 bits — numerically identical
    to :func:`quantized_softmax` up to the LUT's rounding of exp itself.
    Backward: straight-through estimators on every rounding, so gradients
    are those of a float softmax with saturation masks.  ``mask`` (0/1,
    broadcastable) excludes padded key positions, mirroring the hardware
    controller which never streams them into the softmax core.
    """
    if axis != -1:
        raise ValueError("fake_quant_softmax only supports the last axis")
    # Quantize scores to 8-bit codes (already the case post-requantization,
    # but making it explicit keeps this function self-contained for QAT).
    score_codes = ste_round(scores * score_scale)
    if mask is not None:
        valid = np.broadcast_to(np.asarray(mask, dtype=bool), score_codes.shape)
        masked = np.where(valid, score_codes.data, -np.inf)
        max_codes = Tensor(masked.max(axis=-1, keepdims=True))
    else:
        valid = None
        max_codes = Tensor(score_codes.data.max(axis=-1, keepdims=True))
    shifted = (score_codes - max_codes) * (1.0 / score_scale)  # <= 0 on valid
    # Masked positions can sit above the valid max; clamp before exp so the
    # (mask-zeroed) numerators never overflow.
    shifted = shifted.clamp(-1e30, 0.0)
    numerators = ste_round(shifted.exp() * float(OUTPUT_LEVELS)) * (1.0 / OUTPUT_LEVELS)
    if valid is not None:
        numerators = numerators * Tensor(valid.astype(np.float32))
    denominators = numerators.sum(axis=-1, keepdims=True)
    probs = numerators / denominators
    return ste_round(probs * float(OUTPUT_LEVELS)) * (1.0 / OUTPUT_LEVELS)


def lut_max_error(score_scale: float, entries: int = LUT_ENTRIES) -> float:
    """Worst-case absolute LUT error against float exp, over all 8-bit diffs.

    8-bit score codes produce differences up to 254, so a table smaller than
    256 entries must clamp the tail — that clamp error dominates for small
    tables, which is why the paper sizes the table at exactly 256 entries
    (one per representable difference).
    """
    lut = build_exp_lut(score_scale, entries=entries)
    diffs = np.arange(LUT_ENTRIES, dtype=np.int64)
    looked_up = lut[np.clip(diffs, 0, entries - 1)]
    exact = np.exp(-diffs.astype(np.float64) / score_scale)
    return float(np.abs(looked_up / OUTPUT_LEVELS - exact).max())
