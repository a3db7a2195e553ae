"""Softmax core and LN core: functional models of the special-function units.

These wrap the bit-accurate arithmetic from :mod:`repro.quant` with the
hardware organization described in Sec. III-B: the softmax core's two-pass
row scan over a 256-entry exp LUT, and the LN core's coarse-grained 3-stage
SIMD pipeline.  Cycle counts mirror :mod:`repro.accel.scheduler` so the
functional and timing models stay consistent (a property the tests check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..quant.fixedpoint import FixedPointMultiplier
from ..quant.integer_model import IntegerLayerNorm, LN_FRAC_BITS
from ..quant.softmax_lut import build_exp_lut, quantized_softmax


@dataclass
class SoftmaxCore:
    """LUT-based softmax unit (Figure 2, right).

    The exp LUT is loaded into the parameter buffer at initialization; at
    run time the core performs, per row: pass 1 — find the max and read the
    LUT for every element while accumulating the denominator; pass 2 —
    normalize each numerator.  ``simd`` elements are processed per cycle.
    """

    score_scale: float
    simd: int = 16
    pipeline_depth: int = 8

    def __post_init__(self):
        self.lut = build_exp_lut(self.score_scale)
        if len(self.lut) != 256:
            raise ValueError("softmax core expects a 256-entry LUT")

    def forward(
        self, score_codes: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Bit-accurate softmax over the last axis (8-bit codes out)."""
        outputs, _ = quantized_softmax(
            score_codes, self.score_scale, lut=self.lut, mask=mask
        )
        return outputs

    def cycles(self, num_rows: int, row_len: int) -> int:
        """Total cycles for ``num_rows`` independent rows."""
        row_scan = int(np.ceil(row_len / self.simd))
        return num_rows * (2 * row_scan + self.pipeline_depth)


@dataclass
class LnCore:
    """The 3-stage pipelined SIMD layer-normalization unit (Sec. III-B).

    Stage 1 consumes two input vectors with two scaling factors and produces
    the aligned sum and its mean; stage 2 subtracts the mean and computes
    the variance; stage 3 applies gamma/beta and requantizes.  The
    arithmetic is exactly :class:`repro.quant.IntegerLayerNorm`; this class
    adds the stage decomposition and timing.
    """

    ln: IntegerLayerNorm
    simd: int = 16
    pipeline_depth: int = 6

    def stage1(self, codes_a: np.ndarray, codes_b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Align-and-add plus mean (returns the Q.15 vector and its mean)."""
        v = self.ln.align_a.apply(codes_a.astype(np.int64)) + self.ln.align_b.apply(
            codes_b.astype(np.int64)
        )
        mean = np.rint(v.sum(axis=-1, keepdims=True) / v.shape[-1]).astype(np.int64)
        return v, mean

    def stage2(self, v: np.ndarray, mean: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Center and compute the integer std (Q.15)."""
        from ..quant.fixedpoint import integer_isqrt

        centered = v - mean
        var = (centered * centered).sum(axis=-1, keepdims=True) // v.shape[-1]
        std = integer_isqrt(var + self.ln.eps_fx)
        return centered, std

    def stage3(self, centered: np.ndarray, std: np.ndarray) -> np.ndarray:
        """Normalize, apply gamma/beta, requantize to 8-bit codes."""
        normalized = (centered << LN_FRAC_BITS) // np.maximum(std, 1)
        acc = normalized * self.ln.gamma_codes.astype(np.int64) + (
            self.ln.beta_codes.astype(np.int64) << LN_FRAC_BITS
        )
        return self.ln.out_requant.requantize(acc, 8)

    def forward(self, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
        """Run all three stages; must equal ``IntegerLayerNorm.forward``."""
        v, mean = self.stage1(codes_a, codes_b)
        centered, std = self.stage2(v, mean)
        return self.stage3(centered, std)

    def cycles(self, num_tokens: int, width: int) -> int:
        token_scan = int(np.ceil(width / self.simd))
        return (num_tokens + 2) * token_scan + self.pipeline_depth


def make_ln_core(
    gamma_codes: np.ndarray,
    beta_codes: np.ndarray,
    scale_a: float,
    scale_b: float,
    out_scale: float,
    eps: float = 1e-5,
    simd: int = 16,
) -> LnCore:
    """Build an LnCore directly from scales (used by unit tests)."""
    from ..quant.fixedpoint import LN_PARAM_FORMAT

    two_f = 2.0 ** LN_FRAC_BITS
    ln = IntegerLayerNorm(
        gamma_codes=np.asarray(gamma_codes, dtype=np.int64),
        beta_codes=np.asarray(beta_codes, dtype=np.int64),
        align_a=FixedPointMultiplier.from_float(two_f / scale_a),
        align_b=FixedPointMultiplier.from_float(two_f / scale_b),
        out_requant=FixedPointMultiplier.from_float(
            out_scale / 2.0 ** (LN_FRAC_BITS + LN_PARAM_FORMAT.frac_bits)
        ),
        out_scale=out_scale,
        eps_fx=int(round(eps * 2.0 ** (2 * LN_FRAC_BITS))),
    )
    return LnCore(ln=ln, simd=simd)
