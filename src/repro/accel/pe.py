"""Processing Element (PE) and Processing Unit (PU) functional models.

Architecture (Figure 2): the accelerator has ``H`` PUs; each PU contains
``N`` PEs; each PE is one BIM feeding an accumulator whose partial sums land
in a double-buffered Psum Buf and then pass through the quantization module
(bias add + Eq. 5 requantization).

The functional model here is *bit-exact*: ``matvec``/``matmul`` produce the
same integer accumulators as ``x @ W.T`` in int64, because the BIM recombination
is exact.  The cycle-accurate timing lives in :mod:`repro.accel.scheduler`;
keeping function and timing separate lets the tests verify each in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..quant.fixedpoint import FixedPointMultiplier
from .bim import Bim, BimMode, BimType


@dataclass(frozen=True)
class ProcessingElement:
    """One PE: a BIM plus a 32-bit accumulator.

    ``accumulate_row`` walks a length-K operand pair in chunks of the BIM's
    lane width, exactly as the hardware streams a weight row past the PE.
    """

    bim: Bim

    def accumulate_row(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        mode: BimMode = BimMode.MODE_8x4,
        act_signed: bool = True,
    ) -> int:
        """Full dot product of one weight row, chunked at BIM lane width.

        ``act_signed=False`` flips the per-multiplier sign signal for
        unsigned activations (the softmax outputs feeding ``Attn·V``).
        """
        activations = np.asarray(activations, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if activations.shape != weights.shape:
            raise ValueError(f"operand shapes differ: {activations.shape} vs {weights.shape}")
        lanes = self.bim.lanes_8x4 if mode is BimMode.MODE_8x4 else self.bim.lanes_8x8
        k = activations.shape[0]
        accumulator = 0
        for start in range(0, k, lanes):
            chunk_a = activations[start : start + lanes]
            chunk_w = weights[start : start + lanes]
            if chunk_a.shape[0] < lanes:  # zero-pad the final partial chunk
                pad = lanes - chunk_a.shape[0]
                chunk_a = np.pad(chunk_a, (0, pad))
                chunk_w = np.pad(chunk_w, (0, pad))
            if mode is BimMode.MODE_8x4:
                accumulator += self.bim.dot_8x4(chunk_a, chunk_w, act_signed=act_signed)
            else:
                accumulator += self.bim.dot_8x8(chunk_a, chunk_w, act_signed=act_signed)
            _check_int32(accumulator)
        return accumulator

    def cycles_per_row(self, k: int, mode: BimMode) -> int:
        """Cycles to stream a length-``k`` dot product through the BIM."""
        lanes = self.bim.lanes_8x4 if mode is BimMode.MODE_8x4 else self.bim.lanes_8x8
        return int(np.ceil(k / lanes))


def _check_int32(value: int) -> None:
    if not (-(2 ** 31) <= value < 2 ** 31):
        raise OverflowError(f"accumulator overflowed int32: {value}")


@dataclass(frozen=True)
class QuantizationModule:
    """The 'Quant' block of Figure 2: bias add + Eq. 5 requantization.

    Pipelined in hardware ("spends more than one cycle", hence the
    double-buffered Psum Buf); functionally it is bias-add, fixed-point
    multiply, and 8-bit saturation.
    """

    requant: FixedPointMultiplier
    out_bits: int = 8
    pipeline_depth: int = 4  # cycles; used by the scheduler's drain model

    def apply(self, accumulators: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
        addend = None if bias is None else np.asarray(bias, dtype=np.int64)
        return self.requant.requantize(
            np.asarray(accumulators, dtype=np.int64), self.out_bits, addend=addend
        )


@dataclass(frozen=True)
class ProcessingUnit:
    """One PU: ``N`` PEs sharing a broadcast activation vector.

    Each PE owns one output row of the current weight tile, so a PU
    produces ``N`` outputs per pass.  ``matvec`` runs the whole
    matrix-vector product a PU would execute over several passes.
    """

    num_pes: int
    bim: Bim

    def pe(self) -> ProcessingElement:
        return ProcessingElement(self.bim)

    def matvec(
        self,
        weights: np.ndarray,  # (out_dim, k) integer codes
        activations: np.ndarray,  # (k,) integer codes
        mode: BimMode = BimMode.MODE_8x4,
        act_signed: bool = True,
    ) -> np.ndarray:
        """Bit-exact matrix-vector product as executed by the PE array."""
        weights = np.asarray(weights, dtype=np.int64)
        activations = np.asarray(activations, dtype=np.int64)
        out_dim, k = weights.shape
        element = self.pe()
        outputs = np.zeros(out_dim, dtype=np.int64)
        for row in range(out_dim):
            outputs[row] = element.accumulate_row(
                activations, weights[row], mode, act_signed=act_signed
            )
        return outputs

    def passes(self, out_dim: int) -> int:
        """Number of N-output passes to cover ``out_dim`` rows."""
        return int(np.ceil(out_dim / self.num_pes))


def reference_matvec(weights: np.ndarray, activations: np.ndarray) -> np.ndarray:
    """Plain int64 reference the PE array must match bit-exactly."""
    return np.asarray(weights, dtype=np.int64) @ np.asarray(activations, dtype=np.int64)


def make_pu(num_pes: int, num_multipliers: int, bim_type: BimType = BimType.TYPE_A) -> ProcessingUnit:
    """Convenience constructor for a PU with ``N`` PEs of ``M`` multipliers."""
    return ProcessingUnit(num_pes=num_pes, bim=Bim(num_multipliers, bim_type))
