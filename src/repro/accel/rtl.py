"""Cycle-accurate microarchitecture model of one Processing Unit.

The analytic scheduler and the command-stream executor both *assume* the
per-pass timing formula ``ceil(K / lanes) + fill`` and the psum-drain
overlap rules.  This module discharges those assumptions: it models a PU at
the register-transfer level of abstraction — per-cycle state updates of the
BIM input registers, the adder-tree pipeline, the per-PE accumulators, the
ping-pong Psum Buf, and the quantization pipeline — and executes a real
matrix-vector product cycle by cycle.

Two things are checked against it in the tests:

1. **Function**: the drained, requantized outputs equal
   :class:`repro.quant.IntegerLinear` bit for bit.
2. **Timing**: the measured cycle count matches the analytic per-pass
   formula (pipeline fill + chunks + exposed drain) exactly, for both psum
   buffering modes.

This is the deepest level of the simulation stack; it runs small shapes
only (it is a Python loop per cycle) and exists to certify the faster
models above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..quant.fixedpoint import FixedPointMultiplier
from .bim import Bim, BimMode, BimType


@dataclass
class PipelineStage:
    """One register stage: holds a value for exactly one cycle."""

    value: Optional[object] = None


@dataclass
class QuantUnit:
    """The quantization module: a ``depth``-stage pipeline, one psum/cycle."""

    requant: FixedPointMultiplier
    depth: int = 4
    out_bits: int = 8
    stages: List[PipelineStage] = field(default_factory=list)
    drained: List[int] = field(default_factory=list)

    def __post_init__(self):
        self.stages = [PipelineStage() for _ in range(self.depth)]

    def tick(self, accepted: Optional[int]) -> None:
        """Advance one cycle, optionally accepting one accumulator value."""
        out = self.stages[-1].value
        for index in range(self.depth - 1, 0, -1):
            self.stages[index].value = self.stages[index - 1].value
        self.stages[0].value = accepted
        if out is not None:
            code = int(self.requant.requantize(np.array([out]), self.out_bits)[0])
            self.drained.append(code)

    @property
    def busy(self) -> bool:
        return any(stage.value is not None for stage in self.stages)


class ProcessingUnitRTL:
    """Cycle-accurate PU: N PEs fed by a shared activation broadcast.

    Execution of one *pass* (N output rows over a length-K contraction):

    - ``fill`` cycles of pipeline refill (weight-row switch + adder tree),
    - ``ceil(K / lanes)`` compute cycles, each performing one BIM dot per PE,
    - the pass's N accumulators land in the active Psum Buf half; the quant
      unit drains one per cycle.  With a ping-pong buffer the next pass may
      start immediately (the quant unit drains the other half in parallel)
      *unless* the previous drain has not finished — exactly the stall rule
      the analytic model charges.
    """

    def __init__(
        self,
        num_pes: int,
        bim: Bim,
        requant: FixedPointMultiplier,
        pipeline_fill: int = 4,
        quant_depth: int = 4,
        double_buffer_psum: bool = True,
    ):
        self.num_pes = num_pes
        self.bim = bim
        self.pipeline_fill = pipeline_fill
        self.double_buffer_psum = double_buffer_psum
        self.quant = QuantUnit(requant, depth=quant_depth)
        self.cycle = 0

    def _tick(self, accept: Optional[int] = None) -> None:
        self.quant.tick(accept)
        self.cycle += 1

    def run_matvec(
        self,
        weights: np.ndarray,      # (out_dim, k) integer codes
        activations: np.ndarray,  # (k,) integer codes
        bias: Optional[np.ndarray] = None,
        mode: BimMode = BimMode.MODE_8x4,
        act_signed: bool = True,
    ) -> np.ndarray:
        """Execute the full matvec cycle by cycle; returns output codes."""
        weights = np.asarray(weights, dtype=np.int64)
        activations = np.asarray(activations, dtype=np.int64)
        out_dim, k = weights.shape
        lanes = self.bim.lanes_8x4 if mode is BimMode.MODE_8x4 else self.bim.lanes_8x8
        chunks = int(np.ceil(k / lanes))
        passes = int(np.ceil(out_dim / self.num_pes))

        pending_drain: List[int] = []  # accumulators awaiting the quant unit
        for pass_index in range(passes):
            rows = range(
                pass_index * self.num_pes, min((pass_index + 1) * self.num_pes, out_dim)
            )
            # Stall until the psum half we need is free: ping-pong hides the
            # drain behind this pass; a single buffer forces it to finish.
            if not self.double_buffer_psum:
                while pending_drain or self.quant.busy:
                    pending_drain = self._feed(pending_drain)

            # Pipeline refill (weight switch, adder tree latency).
            for _ in range(self.pipeline_fill):
                pending_drain = self._feed(pending_drain)

            # Compute: one chunk of every PE per cycle.
            accumulators = {row: 0 for row in rows}
            for chunk in range(chunks):
                start = chunk * lanes
                stop = min(start + lanes, k)
                act = activations[start:stop]
                if act.shape[0] < lanes:
                    act = np.pad(act, (0, lanes - act.shape[0]))
                for row in rows:
                    wchunk = weights[row, start:stop]
                    if wchunk.shape[0] < lanes:
                        wchunk = np.pad(wchunk, (0, lanes - wchunk.shape[0]))
                    if mode is BimMode.MODE_8x4:
                        accumulators[row] += self.bim.dot_8x4(act, wchunk, act_signed)
                    else:
                        accumulators[row] += self.bim.dot_8x8(act, wchunk, act_signed)
                pending_drain = self._feed(pending_drain)

            # With ping-pong, the completed pass's accumulators queue behind
            # whatever is still draining; the *next* pass can only start once
            # the queue is at most one half deep.
            for row in rows:
                value = accumulators[row]
                if bias is not None:
                    value += int(bias[row])
                pending_drain.append(value)
            if self.double_buffer_psum:
                while len(pending_drain) > self.num_pes:
                    pending_drain = self._feed(pending_drain)

        # Final drain.
        while pending_drain or self.quant.busy:
            pending_drain = self._feed(pending_drain)
        return np.array(self.quant.drained, dtype=np.int64)

    def _feed(self, pending: List[int]) -> List[int]:
        """One cycle: hand at most one pending accumulator to the quant unit."""
        if pending:
            self._tick(pending[0])
            return pending[1:]
        self._tick(None)
        return pending


def analytic_matvec_cycles(
    out_dim: int,
    k: int,
    num_pes: int,
    bim: Bim,
    mode: BimMode = BimMode.MODE_8x4,
    pipeline_fill: int = 4,
    quant_depth: int = 4,
    double_buffer_psum: bool = True,
) -> int:
    """The exact closed-form cycle count of :class:`ProcessingUnitRTL`.

    With the ping-pong Psum Buf, a pass's N drains hide behind the *next*
    pass's ``fill + chunks`` cycles; only the excess stalls, and only the
    final pass pays its row count plus the quant pipeline flush:

    ``passes * (fill + chunks) + (passes-1) * max(0, N - fill - chunks)
    + last_rows + depth``

    Single-buffered, every pass serializes its full drain (N + depth).
    This law is certified cycle-exactly against the RTL model by the tests;
    the coarse scheduler charges a slightly more conservative variant.
    """
    lanes = bim.lanes_8x4 if mode is BimMode.MODE_8x4 else bim.lanes_8x8
    chunks = int(np.ceil(k / lanes))
    passes = int(np.ceil(out_dim / num_pes))
    pass_cycles = pipeline_fill + chunks
    last_rows = out_dim - (passes - 1) * num_pes
    if double_buffer_psum:
        stall = max(0, num_pes - pass_cycles)
        return passes * pass_cycles + (passes - 1) * stall + last_rows + quant_depth
    # Single-buffered: every pass serializes draining its actual row count.
    return (
        passes * pass_cycles
        + (passes - 1) * (num_pes + quant_depth)
        + last_rows
        + quant_depth
    )
