"""Top-level accelerator simulator: performance, resources, power in one call.

``AcceleratorSimulator`` ties the pieces together:

- :meth:`simulate` — schedule a BERT inference (Figure 5 dataflow) and
  return latency/throughput/energy plus the resource estimate, i.e. one row
  of Tables III/IV.
- :meth:`run_functional` — execute an :class:`IntegerBertForSequenceClassification`
  through the PE-array/softmax-core/LN-core functional models, verifying the
  datapath is bit-exact with the integer engine (the hardware-equivalence
  check a real tape-out flow would run against RTL simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..bert.config import BertConfig
from ..quant.integer_model import (
    IntegerBertForSequenceClassification,
    _merge_heads_np,
    _split_heads_np,
)
from .bim import BimMode
from .config import AcceleratorConfig
from .cores import LnCore, SoftmaxCore
from .devices import FpgaDevice, ZCU102
from .pe import ProcessingUnit
from .resources import ResourceEstimate, estimate_resources
from .scheduler import ScheduleResult, Scheduler
from .workload import EncoderWorkload, build_encoder_workload


@dataclass
class SimulationReport:
    """One design point's full evaluation (a row of Tables III/IV)."""

    config: AcceleratorConfig
    device: FpgaDevice
    schedule: ScheduleResult
    resources: ResourceEstimate
    power_watts: float

    @property
    def latency_ms(self) -> float:
        return self.schedule.latency_ms

    @property
    def throughput_fps(self) -> float:
        return self.schedule.throughput_fps

    @property
    def fps_per_watt(self) -> float:
        return self.throughput_fps / self.power_watts

    @property
    def energy_per_inference_mj(self) -> float:
        return self.power_watts * self.latency_ms

    def fits_device(self) -> bool:
        return self.resources.fits(self.device)

    @property
    def headroom(self) -> float:
        """Smallest per-resource free fraction on the report's device."""
        return self.resources.headroom(self.device)

    def to_dict(self) -> Dict:
        """JSON-ready report of this design point (``repro-design/1``).

        The one report shape shared by ``repro.cli simulate --json`` and
        the design-space explorer's candidate entries, so single-point
        evaluations and sweep results are scriptable with the same keys.
        All values come from the analytic models — deterministic on every
        machine.
        """
        config = self.config
        return {
            "schema": "repro-design/1",
            "device": self.device.name,
            "config": {
                "num_pus": config.num_pus,
                "num_pes": config.num_pes,
                "num_multipliers": config.num_multipliers,
                "bim_type": config.bim_type.value,
                "frequency_mhz": config.frequency_mhz,
            },
            "latency_ms": self.latency_ms,
            "throughput_fps": self.throughput_fps,
            "power_watts": self.power_watts,
            "energy_per_inference_mj": self.energy_per_inference_mj,
            "fps_per_watt": self.fps_per_watt,
            "resources": {
                "bram18k": self.resources.bram18k,
                "dsp48": self.resources.dsp48,
                "ff": self.resources.ff,
                "lut": self.resources.lut,
                "uram": self.resources.uram,
            },
            "utilization": self.resources.utilization(self.device),
            "headroom": self.headroom,
            "fits_device": self.fits_device(),
        }

    def summary(self) -> Dict[str, float]:
        return {
            "latency_ms": self.latency_ms,
            "throughput_fps": self.throughput_fps,
            "power_watts": self.power_watts,
            "fps_per_watt": self.fps_per_watt,
            "dsp48": self.resources.dsp48,
            "bram18k": self.resources.bram18k,
            "ff": self.resources.ff,
            "lut": self.resources.lut,
        }


class AcceleratorSimulator:
    """Simulator for one accelerator configuration on one FPGA device."""

    def __init__(self, config: AcceleratorConfig, device: FpgaDevice = ZCU102):
        self.config = config
        self.device = device
        self.scheduler = Scheduler(config)

    # ------------------------------------------------------------------
    # performance / resource / power evaluation
    # ------------------------------------------------------------------
    def simulate(
        self,
        model: BertConfig,
        seq_len: int = 128,
        workload: Optional[EncoderWorkload] = None,
        batch_size: int = 1,
    ) -> SimulationReport:
        """Evaluate one design point on one (possibly batched) inference.

        ``batch_size > 1`` builds a batch-aware workload: every op's vector
        count scales with the batch while the weight stream stays fixed,
        so the schedule reflects the amortization batching buys.  An
        explicit ``workload`` overrides both ``seq_len`` and ``batch_size``.
        """
        workload = workload or build_encoder_workload(
            model, seq_len=seq_len, batch_size=batch_size
        )
        schedule = self.scheduler.schedule(workload)
        resources = estimate_resources(self.config, model, seq_len=seq_len, device=self.device)
        power = self.device.power(resources.dsp48)
        return SimulationReport(
            config=self.config,
            device=self.device,
            schedule=schedule,
            resources=resources,
            power_watts=power,
        )

    # ------------------------------------------------------------------
    # functional (bit-exact) execution on the modeled datapath
    # ------------------------------------------------------------------
    def run_functional(
        self,
        integer_model: IntegerBertForSequenceClassification,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        token_type_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Execute the integer model through the PE/core functional models.

        Every matmul goes through :class:`ProcessingUnit.matvec` (BIM
        arithmetic, 8x4 for weights and 8x8 for activation pairs), softmax
        through :class:`SoftmaxCore`, Add&LN through :class:`LnCore`.
        Returns logits; bit-exact with ``integer_model.forward`` because all
        the underlying integer arithmetic is exact.
        """
        pu = ProcessingUnit(num_pes=self.config.num_pes, bim=_bim_of(self.config))
        codes = integer_model._embed_fn(np.asarray(input_ids), token_type_ids)
        for layer in integer_model.layers:
            codes = self._run_layer(pu, layer, codes, attention_mask)
        return integer_model.classify(codes.astype(np.int64))

    def _run_layer(self, pu, layer, x_codes, attention_mask):
        attn = layer.attention
        q = self._pe_linear(pu, attn.query, x_codes)
        k = self._pe_linear(pu, attn.key, x_codes)
        v = self._pe_linear(pu, attn.value, x_codes)

        q = _split_heads_np(q, attn.num_heads)
        k = _split_heads_np(k, attn.num_heads)
        v = _split_heads_np(v, attn.num_heads)

        # Q*K^T on the PEs in 8x8 mode, one head per PU.
        batch, heads, seq, head_dim = q.shape
        scores = np.zeros((batch, heads, seq, seq), dtype=np.int64)
        for b in range(batch):
            for h in range(heads):
                for t in range(seq):
                    scores[b, h, t] = pu.matvec(k[b, h], q[b, h, t], BimMode.MODE_8x8)
        score_codes = attn.score_requant.requantize(scores, 8)

        core = SoftmaxCore(attn.score_scale, simd=self.config.softmax_simd)
        mask = attention_mask[:, None, None, :] if attention_mask is not None else None
        prob_codes = core.forward(score_codes, mask=mask)

        context = np.zeros((batch, heads, seq, head_dim), dtype=np.int64)
        for b in range(batch):
            for h in range(heads):
                for t in range(seq):
                    context[b, h, t] = pu.matvec(
                        v[b, h].T, prob_codes[b, h, t], BimMode.MODE_8x8, act_signed=False
                    )
        context_codes = attn.context_requant.requantize(context, 8)
        context_codes = _merge_heads_np(context_codes)

        projected = self._pe_linear(pu, layer.attention_output, context_codes)
        attended = _apply_ln(self.config, layer.attention_layernorm, projected, x_codes)

        intermediate = self._pe_linear(pu, layer.ffn1, attended)
        activated = layer.gelu.forward(intermediate)
        ffn_out = self._pe_linear(pu, layer.ffn2, activated)
        return _apply_ln(self.config, layer.output_layernorm, ffn_out, attended)

    def _pe_linear(self, pu, int_linear, x_codes: np.ndarray) -> np.ndarray:
        """A weight matmul through the PE array (8x4 mode), then requant."""
        batch, seq, _ = x_codes.shape
        out_dim = int_linear.weight_codes.shape[0]
        acc = np.zeros((batch, seq, out_dim), dtype=np.int64)
        for b in range(batch):
            for t in range(seq):
                acc[b, t] = pu.matvec(
                    int_linear.weight_codes, x_codes[b, t], BimMode.MODE_8x4
                )
        return int_linear.requant.requantize(
            acc, int_linear.out_bits, addend=int_linear.bias_codes
        )


def _apply_ln(config: AcceleratorConfig, ln, codes_a: np.ndarray, codes_b: np.ndarray):
    """Route Add&LN through the LnCore when the layer uses integer LN."""
    from ..quant.integer_model import IntegerLayerNorm

    if isinstance(ln, IntegerLayerNorm):
        core = LnCore(ln=ln, simd=config.ln_simd)
        return core.forward(codes_a, codes_b)
    return ln.forward(codes_a, codes_b)


def _bim_of(config: AcceleratorConfig):
    from .bim import Bim

    return Bim(config.num_multipliers, config.bim_type)
