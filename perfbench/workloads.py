"""The four benchmark workloads.

Each workload builds everything it needs in its constructor and
:meth:`Workload.warm` (both count towards ``setup_s``), then runs one
timed repetition per :meth:`Workload.run` call.  Traces are open-loop
and generated in-process from the seed; the model weights are pinned.

A repetition's output is checked after timing.  Every report must keep
``submitted == completed + shed`` (or ``completed == submitted`` for the
serving engine), and at :data:`PINNED_SEED` the outputs must hash to the
SHA-256 digests in :data:`DIGESTS`.

:meth:`Workload.targets` names the public functions the traced run wraps;
:func:`layer_metrics` turns the recorded spans into per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, List, Tuple

import numpy as np

from repro.accel.config import AcceleratorConfig
from repro.fleet import (
    AutoscalePolicy,
    ChaosPlan,
    FleetConfig,
    GrayWindow,
    ReplicaSpec,
    ResiliencePolicy,
    ZoneOutage,
    columnar,
    native_available,
    scenarios,
)
from repro.obs import FleetObserver
from repro.perf.bench import BENCH_BATCH, _kernel_config, cluster_model_config
from repro.perf.workloads import HashTokenizer, build_synthetic_integer_model
from repro.quant import integer_model
from repro.search import builtin_spaces, clear_evaluation_cache, explorer, planner
from repro.serve import ServingConfig, ServingEngine, generate_trace

from repro.perf import Profiler

from spans import summarize

PINNED_SEED = 0
SIZES = ("full", "tiny")

# (workload, size) -> SHA-256 of the outputs at PINNED_SEED.
DIGESTS = {
    ("fleet-native", "full"): "5b1fca7c0a1450445fad6222f7d9b203e1bbc2c6ec7f77b5c6f6629f5c8e9204",
    ("fleet-native", "tiny"): "4edde646a202997041781dce78355b6df43a2efe19e2999e05f1559218e902b1",
    ("fleet-observed", "full"): "e6cd0d55d60cfc60b2edcc1d39b872a274e594803384691eeef52f55b2f808a2",
    ("fleet-observed", "tiny"): "592d0451dfba6f9f51fa865f43cef8b88bd15b9a2c124029031b5239d788b937",
    ("serve-executed", "full"): "0bf9c256fd4b6007c52424e40a43679d8a162f04bbb4072de29d7e22e19a9416",
    ("serve-executed", "tiny"): "424094cab7ca58533a4d74c57e0b032fbe0efdd5301166133a52460070627119",
    ("plan-chaos", "full"): "3e29ef09226d924f0ed279197d38a5b1ba118a94404f6b56c653fec8e8e29ff7",
    ("plan-chaos", "tiny"): "8f35f1eaa57c58f3059d8e56ce9fcb0515b101e5fc837b48e08ed4877157f564",
}
# size -> label of the cheapest feasible plan at PINNED_SEED.
BEST_PLAN = {"full": "1x mid + autoscale(max 3)", "tiny": "1x default + 2x weak"}


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def _fleet_config() -> FleetConfig:
    return FleetConfig(
        serving=ServingConfig(
            max_batch_size=BENCH_BATCH,
            max_wait_ms=5.0,
            buckets=(16, 32, 64),
            num_devices=1,
            cache_capacity=512,
        )
    )


def _report_failures(report, where: str) -> List[str]:
    stats = report.stats
    if stats.submitted != stats.completed + stats.shed:
        return [
            f"{where}: submitted {stats.submitted} != completed "
            f"{stats.completed} + shed {stats.shed}"
        ]
    return []


class Workload:
    """One workload: set-up in ``__init__``/``warm``, one repetition per ``run``."""

    name = ""

    def __init__(self, seed: int, size: str):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
        self.seed = seed
        self.size = size

    def warm(self) -> None:
        """Untimed repetition at the tiny size: fills price tables, plans and caches.

        A full-size warm-up would make ``setup_s`` mostly one more
        repetition, with that repetition's host noise.
        """
        size, self.size = self.size, "tiny"
        try:
            self.before_rep()
            self.run()
        finally:
            self.size = size

    def before_rep(self) -> None:
        """Untimed reset before each timed repetition."""

    def run(self):
        raise NotImplementedError

    def requests(self, output) -> int:
        raise NotImplementedError

    def check(self, output) -> List[str]:
        """Failed checks of one repetition's output (empty when correct)."""
        raise NotImplementedError

    def _digest_failures(self, digest: str) -> List[str]:
        if self.seed != PINNED_SEED:
            return []
        expected = DIGESTS[(self.name, self.size)]
        if digest != expected:
            return [f"{self.name}: output digest {digest} != pinned {expected}"]
        return []

    def targets(self, profiler: Profiler) -> List[Tuple]:
        """Functions the traced run wraps: ``(owner, attribute, wrapping)``.

        ``wrapping`` is a span name or a replacement factory, as
        :func:`spans.instrument` takes them.
        """
        engine = columnar.ColumnarFleetEngine
        return [
            (scenarios.Scenario, "generate_columns", "scenarios.generate"),
            (columnar, "run_scenario_columnar", "columnar.run"),
            (planner, "run_scenario_columnar", "columnar.run"),
            (engine, "run_window", "columnar.sweep"),
            (engine, "drain", "columnar.drain"),
            (engine, "drain_retries", "columnar.drain"),
            (engine, "finalize", "columnar.finalize"),
            (columnar, "build_fleet_stats_columns", "metrics.stats"),
            (columnar, "service_table", "accel.service_table"),
            (FleetObserver, "advance", "obs.advance"),
            (FleetObserver, "finalize", "obs.finalize"),
            (FleetObserver, "render_prometheus", "obs.export"),
            (FleetObserver, "window_lines", "obs.export"),
            (FleetObserver, "trace_json", "obs.export"),
            (explorer, "explore", "search.explore"),
            (planner, "plan_capacity", "search.plan"),
        ]

    def output_metrics(self, output, layers: Dict[str, float]) -> Dict[str, float]:
        """Per-layer counts read from one traced repetition's output.

        Args:
            output: The output of the last traced repetition.
            layers: The span-derived metrics of :func:`layer_metrics`.
        """
        return {}


class _Fleet(Workload):
    """Shared set-up of the workloads that run the columnar fleet engine."""

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        if not native_available():
            raise RuntimeError(
                "the columnar C kernel could not be built (no C compiler, or "
                "REPRO_COLUMNAR_NATIVE=0); refusing to time the Python fallback"
            )
        config = cluster_model_config()
        self.model = build_synthetic_integer_model(config, seed=0)
        self.tokenizer = HashTokenizer(vocab_size=config.vocab_size)
        self.fleet_config = _fleet_config()


class FleetNative(_Fleet):
    """~10M flash-crowd requests, 8 ZCU102 replicas, one shard, C kernel."""

    name = "fleet-native"
    SCALE = {"full": (200.0, 210.0), "tiny": (4.0, 4.0)}

    def run(self):
        rate, duration = self.SCALE[self.size]
        return columnar.run_scenario_columnar(
            "flash-crowd",
            self.model,
            self.tokenizer,
            [ReplicaSpec()] * 8,
            self.fleet_config,
            seed=self.seed,
            rate_scale=rate,
            duration_scale=duration,
        )

    def requests(self, report) -> int:
        return report.stats.completed

    def check(self, report) -> List[str]:
        return _report_failures(report, self.name) + self._digest_failures(
            _sha256(report.to_json())
        )


class FleetObserved(_Fleet):
    """Multi-tenant, observed, autoscaled 4->8, gray replica 1, two shards."""

    name = "fleet-observed"
    SCALE = {"full": (40.0, 10.0), "tiny": (4.0, 2.0)}

    def run(self):
        rate, duration = self.SCALE[self.size]
        obs = FleetObserver()
        gray = GrayWindow(
            replica_id=1, start_ms=60.0 * duration, end_ms=160.0 * duration, slowdown=3.0
        )
        report = columnar.run_scenario_columnar(
            "multi-tenant",
            self.model,
            self.tokenizer,
            [ReplicaSpec()] * 4,
            self.fleet_config,
            autoscale=AutoscalePolicy(min_replicas=4, max_replicas=8),
            seed=self.seed,
            rate_scale=rate,
            duration_scale=duration,
            shards=2,
            obs=obs,
            chaos=ChaosPlan(name="gray-replica-1", grays=(gray,)),
        )
        exports = (obs.render_prometheus(), obs.window_lines(), obs.trace_json())
        return report, exports

    def requests(self, output) -> int:
        return output[0].stats.completed

    def check(self, output) -> List[str]:
        report, (prom, windows, trace) = output
        digest = _sha256(report.to_json(), prom, "\n".join(windows), trace)
        return _report_failures(report, self.name) + self._digest_failures(digest)

    def output_metrics(self, output, layers: Dict[str, float]) -> Dict[str, float]:
        report, (_, windows, trace) = output
        return {
            "obs.trace_events": len(json.loads(trace)["traceEvents"]),
            "obs.windows": len(windows),
            "autoscale.scale_events": len(report.stats.scale_events),
        }


def text_pool(seed: int, num_texts: int = 48) -> List[Tuple[str, None]]:
    """Seeded texts whose lengths (3..23 words) do not depend on the seed.

    Only the words change with the seed, so every seed asks the encoder
    for the same amount of work per text.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(num_texts):
        length = 3 + (20 * i) // (num_texts - 1)
        pool.append((" ".join(f"w{int(w)}" for w in rng.integers(0, 400, length)), None))
    return pool


class ServeExecuted(Workload):
    """Poisson trace through the executed ServingEngine on the kernel-suite model."""

    name = "serve-executed"
    REQUESTS = {"full": 400, "tiny": 24}
    WARM_REQUESTS = 64

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.model = build_synthetic_integer_model(_kernel_config(False), seed=0)
        self.tokenizer = HashTokenizer(vocab_size=self.model.config.vocab_size)
        self.config = ServingConfig(
            max_batch_size=BENCH_BATCH,
            max_wait_ms=8.0,
            buckets=(16, 32, 64),
            num_devices=2,
            cache_capacity=256,
            slo_ms=400.0,
        )
        self.trace = generate_trace(
            text_pool(seed), self.REQUESTS[size], mean_interarrival_ms=2.0, seed=seed
        )
        self._rows: List[Tuple[int, int]] = []

    def warm(self) -> None:
        ServingEngine(self.model, self.tokenizer, self.config).run_trace(
            self.trace[: self.WARM_REQUESTS]
        )

    def run(self):
        engine = ServingEngine(self.model, self.tokenizer, self.config)
        return engine.run_trace(self.trace), engine.stats()

    def requests(self, output) -> int:
        return len(output[0])

    def check(self, output) -> List[str]:
        results, _ = output
        failures = []
        if len(results) != len(self.trace):
            failures.append(
                f"{self.name}: completed {len(results)} != submitted {len(self.trace)}"
            )
        # Logits come from a float host head; rounding keeps the digest
        # independent of the BLAS summation order.
        logits = np.stack([r.logits for r in results]).astype(np.float64)
        digest = hashlib.sha256(np.round(logits, 4).tobytes()).hexdigest()
        return failures + self._digest_failures(digest)

    def targets(self, profiler: Profiler) -> List[Tuple]:
        im = integer_model
        matmul_calls = [0]

        def wrap_matmul(matmul):
            # IntegerSelfAttention.forward, the only caller, calls
            # exact_matmul twice: the scores first, then the context.
            def timed(*args, **kwargs):
                name = "quant.context" if matmul_calls[0] % 2 else "quant.scores"
                matmul_calls[0] += 1
                with profiler.span(name):
                    return matmul(*args, **kwargs)

            return timed

        def wrap_encode(encode):
            timed = profiler.wrap("quant.encode", encode)

            def recorded(ids, *args, **kwargs):
                rows, seq = np.shape(ids)
                self._rows.append((int(rows), int(seq)))
                return timed(ids, *args, **kwargs)

            return recorded

        self._rows = []
        targets = [
            (ServingEngine, "run_trace", "serve.engine"),
            (HashTokenizer, "encode", "serve.tokenize"),
            (self.model, "encode", wrap_encode),
            (self.model, "classify_rows", "quant.head"),
            (im.IntegerSelfAttention, "forward", "quant.attention"),
            (im, "exact_matmul", wrap_matmul),
            (im, "quantized_softmax", "quant.softmax"),
            (im.IntegerLayerNorm, "forward", "quant.add_ln"),
            (im.GeluLUT, "forward", "quant.gelu"),
        ]
        for layer in self.model.layers:
            attention = layer.attention
            for linear in (attention.query, attention.key, attention.value):
                targets.append((linear, "forward", "quant.qkv"))
            targets.append((layer.attention_output, "forward", "quant.out_proj"))
            targets.append((layer.ffn1, "forward", "quant.ffn1"))
            targets.append((layer.ffn2, "forward", "quant.ffn2"))
        return targets

    def output_metrics(self, output, layers: Dict[str, float]) -> Dict[str, float]:
        # self._rows holds the encoder calls of the last traced repetition
        # (targets() resets it before each one).
        _, stats = output
        rows = self._rows
        macs, nbytes = 0, 0
        for batch_rows, seq in rows:
            m, b = encoder_cost(self.model.config, batch_rows, seq)
            macs += m
            nbytes += b
        return {
            "serve.cache_hit_rate": stats.cache_hit_rate,
            "serve.batches": stats.num_batches,
            "serve.rows_per_batch": sum(r for r, _ in rows) / len(rows) if rows else 0.0,
            "serve.padding_efficiency": stats.padding_efficiency,
            "quant.gmacs": macs / 1e9,
            "quant.mbytes_moved": nbytes / 1e6,
        }


def encoder_cost(config, rows: int, seq: int) -> Tuple[int, int]:
    """Multiply-accumulates and bytes moved by one integer encoder call.

    Computed from tensor shapes, not measured.  Bytes count every operand
    read and result written once: 8-bit activation codes at one byte,
    4-bit weight codes at half a byte.
    """
    h, inter, heads = config.hidden_size, config.intermediate_size, config.num_attention_heads
    tokens = rows * seq
    scores = rows * heads * seq * seq

    def linear(n_in: int, n_out: int) -> Tuple[int, int]:
        return tokens * n_in * n_out, tokens * n_in + n_in * n_out // 2 + tokens * n_out

    parts = [linear(h, h)] * 3 + [
        (tokens * seq * h, 2 * tokens * h + scores),  # scores = q @ k^T
        (0, 2 * scores),  # LUT softmax
        (tokens * seq * h, scores + 2 * tokens * h),  # context = p @ v
        linear(h, h),  # output projection
        (0, 3 * tokens * h),  # Add&LN
        linear(h, inter),
        (0, 2 * tokens * inter),  # GELU LUT
        linear(inter, h),
        (0, 3 * tokens * h),  # Add&LN
    ]
    layers = config.num_hidden_layers
    return layers * sum(m for m, _ in parts), layers * sum(b for _, b in parts)


class PlanChaos(_Fleet):
    """Cold ``explore`` of a design space, then a chaos-replayed capacity plan."""

    name = "plan-chaos"
    # size -> (design space, rate scale, max replicas)
    SCALE = {"full": ("wide", 4.0, 3), "tiny": ("table3", 1.0, 3)}

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.designs = [
            ReplicaSpec(
                accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
                name="weak",
            ),
            ReplicaSpec(
                accel_config=AcceleratorConfig(num_pus=4, num_pes=4, num_multipliers=8),
                name="mid",
            ),
            ReplicaSpec(name="default"),
        ]
        self.chaos = ChaosPlan(
            name="zone-a-outage-gray-1",
            zones=(("zone-a", (0,)),),
            outages=(ZoneOutage(zone="zone-a", at_ms=100.0, recover_ms=160.0),),
            grays=(GrayWindow(replica_id=1, start_ms=100.0, end_ms=160.0, slowdown=3.0),),
        )
        self.resilience = ResiliencePolicy(
            max_retries=2,
            backoff_base_ms=3.0,
            retry_budget_ratio=0.5,
            retry_budget_burst=20.0,
            breaker=True,
            breaker_straggle_factor=2.0,
            timeout_ms=50.0,
        )
        self.space = builtin_spaces()[self.SCALE[size][0]]
        # Every fleet report the planner produces, clean and chaos legs,
        # so each one is checked (the planner keeps only the clean leg).
        self._reports: List = []
        run_columnar = planner.run_scenario_columnar

        def capture(*args, **kwargs):
            report = run_columnar(*args, **kwargs)
            self._reports.append(report)
            return report

        planner.run_scenario_columnar = capture

    def before_rep(self) -> None:
        clear_evaluation_cache()
        self._reports = []

    def run(self):
        _, rate, max_replicas = self.SCALE[self.size]
        exploration = explorer.explore(self.space, seed=self.seed)
        planning = planner.plan_capacity(
            "flash-crowd",
            self.designs,
            planner.SloTarget(p99_ms=150.0),
            self.model,
            self.tokenizer,
            fleet_config=self.fleet_config,
            max_replicas=max_replicas,
            seed=self.seed,
            rate_scale=rate,
            chaos=self.chaos,
            resilience=self.resilience,
        )
        return exploration, planning, self._reports

    def requests(self, output) -> int:
        return sum(report.stats.completed for report in output[2])

    def check(self, output) -> List[str]:
        exploration, planning, reports = output
        failures = []
        for i, report in enumerate(reports):
            failures += _report_failures(report, f"{self.name} run {i}")
        best = planning.best
        if best is None or not best.feasible:
            failures.append(f"{self.name}: the planner found no feasible plan")
        elif self.seed == PINNED_SEED and best.plan.label != BEST_PLAN[self.size]:
            failures.append(
                f"{self.name}: best plan {best.plan.label!r} != pinned "
                f"{BEST_PLAN[self.size]!r}"
            )
        digest = _sha256(exploration.to_json(), planning.to_json())
        return failures + self._digest_failures(digest)

    def output_metrics(self, output, layers: Dict[str, float]) -> Dict[str, float]:
        exploration, planning, reports = output
        chaos = [r.stats.chaos for r in reports if r.stats.chaos is not None]
        outcomes = planning.outcomes
        return {
            "search.plans": len(outcomes),
            "search.feasible_share": sum(o.feasible for o in outcomes) / len(outcomes),
            "search.evals_per_s": exploration.evaluated / layers["search.explore_s"],
            "chaos.retries": sum(c.retries for c in chaos),
            "chaos.timeouts": sum(c.timeouts for c in chaos),
            "chaos.breaker_opens": sum(c.breaker_opens for c in chaos),
        }


WORKLOADS = {w.name: w for w in (FleetNative, FleetObserved, ServeExecuted, PlanChaos)}


def layer_metrics(
    entries: List[Tuple[str, float, float]], reps: int, requests_per_rep: float
) -> Dict[str, float]:
    """Per-layer times of ``reps`` traced repetitions, per repetition.

    ``entries`` are a trace-mode :class:`repro.perf.Profiler`'s
    ``(name, start_ms, duration_ms)`` spans.
    """
    summary = summarize(entries)

    def per_rep(name: str, key: str = "duration") -> float:
        return summary.get(name, {}).get(key, 0.0) / reps

    def durations(name: str) -> List[float]:
        return [duration / 1e3 for n, _, duration in entries if n == name]

    sweep = per_rep("columnar.sweep")
    runs = durations("columnar.run")
    batch_ms = [
        (encode + head) * 1e3
        for encode, head in zip(durations("quant.encode"), durations("quant.head"))
    ]
    out = {
        "scenarios.generate_s": per_rep("scenarios.generate"),
        "columnar.prepare_s": per_rep("columnar.run", "self"),
        "columnar.sweep_s": sweep,
        "columnar.sweep_ns_per_req": sweep * 1e9 / requests_per_rep if runs else 0.0,
        "columnar.drain_s": per_rep("columnar.drain"),
        "columnar.finalize_s": per_rep("columnar.finalize", "self"),
        "metrics.stats_s": per_rep("metrics.stats"),
        "columnar.runs": len(runs) / reps,
        "columnar.run_ms_p50": statistics.median(runs) * 1e3 if runs else 0.0,
        "accel.service_table_s": per_rep("accel.service_table"),
        "accel.service_table_calls": per_rep("accel.service_table", "calls"),
        "obs.advance_s": per_rep("obs.advance"),
        "obs.finalize_s": per_rep("obs.finalize"),
        "obs.export_s": per_rep("obs.export"),
        "serve.engine_s": per_rep("serve.engine", "self"),
        "serve.tokenize_s": per_rep("serve.tokenize"),
        "quant.embed_s": per_rep("quant.encode", "self"),
        "quant.qkv_s": per_rep("quant.qkv"),
        "quant.scores_s": per_rep("quant.scores"),
        "quant.softmax_s": per_rep("quant.softmax"),
        "quant.context_s": per_rep("quant.context"),
        "quant.attn_requant_s": per_rep("quant.attention", "self"),
        "quant.out_proj_s": per_rep("quant.out_proj"),
        "quant.add_ln_s": per_rep("quant.add_ln"),
        "quant.ffn1_s": per_rep("quant.ffn1"),
        "quant.gelu_s": per_rep("quant.gelu"),
        "quant.ffn2_s": per_rep("quant.ffn2"),
        "quant.head_s": per_rep("quant.head"),
        "search.explore_s": per_rep("search.explore"),
        "search.plan_s": per_rep("search.plan"),
    }
    if batch_ms:
        p50, p90 = np.percentile(batch_ms, [50, 90])
        out["serve.batch_host_ms_p50"] = float(p50)
        out["serve.batch_host_ms_p90"] = float(p90)
    return out
