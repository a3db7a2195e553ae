"""Pinned benchmark suites behind ``repro.cli bench``.

Four suites, each emitting one JSON document designed to be committed as
a regression baseline (``BENCH_kernels.json`` / ``BENCH_serve.json`` /
``BENCH_cluster.json`` / ``BENCH_fleet.json``):

- **kernels** — the optimized integer kernels (linear, attention, Add&LN,
  LUT softmax, and the full batched forward at batch=8) timed against the
  seed implementations preserved in :mod:`repro.perf.reference`.  Before
  timing, the suite *asserts bit-exact equivalence* between the two paths —
  a speedup that changes an output bit is a bug, not a result.
- **serve** — a pinned Poisson trace through the full
  :class:`~repro.serve.ServingEngine`, reporting both wall-clock host cost
  and the deterministic simulated serving statistics (which double as
  functional regression canaries: they must reproduce exactly).
- **cluster** — a pinned flash-crowd scenario through the
  :mod:`repro.fleet` cluster simulator, fixed fleet vs. autoscaled, plus a
  heterogeneous steady-state fleet.  Before timing, the suite *asserts the
  scale-out contract* — shedding engages on the fixed fleet and the
  autoscaler strictly improves goodput — then gates on the deterministic
  goodput / shed-rate / tail-latency numbers.
- **fleet** — the analytic (latency-only) execution mode: *asserts* that
  an analytic fleet report is byte-identical to the executed one, gates
  the wall-clock speedup ratio, and completes a ~1.06M-request
  flash-crowd trace — the headline that cluster questions can be asked at
  production traffic scale.
- **dse** — the design-space search layer: *asserts* the paper's three
  Table III design points sit on the Pareto front of the Table III knob
  space, that memoized candidate evaluation sustains ≥1k evaluations per
  second, and that the capacity planner's cheapest plan meets the pinned
  flash-crowd SLO targets — then gates the deterministic front/plan
  numbers.

JSON layout (``schema: repro-bench/1``)::

    {"schema": "repro-bench/1", "suite": "kernels", "profile": "full",
     "metrics": {"<name>": {"value": 1.23, "unit": "ms",
                            "higher_is_better": false, "gated": false}},
     "info": {...}}          # context, never regression-checked

``metrics`` entries are what :mod:`repro.perf.regression` gates on.
"""

from __future__ import annotations

import gc
import json
import pathlib
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..bert.config import BertConfig
from ..serve import ServingConfig, ServingEngine, generate_trace
from . import reference
from .profiler import Profiler
from .timer import time_callable
from .workloads import HashTokenizer, bench_text_pool, build_synthetic_integer_model

SCHEMA = "repro-bench/1"
SUITES = ("kernels", "serve", "cluster", "fleet", "dse")
BENCH_BATCH = 8  # the acceptance batch size for the batched forward


def _metric(value: float, unit: str, higher_is_better: bool, gated: bool = True) -> Dict:
    """One metric entry.  ``gated=False`` records machine-dependent raw
    wall-clock values for context without subjecting them to the regression
    tolerance — only machine-portable metrics (same-run speedup ratios,
    deterministic simulated stats) gate by default."""
    return {
        "value": float(value),
        "unit": unit,
        "higher_is_better": higher_is_better,
        "gated": gated,
    }


def _floor_ratio(
    base: Callable[[], object], treatment: Callable[[], object], pairs: int
) -> Tuple[float, float, float]:
    """Floor-over-floor wall-clock ratio of ``treatment`` to ``base``.

    The ratio divides two wall clocks on a machine whose load drifts, so
    the runs interleave (both sides of each pair see the same machine)
    and the ratio compares floor to floor — the minimum is the standard
    low-noise estimator.  Collection is parked during the timed region
    and run between pairs instead, so a stray GC pass never lands on
    whichever side allocates more.

    Returns:
        ``(base_ms, treatment_ms, ratio)``: each side's best wall time
        over ``pairs`` interleaved runs, and their quotient.
    """
    base_best = treatment_best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(pairs):
            start = perf_counter()
            base()
            base_best = min(base_best, (perf_counter() - start) * 1e3)
            start = perf_counter()
            treatment()
            treatment_best = min(treatment_best, (perf_counter() - start) * 1e3)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = treatment_best / base_best if base_best else float("inf")
    return base_best, treatment_best, ratio


def _kernel_config(quick: bool) -> BertConfig:
    """The pinned model shape of the kernel suite."""
    if quick:
        return BertConfig(
            vocab_size=256,
            hidden_size=96,
            num_hidden_layers=2,
            num_attention_heads=12,
            intermediate_size=384,
            max_position_embeddings=64,
            num_labels=2,
        )
    return BertConfig(
        vocab_size=512,
        hidden_size=192,
        num_hidden_layers=4,
        num_attention_heads=12,
        intermediate_size=768,
        max_position_embeddings=128,
        num_labels=2,
    )


def run_kernel_suite(quick: bool = False, seed: int = 0) -> Dict:
    """Time optimized vs. seed kernels on a pinned synthetic model.

    Args:
        quick: Use the small shape / fewer repeats (CI smoke profile).
        seed: Seed for the synthetic model and inputs.

    Returns:
        A ``repro-bench/1`` result document.

    Raises:
        RuntimeError: If any optimized kernel output differs from the seed
            reference by even one bit (the equivalence gate).
    """
    config = _kernel_config(quick)
    seq_len = 32 if quick else 64
    repeats = 2 if quick else 5
    model = build_synthetic_integer_model(config, seed=seed)
    rng = np.random.default_rng(seed + 1)

    input_ids = rng.integers(0, config.vocab_size, size=(BENCH_BATCH, seq_len))
    lengths = rng.integers(seq_len // 2, seq_len + 1, size=BENCH_BATCH)
    mask = (np.arange(seq_len)[None, :] < lengths[:, None]).astype(np.int64)

    # --- equivalence gate: the two paths must agree bit-for-bit ----------
    opt_codes = model.encode(input_ids, mask)
    ref_codes = reference.reference_encode(model, input_ids, mask)
    if not np.array_equal(opt_codes, ref_codes):
        raise RuntimeError(
            "optimized encoder diverged from the seed reference — refusing to "
            "benchmark a non-equivalent kernel"
        )
    if not np.array_equal(
        model.forward(input_ids, mask), reference.reference_forward(model, input_ids, mask)
    ):
        raise RuntimeError("optimized forward diverged from the seed reference")

    layer = model.layers[0]
    flat = opt_codes.reshape(-1, config.hidden_size)

    # (optimized, seed, gate_speedup): the speedup ratio is gated only for
    # kernels with a claimed multi-x win — Add&LN was already vectorized in
    # the seed, so its ~1.0x ratio is pure timing noise and gating it at
    # 10% would fail spuriously.
    pairs: Dict[str, tuple] = {
        "batched_forward_batch8": (
            lambda: model.forward(input_ids, mask),
            lambda: reference.reference_forward(model, input_ids, mask),
            True,
        ),
        "integer_linear_ffn1": (
            lambda: layer.ffn1.forward(flat),
            lambda: reference.reference_linear_forward(layer.ffn1, flat),
            True,
        ),
        "attention_layer0": (
            lambda: layer.attention.forward(opt_codes, mask),
            lambda: reference.reference_attention_forward(layer.attention, opt_codes, mask),
            True,
        ),
        "layernorm_layer0": (
            lambda: layer.attention_layernorm.forward(opt_codes, ref_codes),
            lambda: reference.reference_layernorm_forward(
                layer.attention_layernorm, opt_codes, ref_codes
            ),
            False,
        ),
    }
    metrics: Dict[str, Dict] = {}
    for name, (optimized, seed_impl, gate_speedup) in pairs.items():
        opt = time_callable(optimized, repeats=repeats)
        ref = time_callable(seed_impl, repeats=repeats)
        metrics[f"{name}_ms"] = _metric(
            opt.best_ms, "ms", higher_is_better=False, gated=False
        )
        metrics[f"{name}_reference_ms"] = _metric(
            ref.best_ms, "ms", higher_is_better=False, gated=False
        )
        # The speedup is a same-run ratio, so it transfers across machines
        # far better than raw milliseconds do.
        metrics[f"{name}_speedup_vs_reference"] = _metric(
            ref.best_ms / opt.best_ms if opt.best_ms else float("inf"),
            "x",
            higher_is_better=True,
            gated=gate_speedup,
        )

    return {
        "schema": SCHEMA,
        "suite": "kernels",
        "profile": "quick" if quick else "full",
        "metrics": metrics,
        "info": {
            "model": model.config.to_dict(),
            "seq_len": seq_len,
            "batch_size": BENCH_BATCH,
            "repeats": repeats,
            "seed": seed,
        },
    }


def run_serve_suite(quick: bool = False, seed: int = 0) -> Dict:
    """Run a pinned request trace through the serving engine and time it.

    Args:
        quick: Use the small model / short trace (CI smoke profile).
        seed: Seed for the synthetic model, text pool, and trace.

    Returns:
        A ``repro-bench/1`` result document.  Wall metrics measure host
        compute; the ``sim_*`` metrics come from the deterministic
        simulated clock and must reproduce exactly across machines.
    """
    config = _kernel_config(quick)
    num_requests = 32 if quick else 96
    repeats = 2 if quick else 3
    serving = ServingConfig(
        max_batch_size=BENCH_BATCH,
        max_wait_ms=8.0,
        buckets=(16, 32, 64),
        num_devices=2,
        cache_capacity=256,
        slo_ms=400.0,
    )
    tokenizer = HashTokenizer(vocab_size=config.vocab_size)
    pool = bench_text_pool(48, seed=seed)
    trace = generate_trace(pool, num_requests=num_requests, mean_interarrival_ms=2.0, seed=seed)

    # One shared model across repeats: engine state must reset per run, but
    # the frozen model (and its cached weight plans) is steady-state reuse —
    # exactly what a serving process amortizes.
    model = build_synthetic_integer_model(config, seed=seed)

    def fresh_engine() -> ServingEngine:
        return ServingEngine(model, tokenizer, serving)

    def run_once() -> None:
        fresh_engine().run_trace(trace)

    wall = time_callable(run_once, repeats=repeats, warmup=1)

    # One instrumented run for the stats + the span attribution.
    profiler = Profiler()
    engine = fresh_engine()
    engine.model.encode = profiler.wrap("model.encode", engine.model.encode)
    engine.model.classify_rows = profiler.wrap(
        "model.classify_rows", engine.model.classify_rows
    )
    engine.tokenizer = _wrap_tokenizer(profiler, tokenizer)
    with profiler.span("run_trace"):
        engine.run_trace(trace)
    stats = engine.stats()

    metrics = {
        "trace_wall_ms": _metric(wall.best_ms, "ms", higher_is_better=False, gated=False),
        "wall_requests_per_s": _metric(
            num_requests / (wall.best_ms / 1e3), "req/s", higher_is_better=True, gated=False
        ),
        "sim_p50_latency_ms": _metric(stats.p50_latency_ms, "ms", higher_is_better=False),
        "sim_p95_latency_ms": _metric(stats.p95_latency_ms, "ms", higher_is_better=False),
        "sim_throughput_rps": _metric(stats.throughput_rps, "req/s", higher_is_better=True),
        "sim_mean_batch_size": _metric(stats.mean_batch_size, "req", higher_is_better=True),
        "sim_cache_hit_rate": _metric(stats.cache_hit_rate, "", higher_is_better=True),
        "sim_padding_efficiency": _metric(
            stats.padding_efficiency, "", higher_is_better=True
        ),
    }
    return {
        "schema": SCHEMA,
        "suite": "serve",
        "profile": "quick" if quick else "full",
        "metrics": metrics,
        "info": {
            "model": engine.model.config.to_dict(),
            "num_requests": num_requests,
            "repeats": repeats,
            "seed": seed,
            "serving": {
                "max_batch_size": serving.max_batch_size,
                "max_wait_ms": serving.max_wait_ms,
                "buckets": list(serving.buckets),
                "num_devices": serving.num_devices,
                "slo_ms": serving.slo_ms,
            },
            "profile_spans": profiler.report(),
        },
    }


def cluster_model_config(max_position_embeddings: int = 64) -> BertConfig:
    """The pinned (small) model shape of the cluster suite and loadtest CLI.

    Smaller than the kernel shape on purpose: the cluster suite's cost is
    trace length x host forward, and its subject is fleet dynamics, not
    kernel speed.  One definition keeps CLI loadtest runs comparable with
    the gated ``BENCH_cluster.json`` baselines.
    """
    return BertConfig(
        vocab_size=512,
        hidden_size=64,
        num_hidden_layers=2,
        num_attention_heads=4,
        intermediate_size=128,
        max_position_embeddings=max_position_embeddings,
        num_labels=2,
    )


def run_cluster_suite(quick: bool = False, seed: int = 0) -> Dict:
    """Run the pinned cluster scenarios through the fleet simulator.

    Three deterministic runs over one frozen synthetic model:

    1. **flash-crowd, fixed fleet** — one deliberately weak replica (a
       scaled-down design point) against a 3x-rate burst, so admission
       control must shed;
    2. **flash-crowd, autoscaled** — same trace, autoscaler on, which must
       strictly improve goodput (asserted, like the kernel equivalence
       gate: a cluster layer that can't beat a fixed fleet under burst is
       a bug, not a result);
    3. **steady, heterogeneous fleet** — a ZCU102 (8, 16) next to a
       ZCU111 (16, 16) replica, exercising per-design-point routing.

    Args:
        quick: Shrink the traces (CI smoke profile).
        seed: Workload seed.

    Returns:
        A ``repro-bench/1`` result document.  All ``sim_*`` metrics come
        from the simulated clock and must reproduce exactly across
        machines.

    Raises:
        RuntimeError: If shedding fails to engage on the fixed fleet, or
            the autoscaler fails to strictly improve goodput.
    """
    from ..accel.config import AcceleratorConfig
    from ..accel.devices import ZCU111
    from ..fleet import (
        AutoscalePolicy,
        FleetConfig,
        ReplicaSpec,
        run_scenario,
    )

    config = cluster_model_config()
    model = build_synthetic_integer_model(config, seed=seed)
    tokenizer = HashTokenizer(vocab_size=config.vocab_size)
    serving = ServingConfig(
        max_batch_size=BENCH_BATCH,
        max_wait_ms=5.0,
        buckets=(16, 32, 64),
        num_devices=1,
        cache_capacity=512,
    )
    # A deliberately weak design point: overload must be reachable with a
    # few hundred requests, not a few hundred thousand.
    weak = ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
        name="weak",
    )
    fleet_config = FleetConfig(serving=serving, admit_slo_factor=1.0)
    rate_scale = 1.5 if quick else 3.0
    duration_scale = 0.5 if quick else 1.0

    def run_flash(autoscale):
        return run_scenario(
            "flash-crowd",
            model,
            tokenizer,
            [weak],
            fleet_config,
            autoscale=autoscale,
            seed=seed,
            rate_scale=rate_scale,
            duration_scale=duration_scale,
        )

    policy = AutoscalePolicy(min_replicas=1, max_replicas=5, interval_ms=15.0)
    # One timed cold run whose report is also the result — the scenario is
    # the suite's most expensive run, so it executes exactly once.
    captured = {}
    wall = time_callable(
        lambda: captured.setdefault("fixed", run_flash(None)), repeats=1, warmup=0
    )
    fixed = captured["fixed"]
    autoscaled = run_flash(policy)

    # --- the scale-out contract, asserted before anything is recorded ---
    if not quick and fixed.stats.shed == 0:
        raise RuntimeError(
            "flash-crowd failed to trigger load shedding on the fixed fleet — "
            "the overload scenario no longer overloads; refusing to benchmark"
        )
    if autoscaled.stats.goodput_rps <= fixed.stats.goodput_rps:
        raise RuntimeError(
            "autoscaler failed to strictly improve goodput over the fixed "
            f"fleet ({autoscaled.stats.goodput_rps:.2f} <= "
            f"{fixed.stats.goodput_rps:.2f}); refusing to benchmark"
        )

    hetero = run_scenario(
        "steady",
        model,
        tokenizer,
        [
            ReplicaSpec(accel_config=AcceleratorConfig.zcu102_n8_m16()),
            ReplicaSpec(accel_config=AcceleratorConfig.zcu111_n16_m16(), device=ZCU111),
        ],
        FleetConfig(serving=serving),
        seed=seed,
        rate_scale=rate_scale,
        duration_scale=duration_scale,
    )
    if hetero.stats.shed or hetero.stats.completed != hetero.stats.submitted:
        raise RuntimeError(
            "heterogeneous steady-state fleet unexpectedly shed or lost traffic"
        )

    metrics = {
        "cluster_wall_ms": _metric(wall.best_ms, "ms", higher_is_better=False, gated=False),
        "sim_fixed_goodput_rps": _metric(
            fixed.stats.goodput_rps, "req/s", higher_is_better=True
        ),
        "sim_fixed_shed_rate": _metric(
            fixed.stats.shed_rate, "", higher_is_better=False
        ),
        "sim_fixed_p99_latency_ms": _metric(
            fixed.stats.p99_latency_ms, "ms", higher_is_better=False
        ),
        "sim_auto_goodput_rps": _metric(
            autoscaled.stats.goodput_rps, "req/s", higher_is_better=True
        ),
        "sim_auto_p99_latency_ms": _metric(
            autoscaled.stats.p99_latency_ms, "ms", higher_is_better=False
        ),
        "sim_auto_slo_attainment": _metric(
            autoscaled.stats.slo_attainment, "", higher_is_better=True
        ),
        "sim_auto_scale_ups": _metric(
            sum(e.action == "up" for e in autoscaled.stats.scale_events),
            "events",
            higher_is_better=False,
            gated=False,
        ),
        "sim_hetero_p99_latency_ms": _metric(
            hetero.stats.p99_latency_ms, "ms", higher_is_better=False
        ),
        "sim_hetero_throughput_rps": _metric(
            hetero.stats.throughput_rps, "req/s", higher_is_better=True
        ),
    }
    return {
        "schema": SCHEMA,
        "suite": "cluster",
        "profile": "quick" if quick else "full",
        "metrics": metrics,
        "info": {
            "model": config.to_dict(),
            "seed": seed,
            "rate_scale": rate_scale,
            "duration_scale": duration_scale,
            "submitted": {
                "fixed": fixed.stats.submitted,
                "autoscaled": autoscaled.stats.submitted,
                "hetero": hetero.stats.submitted,
            },
            "fixed_shed": fixed.stats.shed,
            "auto_shed": autoscaled.stats.shed,
            "scale_events": [
                {"time_ms": e.time_ms, "action": e.action, "replicas_after": e.replicas_after}
                for e in autoscaled.stats.scale_events
            ],
        },
    }


def run_fleet_suite(quick: bool = False, seed: int = 0) -> Dict:
    """Analytic-mode fleet simulation: equivalence gates, speedups, 100M trace.

    Five pinned experiments over one frozen synthetic model:

    1. **Equivalence + speedup** — the same steady scenario through the
       same fleet twice, executed vs. analytic.  The suite *asserts* the
       two reports are byte-identical (timing never came from the host
       model, so analytic mode must not move a single number) and then
       gates the wall-clock speedup ratio — the tentpole claim that
       latency-only execution decouples simulation scale from model FLOPs.
    2. **The million-request flash crowd** — a ~1.06M-request flash-crowd
       trace through an 8-replica ZCU102 fleet in analytic mode.  This run
       is identical in the quick and full profiles on purpose: completing
       it *is* the smoke test ("cluster questions at production traffic
       scale"), so CI proves it on every push.
    3. **Columnar equivalence + speedup** — the identical mega trace
       through the columnar engine.  The suite asserts its report is
       byte-identical to the event-loop analytic one and gates a >= 10x
       wall-clock speedup contract on top of it.
    4. **The 100M-request flash crowd** — the mega scenario scaled 100x,
       columnar only (the event loop would take an hour), sharded into
       deterministic time windows.  Like the mega run it is never shrunk
       in ``--quick``: completing it is the contract.
    5. **Observability overhead** — a dense steady trace through the
       event-loop analytic engine with a live
       :class:`~repro.obs.FleetObserver` vs. with observability disabled.
       The suite *asserts* the observed report is byte-identical to the
       plain one (the transparency contract) and that the overhead ratio
       stays under 10%; the ratio is gated, the walls are informational.
    6. **Chaos recovery** — a correlated two-replica zone outage with a
       simultaneous gray (4x straggler) window on the lone survivor,
       against timeouts + retries + circuit breaker + the autoscaler.
       The suite *asserts* the fleet recovers: windowed goodput after
       the outage climbs back to >= 90% of the pre-failure baseline
       (the observer's MTTR gauge reports a real recovery time, and the
       post-recovery goodput fraction is gated).
    7. **Chaos overhead when disabled** — the same steady trace with a
       fully *disabled* :class:`~repro.fleet.chaos.ResiliencePolicy`
       attached vs. plain.  The suite *asserts* the ratio stays under
       1.05: an all-off policy runs the same admission code as none, so
       what it still adds (the report's chaos section) must be free.

    Args:
        quick: Shrink the equivalence trace (the 1M/100M runs are never
            shrunk).
        seed: Workload seed.

    Returns:
        A ``repro-bench/1`` result document.  All ``sim_*`` metrics come
        from the simulated clock and must reproduce exactly across
        machines.

    Raises:
        RuntimeError: If the analytic report differs from the executed one
            (or the columnar report from the analytic one, or the observed
            report from the plain one) by even one byte, either speedup
            falls below its 10x contract, observability costs 10% or
            more, a headline trace shrank below its request floor, the
            fleet fails to recover >= 90% of pre-failure goodput after
            the pinned outage, or disabled chaos seams cost 5% or more.
    """
    from ..accel.config import AcceleratorConfig
    from ..fleet import (
        AutoscalePolicy,
        ChaosPlan,
        FleetConfig,
        GrayWindow,
        ReplicaSpec,
        ResiliencePolicy,
        ZoneOutage,
        native_available,
        run_scenario,
        run_scenario_columnar,
    )

    config = cluster_model_config()
    model = build_synthetic_integer_model(config, seed=seed)
    tokenizer = HashTokenizer(vocab_size=config.vocab_size)
    serving = ServingConfig(
        max_batch_size=BENCH_BATCH,
        max_wait_ms=5.0,
        buckets=(16, 32, 64),
        num_devices=1,
        cache_capacity=512,
    )
    fleet_config = FleetConfig(serving=serving)
    specs = [ReplicaSpec(), ReplicaSpec()]
    eq_rate = 0.5 if quick else 1.0

    def run_steady(analytic: bool):
        return run_scenario(
            "steady",
            model,
            tokenizer,
            specs,
            fleet_config,
            seed=seed,
            rate_scale=eq_rate,
            analytic=analytic,
        )

    # --- the equivalence gate: analytic must be a pure fast path --------
    # One warmup run per mode, so the one-time costs both modes share
    # (weight plans, memoized schedules) don't pollute the speedup ratio.
    captured = {}
    executed_wall = time_callable(
        lambda: captured.setdefault("executed", run_steady(False)), repeats=1, warmup=1
    )
    # Every repeat produces the same deterministic report; keep the last
    # instead of paying one more scenario run just to fetch it.
    analytic_wall = time_callable(
        lambda: captured.__setitem__("analytic", run_steady(True)),
        repeats=2 if quick else 5,
        warmup=1,
    )
    executed = captured["executed"]
    analytic = captured["analytic"]
    if executed.to_json() != analytic.to_json():
        raise RuntimeError(
            "analytic mode produced a different report than executed mode — "
            "latency-only execution moved a number; refusing to benchmark"
        )
    speedup = (
        executed_wall.best_ms / analytic_wall.best_ms
        if analytic_wall.best_ms
        else float("inf")
    )
    if speedup < 10.0:
        raise RuntimeError(
            f"analytic mode is only {speedup:.1f}x faster than executed mode "
            "on the pinned scenario — below the 10x contract; refusing to "
            "benchmark"
        )

    # --- the observability gate: attach-for-free or refuse ---------------
    # A denser steady trace than the equivalence run (fixed per-run costs
    # would otherwise swamp the per-request overhead this measures), same
    # exact pipeline; a fresh FleetObserver per repeat so nothing
    # accumulates across timing runs.
    from ..obs import FleetObserver

    obs_rate_scale, obs_duration_scale = 8.0, 8.0

    def run_obs_steady(obs):
        return run_scenario(
            "steady",
            model,
            tokenizer,
            specs,
            fleet_config,
            seed=seed,
            rate_scale=obs_rate_scale,
            duration_scale=obs_duration_scale,
            analytic=True,
            obs=obs,
        )

    # Interleaved floor-over-floor timing (see _floor_ratio): the observed
    # side allocates enough that a stray GC pass would land on it
    # disproportionately.
    obs_pairs = 5 if quick else 15
    obs_captured = {
        "plain": run_obs_steady(None),  # warmup pair; kept for the
        "observed": run_obs_steady(FleetObserver()),  # transparency check
    }
    obs_off_best, obs_on_best, obs_overhead = _floor_ratio(
        lambda: run_obs_steady(None),
        lambda: run_obs_steady(FleetObserver()),
        obs_pairs,
    )
    if obs_captured["observed"].to_json() != obs_captured["plain"].to_json():
        raise RuntimeError(
            "attaching a FleetObserver changed the report — the transparency "
            "contract is broken; refusing to benchmark"
        )
    if obs_overhead >= 1.10:
        raise RuntimeError(
            f"observability costs {(obs_overhead - 1.0) * 100:.1f}% on the "
            "pinned steady trace — at or above the 10% ceiling; refusing to "
            "benchmark"
        )

    # --- the chaos recovery gate: survive a two-replica zone outage -----
    # Three deliberately weak replicas; two share a zone that goes dark
    # for a correlated window while the lone survivor simultaneously goes
    # *gray* (4x straggler) — the worst 200ms the drill can stage.  The
    # default ZCU102 design point absorbs any outage without breaking a
    # sweat, so the drill uses the same slow design point the chaos test
    # matrix uses, plus a tight 1.0x-SLO admission bound and a 25ms
    # request timeout so the resilience mechanisms demonstrably fire
    # (retries, timeouts, breaker opens all > 0 on this pinned trace).
    # Retries + breaker + the autoscaler must bring windowed goodput back
    # to >= 90% of the pre-failure baseline — the observer's MTTR gauge
    # is the recovery detector (it encodes exactly that criterion over
    # the goodput window series).
    weak_chaos_spec = ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
        name="weak",
    )
    chaos_fleet_config = FleetConfig(serving=serving, admit_slo_factor=1.0)
    chaos_plan = ChaosPlan(
        name="bench-zone-outage",
        zones=(("zone-a", (0, 1)),),
        outages=(ZoneOutage(zone="zone-a", at_ms=300.0, recover_ms=500.0),),
        grays=(
            GrayWindow(
                replica_id=2, start_ms=300.0, end_ms=500.0, slowdown=4.0
            ),
        ),
    )
    chaos_policy = ResiliencePolicy(
        max_retries=2,
        backoff_base_ms=3.0,
        retry_budget_ratio=1.0,
        retry_budget_burst=20.0,
        breaker=True,
        breaker_straggle_factor=2.0,
        breaker_window=6,
        breaker_min_samples=3,
        breaker_open_ms=30.0,
        timeout_ms=25.0,
    )
    chaos_obs = FleetObserver()
    chaos_report = run_scenario(
        "steady",
        model,
        tokenizer,
        [weak_chaos_spec] * 3,
        chaos_fleet_config,
        seed=seed,
        rate_scale=6.0,
        duration_scale=4.0,
        analytic=True,
        scale_spec=weak_chaos_spec,
        autoscale=AutoscalePolicy(
            min_replicas=1, max_replicas=6, interval_ms=50.0, cooldown_ticks=1
        ),
        chaos=chaos_plan,
        resilience=chaos_policy,
        obs=chaos_obs,
    )
    mttr_ms = next(
        float(line.split()[-1])
        for line in chaos_obs.render_prometheus().splitlines()
        if line.startswith("repro_mttr_ms ")
    )
    if mttr_ms < 0.0:
        raise RuntimeError(
            "the fleet never recovered 90% of pre-failure goodput after the "
            "pinned two-replica zone outage — the recovery contract is "
            "broken; refusing to benchmark"
        )
    # The sustained post-recovery fraction (not just the first recovered
    # window MTTR keys on): mean goodput over the windows after the zone
    # comes back vs. the pre-failure baseline.
    chaos_windows = [json.loads(line) for line in chaos_obs.window_lines()]
    baseline_goodput = [
        w["goodput_rps"] for w in chaos_windows if w["end_ms"] <= 300.0
    ]
    recovered_goodput = [
        w["goodput_rps"] for w in chaos_windows if w["start_ms"] >= 500.0
    ]
    chaos_recovery_frac = (
        (sum(recovered_goodput) / len(recovered_goodput))
        / (sum(baseline_goodput) / len(baseline_goodput))
    )
    if chaos_recovery_frac < 0.9:
        raise RuntimeError(
            f"post-outage goodput sustains only {chaos_recovery_frac * 100:.1f}% "
            "of the pre-failure baseline — below the 90% recovery contract; "
            "refusing to benchmark"
        )

    # --- the alert-stream equivalence gate: engines x shard counts ------
    # The chaos drill fires real burn-rate alerts (the observer evaluates
    # the policy in-run, on the simulated clock).  Replay the identical
    # drill through the columnar engine at several shard counts and demand
    # byte-identical streams — the Prometheus dump, the window JSONL, and
    # the trace with its alert-fire/alert-resolve instants.  A drill that
    # stops firing makes the gate vacuous, so that refuses too.
    alert_transitions = list(chaos_obs.alerts.transitions)
    if not alert_transitions:
        raise RuntimeError(
            "the chaos drill fired no burn-rate alerts — the alert "
            "equivalence gate would be vacuous; refusing to benchmark"
        )
    chaos_streams = (
        chaos_obs.render_prometheus(),
        chaos_obs.window_lines(),
        chaos_obs.trace_json(),
    )
    for alert_shards in (1, 2, 5):
        shard_obs = FleetObserver()
        run_scenario_columnar(
            "steady",
            model,
            tokenizer,
            [weak_chaos_spec] * 3,
            chaos_fleet_config,
            seed=seed,
            rate_scale=6.0,
            duration_scale=4.0,
            shards=alert_shards,
            scale_spec=weak_chaos_spec,
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=6, interval_ms=50.0, cooldown_ticks=1
            ),
            chaos=chaos_plan,
            resilience=chaos_policy,
            obs=shard_obs,
        )
        shard_streams = (
            shard_obs.render_prometheus(),
            shard_obs.window_lines(),
            shard_obs.trace_json(),
        )
        if shard_streams != chaos_streams:
            raise RuntimeError(
                f"the columnar engine at {alert_shards} shard(s) produced "
                "different observability streams than the event-loop engine "
                "on the alerting chaos drill — the byte-exact alert contract "
                "is broken; refusing to benchmark"
            )

    # --- the regression-attribution gate: obs diff flags the gray -------
    # Inject a known 2x gray slowdown on replica 1 and demand the offline
    # diff rank that replica's service phase first — the causal signal an
    # operator would chase, surfaced from nothing but the artifacts.
    from ..obs import RunArtifacts, diff_runs

    def run_attribution(chaos):
        attribution_obs = FleetObserver()
        run_scenario(
            "steady",
            model,
            tokenizer,
            specs,
            fleet_config,
            seed=seed,
            rate_scale=eq_rate,
            analytic=True,
            chaos=chaos,
            obs=attribution_obs,
        )
        return RunArtifacts.from_strings(
            prom_text=attribution_obs.render_prometheus(),
            windows_text="".join(
                line + "\n" for line in attribution_obs.window_lines()
            ),
            trace_text=attribution_obs.trace_json(),
        )

    gray_plan = ChaosPlan(
        name="bench-gray-2x",
        grays=(
            GrayWindow(replica_id=1, start_ms=60.0, end_ms=200.0, slowdown=2.0),
        ),
    )
    attribution = diff_runs(
        run_attribution(None), run_attribution(gray_plan)
    ).top_attribution()
    if (
        attribution is None
        or not attribution.subject.startswith("replica 1 ")
        or attribution.metric != "service"
    ):
        got = (
            f"{attribution.subject} {attribution.metric}"
            if attribution
            else "nothing"
        )
        raise RuntimeError(
            "obs diff attributed the injected 2x gray slowdown on replica 1 "
            f"to {got} instead of replica 1's service phase — the "
            "attribution contract is broken; refusing to benchmark"
        )

    # --- the chaos overhead gate: zero-cost when disabled ---------------
    # Same interleaved floor-over-floor protocol as the observability
    # gate.  An all-off policy takes the same admission code as no policy;
    # the gate holds that what an explicit policy still adds — the
    # report's chaos section — stays free.
    disabled_policy = ResiliencePolicy()
    chaos_off_best, chaos_disabled_best, chaos_disabled_overhead = _floor_ratio(
        lambda: run_obs_steady(None),
        lambda: run_scenario(
            "steady",
            model,
            tokenizer,
            specs,
            fleet_config,
            seed=seed,
            rate_scale=obs_rate_scale,
            duration_scale=obs_duration_scale,
            analytic=True,
            resilience=disabled_policy,
        ),
        obs_pairs,
    )
    if chaos_disabled_overhead >= 1.05:
        raise RuntimeError(
            f"disabled chaos seams cost {(chaos_disabled_overhead - 1.0) * 100:.1f}% "
            "on the pinned steady trace — at or above the 5% ceiling; "
            "refusing to benchmark"
        )

    # --- the headline: ~1.06M requests of flash crowd, analytic ---------
    mega_rate_scale, mega_duration_scale, mega_replicas = 64.0, 70.0, 8
    mega_captured = {}
    mega_wall = time_callable(
        lambda: mega_captured.setdefault(
            "report",
            run_scenario(
                "flash-crowd",
                model,
                tokenizer,
                [ReplicaSpec()] * mega_replicas,
                fleet_config,
                seed=seed,
                rate_scale=mega_rate_scale,
                duration_scale=mega_duration_scale,
                analytic=True,
            ),
        ),
        repeats=1,
        warmup=0,
    )
    mega = mega_captured["report"]
    if mega.stats.submitted < 1_000_000:
        raise RuntimeError(
            f"the flash-crowd trace shrank to {mega.stats.submitted} requests "
            "— the million-request headline no longer holds; refusing to "
            "benchmark"
        )

    # --- the columnar engine: same mega trace, same bytes ---------------
    columnar_captured = {}
    columnar_wall = time_callable(
        lambda: columnar_captured.__setitem__(
            "report",
            run_scenario_columnar(
                "flash-crowd",
                model,
                tokenizer,
                [ReplicaSpec()] * mega_replicas,
                fleet_config,
                seed=seed,
                rate_scale=mega_rate_scale,
                duration_scale=mega_duration_scale,
            ),
        ),
        repeats=3,
        warmup=0,
    )
    columnar_mega = columnar_captured["report"]
    if columnar_mega.to_json() != mega.to_json():
        raise RuntimeError(
            "the columnar engine produced a different report than the "
            "event-loop analytic engine on the mega trace — the byte-exact "
            "contract is broken; refusing to benchmark"
        )
    columnar_speedup = (
        mega_wall.best_ms / columnar_wall.best_ms
        if columnar_wall.best_ms
        else float("inf")
    )
    if columnar_speedup < 10.0:
        raise RuntimeError(
            f"the columnar engine is only {columnar_speedup:.1f}x faster than "
            "the event-loop analytic engine on the mega trace — below the "
            "10x contract; refusing to benchmark"
        )

    # --- the headline: 100M requests of flash crowd, columnar, sharded --
    giga_rate_scale, giga_duration_scale, giga_shards = 640.0, 665.0, 4
    giga_captured = {}
    giga_wall = time_callable(
        lambda: giga_captured.setdefault(
            "report",
            run_scenario_columnar(
                "flash-crowd",
                model,
                tokenizer,
                [ReplicaSpec()] * mega_replicas,
                fleet_config,
                seed=seed,
                rate_scale=giga_rate_scale,
                duration_scale=giga_duration_scale,
                shards=giga_shards,
            ),
        ),
        repeats=1,
        warmup=0,
    )
    giga = giga_captured["report"]
    if giga.stats.submitted < 100_000_000:
        raise RuntimeError(
            f"the giga flash-crowd trace shrank to {giga.stats.submitted} "
            "requests — the 100M-request headline no longer holds; refusing "
            "to benchmark"
        )

    metrics = {
        "executed_wall_ms": _metric(
            executed_wall.best_ms, "ms", higher_is_better=False, gated=False
        ),
        "analytic_wall_ms": _metric(
            analytic_wall.best_ms, "ms", higher_is_better=False, gated=False
        ),
        # A same-run ratio, so it transfers across machines like the kernel
        # suite's speedups do.
        "analytic_speedup_vs_executed": _metric(
            speedup, "x", higher_is_better=True
        ),
        "obs_off_wall_ms": _metric(
            obs_off_best, "ms", higher_is_better=False, gated=False
        ),
        "obs_on_wall_ms": _metric(
            obs_on_best, "ms", higher_is_better=False, gated=False
        ),
        # Floor-over-floor ratio of interleaved same-run pairs (observed
        # wall / plain wall); the hard <1.10 ceiling above is the contract,
        # this gates drift inside it.
        "obs_overhead_ratio": _metric(
            obs_overhead, "x", higher_is_better=False
        ),
        # Deterministic (simulated-clock) recovery numbers for the pinned
        # two-replica zone outage; the hard floors above are the contract,
        # these gate drift inside it.
        "sim_chaos_mttr_ms": _metric(
            mttr_ms, "ms", higher_is_better=False
        ),
        "sim_chaos_recovery_goodput_frac": _metric(
            chaos_recovery_frac, "", higher_is_better=True
        ),
        # Deterministic burn-rate transition count on the chaos drill —
        # held byte-equal across engines and shard counts by the hard
        # gate above; this pins the count itself against drift.
        "sim_alert_transitions": _metric(
            len(alert_transitions), "", higher_is_better=False
        ),
        "chaos_off_wall_ms": _metric(
            chaos_off_best, "ms", higher_is_better=False, gated=False
        ),
        "chaos_disabled_wall_ms": _metric(
            chaos_disabled_best, "ms", higher_is_better=False, gated=False
        ),
        # Floor-over-floor ratio under the hard <1.05 ceiling above.
        "chaos_disabled_overhead_ratio": _metric(
            chaos_disabled_overhead, "x", higher_is_better=False
        ),
        "mega_wall_ms": _metric(
            mega_wall.best_ms, "ms", higher_is_better=False, gated=False
        ),
        "mega_wall_requests_per_s": _metric(
            mega.stats.submitted / (mega_wall.best_ms / 1e3),
            "req/s",
            higher_is_better=True,
            gated=False,
        ),
        "sim_mega_submitted": _metric(
            mega.stats.submitted, "req", higher_is_better=True
        ),
        "sim_mega_shed_rate": _metric(
            mega.stats.shed_rate, "", higher_is_better=False
        ),
        "sim_mega_goodput_rps": _metric(
            mega.stats.goodput_rps, "req/s", higher_is_better=True
        ),
        "sim_mega_throughput_rps": _metric(
            mega.stats.throughput_rps, "req/s", higher_is_better=True
        ),
        "sim_mega_p99_latency_ms": _metric(
            mega.stats.p99_latency_ms, "ms", higher_is_better=False
        ),
        "columnar_mega_wall_ms": _metric(
            columnar_wall.best_ms, "ms", higher_is_better=False, gated=False
        ),
        "columnar_speedup_vs_analytic": _metric(
            columnar_speedup, "x", higher_is_better=True
        ),
        "giga_wall_ms": _metric(
            giga_wall.best_ms, "ms", higher_is_better=False, gated=False
        ),
        "giga_wall_requests_per_s": _metric(
            giga.stats.submitted / (giga_wall.best_ms / 1e3),
            "req/s",
            higher_is_better=True,
            gated=False,
        ),
        "sim_giga_submitted": _metric(
            giga.stats.submitted, "req", higher_is_better=True
        ),
        "sim_giga_shed_rate": _metric(
            giga.stats.shed_rate, "", higher_is_better=False
        ),
        "sim_giga_goodput_rps": _metric(
            giga.stats.goodput_rps, "req/s", higher_is_better=True
        ),
        "sim_giga_p99_latency_ms": _metric(
            giga.stats.p99_latency_ms, "ms", higher_is_better=False
        ),
    }
    return {
        "schema": SCHEMA,
        "suite": "fleet",
        "profile": "quick" if quick else "full",
        "metrics": metrics,
        "info": {
            "model": config.to_dict(),
            "seed": seed,
            "equivalence": {
                "scenario": "steady",
                "rate_scale": eq_rate,
                "replicas": len(specs),
                "submitted": executed.stats.submitted,
                "byte_identical": True,
            },
            "mega": {
                "scenario": "flash-crowd",
                "rate_scale": mega_rate_scale,
                "duration_scale": mega_duration_scale,
                "replicas": mega_replicas,
                "submitted": mega.stats.submitted,
                "shed": mega.stats.shed,
            },
            "columnar": {
                "byte_identical": True,
                "native_kernel": native_available(),
            },
            "observability": {
                "scenario": "steady",
                "rate_scale": obs_rate_scale,
                "duration_scale": obs_duration_scale,
                "submitted": obs_captured["plain"].stats.submitted,
                "byte_identical": True,
                # the observer evaluates the burn-rate alert policy and
                # builds the run quantile sketch in-line, so the ceiling
                # now covers alerting + sketching too
                "alerts_enabled": True,
                "overhead_ceiling": 1.10,
            },
            "chaos": {
                "scenario": "steady",
                "rate_scale": 6.0,
                "duration_scale": 4.0,
                "plan": chaos_plan.name,
                "outage": "replicas (0, 1) down 300-500 ms (zone-a); "
                "replica 2 gray 4x over the same window",
                "resilience": "timeout + retries + budget + breaker "
                "+ autoscale",
                "submitted": chaos_report.stats.submitted,
                "retries": chaos_report.stats.chaos.retries,
                "timeouts": chaos_report.stats.chaos.timeouts,
                "breaker_opens": chaos_report.stats.chaos.breaker_opens,
                "mttr_ms": mttr_ms,
                "recovery_floor": 0.9,
                "disabled_overhead_ceiling": 1.05,
            },
            "alerting": {
                "policy": "default burn-rate (page/ticket slo, page shed)",
                "drill_transitions": len(alert_transitions),
                "byte_identical_shards": [1, 2, 5],
                "attribution": "2x gray on replica 1 -> top diff row is "
                "replica 1 service",
            },
            "giga": {
                "scenario": "flash-crowd",
                "rate_scale": giga_rate_scale,
                "duration_scale": giga_duration_scale,
                "replicas": mega_replicas,
                "shards": giga_shards,
                "submitted": giga.stats.submitted,
                "shed": giga.stats.shed,
            },
        },
    }


def run_dse_suite(quick: bool = False, seed: int = 0) -> Dict:
    """Design-space search: front correctness, eval throughput, planning.

    Three pinned experiments:

    1. **Pareto correctness** — sweep the ``table3`` knob space and
       *assert* that every hand-picked Table III design point (ZCU102
       (8, 16), ZCU102 (16, 8), ZCU111 (16, 16)) is on the Pareto front
       under the default (latency, energy, headroom) objectives.  A front
       that drops a paper point means the objective model broke.
    2. **Evaluation throughput** — price the ``wide`` space (320
       candidates; ``table3`` in quick mode) from cold caches, then again
       fully memoized, and *assert* the memoized pass sustains ≥1k
       candidate evaluations per second — the contract that makes
       interactive search over thousands of points viable.
    3. **Capacity planning** — run the planner against the pinned
       flash-crowd scenario over a weak/mid/default design ladder and
       *assert* the returned plan is feasible (p99 and shed-rate targets
       met).  The plan's deterministic cost/tail numbers are gated.

    Args:
        quick: Smaller space / gentler scenario (CI smoke profile).
        seed: Workload seed.

    Returns:
        A ``repro-bench/1`` result document.  All ``sim_*`` metrics come
        from the analytic models and must reproduce exactly across
        machines.

    Raises:
        RuntimeError: If a named design point falls off the front, the
            memoized throughput contract fails, or no feasible plan meets
            the pinned SLO targets.
    """
    from ..accel.config import AcceleratorConfig
    from ..fleet import FleetConfig, ReplicaSpec
    from ..search import (
        SloTarget,
        builtin_spaces,
        clear_evaluation_cache,
        evaluate_candidate,
        explore,
        plan_capacity,
    )

    spaces = builtin_spaces()

    # --- 1. the Table III front contract --------------------------------
    table3 = explore(spaces["table3"], seed=seed)
    named = (
        ("ZCU102", AcceleratorConfig.zcu102_n8_m16()),
        ("ZCU102", AcceleratorConfig.zcu102_n16_m8()),
        ("ZCU111", AcceleratorConfig.zcu111_n16_m16()),
    )
    front_keys = {(r.device.name, r.config) for r in table3.front}
    for device_name, config in named:
        if (device_name, config) not in front_keys:
            raise RuntimeError(
                f"paper design point {device_name} "
                f"(N={config.num_pes}, M={config.num_multipliers}) is "
                "dominated — it fell off the Table III Pareto front; "
                "refusing to benchmark"
            )

    # --- 2. the ≥1k evals/s throughput contract -------------------------
    from ..bert.config import BertConfig

    sweep_space = spaces["table3" if quick else "wide"]
    sweep_model = BertConfig.base()
    candidates = sweep_space.candidates()

    def sweep() -> None:
        for config, device in candidates:
            evaluate_candidate(config, device, sweep_model)

    clear_evaluation_cache()
    cold = time_callable(sweep, repeats=1, warmup=0)
    warm = time_callable(sweep, repeats=2 if quick else 5, warmup=0)
    cold_rate = len(candidates) / (cold.best_ms / 1e3)
    warm_rate = len(candidates) / (warm.best_ms / 1e3)
    if warm_rate < 1000.0:
        raise RuntimeError(
            f"memoized candidate evaluation sustains only {warm_rate:.0f} "
            "evals/s — below the 1k contract; refusing to benchmark"
        )

    # --- 3. the pinned capacity plan ------------------------------------
    model_config = cluster_model_config()
    model = build_synthetic_integer_model(model_config, seed=seed)
    tokenizer = HashTokenizer(vocab_size=model_config.vocab_size)
    fleet_config = FleetConfig(
        serving=ServingConfig(
            max_batch_size=BENCH_BATCH,
            max_wait_ms=5.0,
            buckets=(16, 32, 64),
            num_devices=1,
            cache_capacity=512,
        )
    )
    designs = [
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
    planning = plan_capacity(
        "flash-crowd",
        designs,
        SloTarget(p99_ms=150.0),
        model,
        tokenizer,
        fleet_config=fleet_config,
        max_replicas=2 if quick else 3,
        seed=seed,
        rate_scale=2.0 if quick else 4.0,
    )
    best = planning.best
    if best is None or not best.feasible:
        raise RuntimeError(
            "the capacity planner found no feasible plan for the pinned "
            "flash-crowd scenario — the SLO contract broke; refusing to "
            "benchmark"
        )
    infeasible = sum(not outcome.feasible for outcome in planning.outcomes)

    metrics = {
        "dse_cold_evals_per_s": _metric(
            cold_rate, "evals/s", higher_is_better=True, gated=False
        ),
        "dse_memoized_evals_per_s": _metric(
            warm_rate, "evals/s", higher_is_better=True, gated=False
        ),
        "sim_front_size": _metric(
            len(table3.front), "designs", higher_is_better=True
        ),
        "sim_front_feasible": _metric(
            table3.feasible, "designs", higher_is_better=True
        ),
        "sim_front_min_latency_ms": _metric(
            min(r.latency_ms for r in table3.front), "ms", higher_is_better=False
        ),
        "sim_front_min_energy_mj": _metric(
            min(r.energy_per_inference_mj for r in table3.front),
            "mJ",
            higher_is_better=False,
        ),
        "sim_plan_replicas": _metric(
            len(best.plan.replicas), "replicas", higher_is_better=False
        ),
        "sim_plan_replica_seconds": _metric(
            best.replica_seconds, "s", higher_is_better=False
        ),
        "sim_plan_energy_j": _metric(best.energy_j, "J", higher_is_better=False),
        "sim_plan_p99_latency_ms": _metric(
            best.p99_ms, "ms", higher_is_better=False
        ),
        "sim_plan_shed_rate": _metric(best.shed_rate, "", higher_is_better=False),
        "sim_plan_goodput_rps": _metric(
            best.goodput_rps, "req/s", higher_is_better=True
        ),
    }
    return {
        "schema": SCHEMA,
        "suite": "dse",
        "profile": "quick" if quick else "full",
        "metrics": metrics,
        "info": {
            "seed": seed,
            "sweep_space": sweep_space.name,
            "sweep_candidates": len(candidates),
            "named_points_on_front": [
                f"{device} N{config.num_pes} M{config.num_multipliers}"
                for device, config in named
            ],
            "plan": {
                "scenario": "flash-crowd",
                "best": best.plan.label,
                "p99_target_ms": 150.0,
                "max_shed_rate": 0.0,
                "evaluated": len(planning.outcomes),
                "infeasible": infeasible,
            },
        },
    }


def _wrap_tokenizer(profiler: Profiler, tokenizer: HashTokenizer):
    """A tokenizer proxy whose ``encode`` is profiled."""

    class _Proxy:
        encode = staticmethod(profiler.wrap("tokenizer.encode", tokenizer.encode))

    return _Proxy()


_RUNNERS: Dict[str, Callable[..., Dict]] = {
    "kernels": run_kernel_suite,
    "serve": run_serve_suite,
    "cluster": run_cluster_suite,
    "fleet": run_fleet_suite,
    "dse": run_dse_suite,
}


def run_suite(suite: str, quick: bool = False, seed: int = 0) -> Dict:
    """Run one named suite.

    Args:
        suite: ``"kernels"``, ``"serve"``, ``"cluster"``, ``"fleet"``, or
            ``"dse"``.
        quick: CI smoke profile (smaller shapes, fewer repeats).
        seed: Workload seed.

    Returns:
        The suite's ``repro-bench/1`` result document.
    """
    runner = _RUNNERS.get(suite)
    if runner is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_RUNNERS)}")
    return runner(quick=quick, seed=seed)


def result_path(out_dir: pathlib.Path, suite: str) -> pathlib.Path:
    """The canonical baseline file of a suite (``BENCH_<suite>.json``)."""
    return pathlib.Path(out_dir) / f"BENCH_{suite}.json"


def write_result(result: Dict, path: pathlib.Path) -> None:
    """Write one result document as stable, diff-friendly JSON.

    Args:
        result: A suite result document.
        path: Destination file (parent directories are created).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def load_result(path: pathlib.Path) -> Optional[Dict]:
    """Load a previously written result, or ``None`` if absent.

    Args:
        path: A ``BENCH_<suite>.json`` path.

    Returns:
        The parsed document, or ``None`` when the file does not exist.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def render_result(result: Dict) -> str:
    """Human-readable metric table of one result document."""
    lines = [f"suite: {result['suite']}  (profile: {result['profile']})"]
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        unit = f" {metric['unit']}" if metric["unit"] else ""
        arrow = "↑" if metric["higher_is_better"] else "↓"
        gate = "" if metric.get("gated", True) else ", not gated"
        lines.append(
            f"  {name:<{width}}  {metric['value']:>12.4f}{unit}  ({arrow} better{gate})"
        )
    return "\n".join(lines)
