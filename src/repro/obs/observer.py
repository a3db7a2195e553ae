"""The fleet-facing observability sink.

:class:`FleetObserver` is the object threaded through the instrumentation
seams in ``serve/engine.py``, ``fleet/fleet.py``, ``fleet/runner.py``,
``fleet/autoscale.py``, and ``fleet/columnar.py``.  It owns one
:class:`~repro.obs.registry.MetricsRegistry`, one
:class:`~repro.obs.tracing.Tracer`, and one
:class:`~repro.obs.windows.WindowTracker`, and turns engine callbacks
into metrics, spans, and window records.

Two contracts, both enforced by ``tests/obs/test_differential.py``:

1. **Transparency** — attaching an observer never changes a report byte.
   Every callback only *reads* engine state.
2. **Engine equivalence** — the event-loop and columnar engines drive the
   same callbacks with the same values, so Prometheus dumps, window
   JSONL, and trace JSON are byte-identical across engines, at any shard
   count.

Shard-partial transport mirrors the columnar engine's ``ShardPartial``:
forked shard workers call :meth:`FleetObserver.take_partial` (draining
their live buffers into a picklable payload) and the parent
:meth:`absorbs <FleetObserver.absorb>` them, merging window accumulators
by index and concatenating trace events.  The disabled path is ``obs is
None`` (or the falsy :class:`NullObserver`) — zero work on the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .analysis.alerts import AlertEvaluator, BurnRateRule
from .analysis.sketch import QuantileSketch, _slot_edges
from .registry import MetricsRegistry
from .tracing import Tracer
from .windows import WindowTracker, _Win

__all__ = ["FleetObserver", "NullObserver", "ObsPartial"]


@dataclass
class ObsPartial:
    """Picklable slice of observer state from one shard worker."""

    windows: Dict[int, _Win] = field(default_factory=dict)
    trace_events: List[dict] = field(default_factory=list)
    # earliest replica failure this shard observed (None = none) — the
    # parent folds these with min() for the MTTR gauge
    first_failure_ms: Optional[float] = None
    # window-close-derived state: the run-level latency sketch merges, the
    # alert evaluator is adopted whole (it is sequential per-window state
    # — only the side that actually closed windows has any; window closes
    # happen exclusively in the parent process, so shipping it keeps the
    # alert stream byte-identical at every shard count by construction)
    run_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    alerts: Optional[AlertEvaluator] = None


class FleetObserver:
    """Deterministic metrics + tracing + rolling windows for one run."""

    def __init__(
        self,
        window_ms: float = 20.0,
        windows_stream=None,
        alert_policy: Optional[Sequence[BurnRateRule]] = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        # Burn-rate alerting is always on: it costs a handful of integer
        # adds per closed window, and running it by default means every
        # differential and overhead gate covers the evaluator too.
        self.alerts = AlertEvaluator(alert_policy)
        self._run_sketch = QuantileSketch()
        self.windows = WindowTracker(
            window_ms=window_ms,
            stream=windows_stream,
            on_close=self._on_window_close,
        )
        # Absorbed trace events live apart from the tracer's live buffer:
        # a forked shard child inherits this master list but only ships
        # what *it* recorded (tracer.take() drains the live buffer alone),
        # so nothing is double-counted across forks.
        self._trace_master: List[dict] = []
        # Batch spans — the hottest trace stream by far — buffer as raw
        # tuples and only become trace-event dicts at export time, keeping
        # dict construction out of the observed run entirely.
        self._batch_spans: List[tuple] = []
        self._first_failure_ms: Optional[float] = None
        self._finalized = False
        # Per-request callbacks bind straight to the tracker methods,
        # skipping one call frame on the hot loop (these shadow the
        # identically-behaved methods below, which stay as documentation
        # and as the override points for subclasses).
        self.on_arrival = self.windows.record_arrival
        self.on_arrivals = self.windows.record_arrivals
        self.on_shed = self.windows.record_shed
        self.on_sheds = self.windows.record_sheds
        self.on_completion = self.windows.record_completion
        self.on_completions = self.windows.record_completions
        self.on_batch = self._batch_spans.append

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # engine callbacks (both engines call these with identical values)
    # ------------------------------------------------------------------
    def on_arrival(self, t_ms: float) -> None:
        self.windows.record_arrival(t_ms)

    def on_arrivals(self, times_ms) -> None:
        self.windows.record_arrivals(times_ms)

    def on_shed(self, t_ms: float, reason: str) -> None:
        self.windows.record_shed(t_ms, reason)

    def on_sheds(self, times_ms, reason: str) -> None:
        self.windows.record_sheds(times_ms, reason)

    def on_completion(self, finish_ms: float, latency_ms: float, slo_met: bool) -> None:
        self.windows.record_completion(finish_ms, latency_ms, slo_met)

    def on_completions(
        self, finish_ms: float, latencies: List[float], slo_met: int
    ) -> None:
        self.windows.record_completions(finish_ms, latencies, slo_met)

    def on_batch_columns(
        self, replica, bucket, size, offset, start, service, finish,
        arrival, enqueue, slo,
    ) -> None:
        """Record many dispatched batches and their completions at once.

        Numpy columns: the first seven hold one entry per batch; the
        last three one per completed request, batch ``j``'s requests at
        ``[offset[j], offset[j] + size[j])``.  Records the same window
        completions and :meth:`on_batch` spans as a per-batch loop, from
        the same IEEE operations on the same operands — this is how the
        columnar engine's post-pass hands over its batch log.
        """
        import numpy as np

        fin = np.repeat(finish, size)
        latency = fin - arrival
        self.windows.record_completion_columns(fin, latency, latency <= slo)
        # Each batch's worst request: earliest fleet arrival, ties by
        # earliest enqueue; batch formation ends at its last enqueue.
        worst_arr = np.minimum.reduceat(arrival, offset)
        tied = np.where(arrival == np.repeat(worst_arr, size), enqueue, np.inf)
        worst_enq = np.minimum.reduceat(tied, offset)
        last_enq = np.maximum.reduceat(enqueue, offset)
        self._batch_spans.extend(zip(
            replica.tolist(), bucket.tolist(), size.tolist(),
            start.tolist(), service.tolist(),
            (finish - worst_arr).tolist(), (worst_enq - worst_arr).tolist(),
            (last_enq - worst_enq).tolist(), (start - last_enq).tolist(),
        ))

    def on_batch(self, span: tuple) -> None:
        """Record one dispatched batch.

        ``span`` is ``(replica_id, bucket, size, start_ms, service_ms,
        wl, wr, wb, wq)`` where the ``w*`` tail is the critical-path
        decomposition of the batch's **worst request** (earliest fleet
        arrival, ties by earliest enqueue): ``wl`` its end-to-end latency,
        ``wr`` retry/hedge time (arrival to final enqueue), ``wb`` batch
        formation (its enqueue to the batch's last enqueue), ``wq`` queue
        wait (last enqueue to dispatch); ``wl == wr + wb + wq +
        service_ms`` up to float rounding.  It takes the whole tuple so
        the bound
        callback can be a bare list append — this fires once per batch,
        the hottest trace stream, and the trace-event dict is built later
        by :meth:`_batch_span_events` (export is sorted, so when the
        dicts materialise does not change a byte).
        """

        self._batch_spans.append(span)

    def _on_window_close(self, index: int, win, sketch, shed_total: int) -> None:
        """One window closed: fold its sketch into the run-level digest
        and step the burn-rate alert evaluator, emitting any transitions
        as trace instants at the window's end."""

        self._run_sketch = self._run_sketch.merge(sketch)
        end_ms = (index + 1) * self.windows.window_ms
        for t_ms, name, action in self.alerts.observe_window(
            end_ms, win.arrivals, win.completions, win.slo_met, shed_total
        ):
            self.tracer.add_instant(
                f"alert-{action}", t_ms, tid=0, args={"alert": name}
            )

    def on_replica(self, replica_id: int, label: str, t_ms: float, cold_ms: float) -> None:
        self.tracer.add_thread_name(replica_id, f"replica-{replica_id} [{label}]")
        if cold_ms > 0.0:
            self.tracer.add_span(
                "cold-start", t_ms, cold_ms, tid=replica_id, args={"label": label}
            )

    def on_failure(self, replica_id: int, t_ms: float) -> None:
        self.windows.record_failure(t_ms)
        if self._first_failure_ms is None or t_ms < self._first_failure_ms:
            self._first_failure_ms = t_ms
        self.tracer.add_instant(
            "replica-fail", t_ms, tid=replica_id, args={"replica": int(replica_id)}
        )

    def on_recovery(self, replica_id: int, t_ms: float, cold_ms: float) -> None:
        self.windows.record_recovery(t_ms)
        self.tracer.add_instant(
            "replica-recover", t_ms, tid=replica_id, args={"replica": int(replica_id)}
        )
        if cold_ms > 0.0:
            self.tracer.add_span(
                "cold-start", t_ms, cold_ms, tid=replica_id, args={"recovery": True}
            )

    def on_tick(
        self, t_ms: float, utilization: float, p99_ratio: float, depth: int
    ) -> None:
        self.tracer.add_counter(
            "autoscaler",
            t_ms,
            {
                "utilization": float(utilization),
                "p99_over_slo": float(p99_ratio),
                "queue_depth": float(depth),
            },
        )

    def on_scale(self, event) -> None:
        self.windows.record_scale(event.time_ms, event.action)
        self.tracer.add_instant(
            f"scale-{event.action}",
            event.time_ms,
            tid=0,
            args={"reason": event.reason, "replicas": int(event.replicas_after)},
        )

    # ------------------------------------------------------------------
    # chaos-layer callbacks
    # ------------------------------------------------------------------
    def on_gray(
        self, replica_id: int, t_ms: float, end_ms: float, slowdown: float
    ) -> None:
        """A gray (straggler) window opened on a replica."""
        self.tracer.add_span(
            "gray-window",
            t_ms,
            end_ms - t_ms,
            tid=replica_id,
            args={"slowdown": float(slowdown)},
        )

    def on_breaker(self, replica_id: int, t_ms: float, state: str) -> None:
        """A replica's circuit breaker changed state (open/half-open/closed)."""
        self.tracer.add_instant(
            f"breaker-{state}", t_ms, tid=replica_id, args={"state": state}
        )

    def on_brownout(self, t_ms: float, level: int) -> None:
        """The brownout ladder moved to ``level`` (0 = normal admission)."""
        self.tracer.add_counter("brownout", t_ms, {"level": float(level)})

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def advance(self, watermark_ms: float) -> None:
        """Flush every window ending at or before the watermark.

        Callers guarantee no further record lands at or before the
        watermark (see the module docstring of :mod:`repro.obs.windows`).
        """

        self.windows.flush(watermark_ms)

    def _batch_span_events(self) -> List[dict]:
        """Materialise buffered batch spans as trace-event dicts (the same
        shape :meth:`Tracer.add_span` builds)."""

        return [
            {
                "name": "batch",
                "ph": "X",
                "ts": float(start_ms) * 1000.0,
                "dur": float(service_ms) * 1000.0,
                "pid": 0,
                "tid": int(replica_id),
                "args": {
                    "bucket": int(bucket),
                    "size": int(size),
                    "wl": float(wl),
                    "wr": float(wr),
                    "wb": float(wb),
                    "wq": float(wq),
                },
            }
            for replica_id, bucket, size, start_ms, service_ms, wl, wr, wb, wq
            in self._batch_spans
        ]

    def take_partial(self) -> ObsPartial:
        """Drain live buffers into a picklable partial (shard workers)."""

        events = self.tracer.take() + self._batch_span_events()
        self._batch_spans = []
        # on_batch is a bare append bound to the drained list — rebind it
        # to the fresh buffer or later spans would vanish into the partial.
        self.on_batch = self._batch_spans.append
        first_failure, self._first_failure_ms = self._first_failure_ms, None
        run_sketch, self._run_sketch = self._run_sketch, QuantileSketch()
        alerts, self.alerts = self.alerts, AlertEvaluator(
            policy=self.alerts.rules
        )
        return ObsPartial(
            windows=self.windows.take(),
            trace_events=events,
            first_failure_ms=first_failure,
            run_sketch=run_sketch,
            alerts=alerts,
        )

    def absorb(self, partial: ObsPartial) -> None:
        """Merge a shard worker's partial, mirroring ``merge_shard_partials``."""

        self.windows.absorb(partial.windows)
        self._trace_master.extend(partial.trace_events)
        t = partial.first_failure_ms
        if t is not None and (
            self._first_failure_ms is None or t < self._first_failure_ms
        ):
            self._first_failure_ms = t
        self._run_sketch = self._run_sketch.merge(partial.run_sketch)
        # The alert evaluator is sequential window state, not a mergeable
        # delta: adopt whichever side has actually seen windows.  Shard
        # children never close windows (only the parent flushes), so at
        # most one side is ever non-empty.
        if (
            partial.alerts is not None
            and partial.alerts.windows_seen > self.alerts.windows_seen
        ):
            self.alerts = partial.alerts

    def finalize(self, report) -> None:
        """Flush remaining windows and fill the registry from the report.

        Every counter/gauge value comes from the already byte-identical
        :class:`~repro.fleet.runner.FleetReport`, so the Prometheus dump
        inherits the engines' byte-equality for free; the latency
        histogram comes from the run-level quantile sketch (bucket
        boundaries are the sketch's own slot edges, so the fill is
        exact).  The flush horizon is the report duration, which pads the
        window stream with explicit empty trailing windows — two runs of
        equal duration always align index-for-index.
        """

        if self._finalized:
            return
        self._finalized = True
        self.windows.flush_all(horizon_ms=report.stats.duration_ms)

        reg = self.registry
        stats = report.stats
        reg.counter(
            "repro_requests_total", "Requests submitted to the fleet."
        ).inc(stats.submitted)
        reg.counter(
            "repro_requests_completed_total", "Requests completed."
        ).inc(stats.completed)
        reg.counter(
            "repro_requests_slo_met_total", "Completed requests meeting their SLO."
        ).inc(stats.slo_met)
        shed = reg.counter(
            "repro_requests_shed_total", "Requests shed, by reason.", labels=("reason",)
        )
        for reason in sorted(stats.shed_by_reason):
            shed.inc(stats.shed_by_reason[reason], reason=reason)
        reg.counter(
            "repro_migrations_total", "Queued requests migrated off failed replicas."
        ).inc(stats.migrations)
        scale = reg.counter(
            "repro_scale_events_total", "Autoscaler actions, by direction.",
            labels=("action",),
        )
        for action in ("up", "down"):
            count = sum(1 for e in stats.scale_events if e.action == action)
            if count:
                scale.inc(count, action=action)
        reg.counter(
            "repro_replica_failures_total", "Replica failure events."
        ).inc(sum(r.failures for r in stats.replicas))

        reg.gauge("repro_duration_ms", "Simulated run duration.").set(stats.duration_ms)
        reg.gauge("repro_replicas_total", "Replicas ever provisioned.").set(
            len(stats.replicas)
        )
        latency = reg.gauge(
            "repro_latency_ms", "Fleet latency summary.", labels=("stat",)
        )
        latency.set(stats.p50_latency_ms, stat="p50")
        latency.set(stats.p95_latency_ms, stat="p95")
        latency.set(stats.p99_latency_ms, stat="p99")
        latency.set(stats.mean_latency_ms, stat="mean")
        latency.set(stats.max_latency_ms, stat="max")
        reg.gauge("repro_throughput_rps", "Completed requests per second.").set(
            stats.throughput_rps
        )
        reg.gauge(
            "repro_goodput_rps", "SLO-meeting completions per second."
        ).set(stats.goodput_rps)
        reg.gauge("repro_shed_rate", "Shed fraction of submitted requests.").set(
            stats.shed_rate
        )
        reg.gauge("repro_slo_attainment", "SLO-met fraction of completions.").set(
            stats.slo_attainment
        )

        self._fill_latency_histogram(reg)
        self._fill_attribution_gauges(reg, stats)
        self._fill_alert_metrics(reg)

        chaos = getattr(stats, "chaos", None)
        if chaos is not None:
            reg.counter(
                "repro_retries_total", "Backoff retries scheduled."
            ).inc(chaos.retries)
            reg.counter(
                "repro_retry_budget_exhausted_total",
                "Retries denied by the retry budget.",
            ).inc(chaos.retry_budget_exhausted)
            reg.counter(
                "repro_timeouts_total", "Admissions failed fast on timeout."
            ).inc(chaos.timeouts)
            reg.counter(
                "repro_hedges_total", "Requests duplicated onto a second replica."
            ).inc(chaos.hedges)
            reg.counter(
                "repro_hedge_wins_total", "Hedged requests won by the secondary."
            ).inc(chaos.hedge_wins)
            breaker = reg.counter(
                "repro_breaker_transitions_total",
                "Circuit-breaker transitions, by direction.",
                labels=("transition",),
            )
            breaker.inc(chaos.breaker_opens, transition="open")
            breaker.inc(chaos.breaker_closes, transition="close")
            brownout = reg.counter(
                "repro_brownout_transitions_total",
                "Brownout ladder moves, by direction.",
                labels=("direction",),
            )
            brownout.inc(chaos.brownout_escalations, direction="escalate")
            brownout.inc(chaos.brownout_deescalations, direction="deescalate")
            reg.gauge(
                "repro_mttr_ms",
                "Time from first failure until windowed goodput is back at "
                ">= 90% of the pre-failure baseline (-1 = never recovered, "
                "0 = no failure observed).",
            ).set(self._mttr_ms())

    def _fill_latency_histogram(self, reg: MetricsRegistry) -> None:
        """Materialise ``repro_request_latency_ms`` from the run sketch.

        Boundaries are the sketch's own occupied slot upper edges, so
        every bucket count is exact; placement is lower-inclusive at
        sketch resolution (a sample exactly on a boundary counts in the
        bucket above — the one documented deviation from strict ``le``
        semantics, bounded by the 12.5% slot width).
        """

        sketch = self._run_sketch
        help_text = (
            "End-to-end request latency (arrival to finish), milliseconds; "
            "buckets are the run sketch's log-bucket slot edges."
        )
        if sketch.count == 0:
            reg.histogram("repro_request_latency_ms", help_text, buckets=(1.0,))
            return
        boundaries: List[float] = []
        bucket_counts: List[int] = []
        if sketch.zeros:
            boundaries.append(0.0)
            bucket_counts.append(sketch.zeros)
        for slot, slot_count in sketch._occupied():
            boundaries.append(_slot_edges(slot)[1])
            bucket_counts.append(slot_count)
        hist = reg.histogram(
            "repro_request_latency_ms", help_text, buckets=tuple(boundaries)
        )
        hist.load(bucket_counts + [0], sketch.sum, sketch.count)

    def _fill_attribution_gauges(self, reg: MetricsRegistry, stats) -> None:
        """Per-tenant and per-replica gauges for offline attribution.

        ``repro.obs.analysis.analyze`` slices these out of the Prometheus
        dump — the per-entity detail already lives in the report, this
        just makes it reachable from the artifact alone.
        """

        tenant_latency = reg.gauge(
            "repro_tenant_latency_ms",
            "Per-tenant latency summary.",
            labels=("tenant", "stat"),
        )
        tenant_gauge = reg.gauge(
            "repro_tenant_slo_attainment",
            "Per-tenant SLO-met fraction of submitted traffic.",
            labels=("tenant",),
        )
        tenant_shed = reg.gauge(
            "repro_tenant_shed_rate",
            "Per-tenant shed fraction of submitted traffic.",
            labels=("tenant",),
        )
        tenant_goodput = reg.gauge(
            "repro_tenant_goodput_rps",
            "Per-tenant SLO-meeting completions per second.",
            labels=("tenant",),
        )
        for name in sorted(stats.tenants):
            tenant = stats.tenants[name]
            tenant_latency.set(tenant.p50_latency_ms, tenant=name, stat="p50")
            tenant_latency.set(tenant.p95_latency_ms, tenant=name, stat="p95")
            tenant_latency.set(tenant.p99_latency_ms, tenant=name, stat="p99")
            tenant_latency.set(tenant.mean_latency_ms, tenant=name, stat="mean")
            tenant_gauge.set(tenant.slo_attainment, tenant=name)
            tenant_shed.set(tenant.shed_rate, tenant=name)
            tenant_goodput.set(tenant.goodput_rps, tenant=name)

        replica_gauge = reg.gauge(
            "repro_replica_stats",
            "Per-replica service record (utilization, busy_ms, batches, requests).",
            labels=("replica", "label", "stat"),
        )
        for replica in stats.replicas:
            rid, label = str(replica.replica_id), replica.spec_label
            replica_gauge.set(replica.utilization, replica=rid, label=label, stat="utilization")
            replica_gauge.set(replica.busy_ms, replica=rid, label=label, stat="busy_ms")
            replica_gauge.set(replica.batches_served, replica=rid, label=label, stat="batches")
            replica_gauge.set(replica.requests_served, replica=rid, label=label, stat="requests")

    def _fill_alert_metrics(self, reg: MetricsRegistry) -> None:
        """Final alert state and transition totals from the evaluator."""

        firing = reg.gauge(
            "repro_alerts_firing",
            "Burn-rate alerts currently firing (1) or quiet (0), by rule.",
            labels=("alert",),
        )
        for name, is_firing in sorted(self.alerts.firing().items()):
            firing.set(1.0 if is_firing else 0.0, alert=name)
        transitions = reg.counter(
            "repro_alert_transitions_total",
            "Alert fire/resolve transitions over the run, by rule.",
            labels=("alert", "action"),
        )
        for name, (fires, resolves) in sorted(self.alerts.transition_counts().items()):
            if fires:
                transitions.inc(fires, alert=name, action="fire")
            if resolves:
                transitions.inc(resolves, alert=name, action="resolve")

    def _mttr_ms(self) -> float:
        """Mean-time-to-recovery from the closed goodput window series.

        Baseline = mean goodput over the windows that closed entirely
        before the first failure; recovery = the first window at or after
        the failure whose goodput reaches 90% of that baseline.  The
        result is that window's end minus the failure instant.  Pure
        function of the (already byte-identical) window series and
        failure instants, so both engines agree on it exactly.
        """
        first = self._first_failure_ms
        if first is None:
            return 0.0
        window_ms = self.windows.window_ms
        fail_idx = int(first / window_ms)
        series = self.windows.goodput_series
        baseline_values = [g for idx, g in series if idx < fail_idx]
        if not baseline_values:
            return -1.0
        baseline = sum(baseline_values) / len(baseline_values)
        if baseline <= 0.0:
            return 0.0  # nothing was being served — trivially recovered
        for idx, goodput in series:
            if idx >= fail_idx and goodput >= 0.9 * baseline:
                return (idx + 1) * window_ms - first
        return -1.0

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        return self.registry.render()

    def trace_json(self) -> str:
        combined = Tracer()
        combined.events = (
            self._trace_master + self.tracer.events + self._batch_span_events()
        )
        return combined.to_json()

    def window_lines(self) -> List[str]:
        return list(self.windows.lines)


class NullObserver:
    """A falsy no-op sink: every seam tests ``if obs:`` (or ``is not None``
    after normalisation), so passing this keeps the hot loop untouched."""

    def __bool__(self) -> bool:
        return False

    def __getattr__(self, name: str):
        def _noop(*args, **kwargs):
            return None

        return _noop
