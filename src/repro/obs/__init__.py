"""Deterministic observability over the simulated clock.

Everything the serving stack reports today is a post-hoc summary; this
package adds the *during-the-run* view — and because it rides the
deterministic simulated clock instead of wall time, the telemetry itself
is bit-reproducible: same seed, byte-identical Prometheus dump, window
JSONL, and Chrome trace.

- :mod:`registry` — counters, gauges, fixed-bucket histograms, rendered
  in the Prometheus text exposition format
- :mod:`tracing` — structured spans/instants/counter tracks on simulated
  milliseconds, exported as Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto)
- :mod:`windows` — rolling-window JSONL streams: windowed p99, goodput,
  shed rate, queue depth, autoscaler and failure events
- :mod:`observer` — :class:`FleetObserver`, the sink threaded through the
  engines' instrumentation seams
- :mod:`analysis` — the reading side: burn-rate SLO alerting evaluated
  inside the run, mergeable quantile sketches, critical-path and
  run-diff attribution over the emitted artifacts

Surfaced via ``repro.cli loadtest --metrics-out/--trace-out/--windows``,
the ``repro.cli metrics`` renderer, and the ``repro.cli obs`` analysis
subcommands.
"""

from .analysis import (
    AlertEvaluator,
    BurnRateRule,
    QuantileSketch,
    RunArtifacts,
    default_policy,
    diff_runs,
    render_diff,
    render_report,
)
from .observer import FleetObserver, NullObserver
from .registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from .tracing import Tracer
from .windows import WindowTracker

__all__ = [
    "AlertEvaluator",
    "BurnRateRule",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "FleetObserver",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullObserver",
    "QuantileSketch",
    "RunArtifacts",
    "Tracer",
    "WindowTracker",
    "default_policy",
    "diff_runs",
    "parse_prometheus",
    "render_diff",
    "render_report",
]
