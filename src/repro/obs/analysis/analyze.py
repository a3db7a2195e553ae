"""Offline analysis of one run's observability artifacts.

The emission side (PR 8) writes three deterministic artifacts — a
Prometheus dump, a windows JSONL stream, and a Chrome trace.  This module
reads them back and answers the operator questions: where did the latency
go (per tenant, per replica, per critical-path phase), and what do the
worst requests' timelines look like.

Everything is a pure function of the artifact bytes: the loaders parse,
the analyzers fold in canonical order (trace events are already exported
in a total order; Prometheus samples sort by name), and the report
renderer formats floats with fixed precision — so the same artifacts
always produce the same report bytes, which is what lets CI byte-diff
``repro.cli obs report`` across reruns.

Critical-path phases come from the batch spans' worst-request
decomposition (see ``FleetObserver.on_batch``): ``retry-hedge``
(arrival to final enqueue), ``batch-wait`` (enqueue to the batch's last
enqueue), ``queue-wait`` (last enqueue to dispatch), and ``service``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..registry import parse_prometheus
from .alerts import AlertEvaluator, replay_windows

__all__ = [
    "RunArtifacts",
    "ReplicaPhases",
    "CriticalPath",
    "PHASES",
    "replica_phases",
    "critical_paths",
    "tenant_table",
    "render_report",
]

#: Critical-path phase names, in causal order.
PHASES: Tuple[str, ...] = ("retry-hedge", "batch-wait", "queue-wait", "service")

_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_THREAD_RE = re.compile(r"replica-\d+ \[(.*)\]$")


def _spec_label(thread_name: str) -> str:
    """Spec label out of an observer thread name (``replica-0 [weak]``)."""
    match = _THREAD_RE.match(thread_name)
    return match.group(1) if match else thread_name


def _sample_labels(sample_key: str) -> Dict[str, str]:
    """Label dict of one parsed-prometheus sample key."""
    brace = sample_key.find("{")
    if brace < 0:
        return {}
    return dict(_LABEL_RE.findall(sample_key[brace:]))


@dataclass
class RunArtifacts:
    """One run's parsed observability artifacts (any subset may be absent).

    Attributes:
        prom: ``parse_prometheus`` families, or None.
        windows: Parsed windows-JSONL documents in stream order, or None.
        trace: Chrome ``traceEvents`` list, or None.
    """

    prom: Optional[Dict[str, Dict[str, float]]] = None
    windows: Optional[List[dict]] = None
    trace: Optional[List[dict]] = None

    @classmethod
    def from_strings(
        cls,
        prom_text: Optional[str] = None,
        windows_text: Optional[str] = None,
        trace_text: Optional[str] = None,
    ) -> "RunArtifacts":
        """Parse artifact contents already held in memory."""
        return cls(
            prom=parse_prometheus(prom_text) if prom_text is not None else None,
            windows=(
                [json.loads(line) for line in windows_text.splitlines() if line.strip()]
                if windows_text is not None
                else None
            ),
            trace=(
                json.loads(trace_text)["traceEvents"]
                if trace_text is not None
                else None
            ),
        )

    @classmethod
    def load(
        cls,
        prom_path: Optional[str] = None,
        windows_path: Optional[str] = None,
        trace_path: Optional[str] = None,
    ) -> "RunArtifacts":
        """Read artifact files from disk (each path optional)."""

        def read(path: Optional[str]) -> Optional[str]:
            if path is None:
                return None
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()

        return cls.from_strings(read(prom_path), read(windows_path), read(trace_path))

    # -------------------------------------------------------------- prom
    def gauge(self, family: str, **labels: str) -> Optional[float]:
        """One sample's value, or None when the family/sample is absent."""
        if self.prom is None:
            return None
        samples = self.prom.get(family)
        if not samples:
            return None
        for key, value in samples.items():
            if _sample_labels(key) == labels:
                return value
        return None

    def alert_replay(self) -> Optional[AlertEvaluator]:
        """Replay the default burn-rate policy over the windows stream."""
        if self.windows is None:
            return None
        return replay_windows(self.windows)


@dataclass
class ReplicaPhases:
    """Aggregated critical-path phases for one replica's batch spans."""

    replica: int
    label: str = ""
    batches: int = 0
    totals: Dict[str, float] = field(default_factory=lambda: {p: 0.0 for p in PHASES})

    def mean_ms(self, phase: str) -> float:
        """Mean milliseconds per batch spent in ``phase``."""
        return self.totals[phase] / self.batches if self.batches else 0.0


def replica_phases(trace: List[dict]) -> Dict[int, ReplicaPhases]:
    """Fold batch spans into per-replica phase totals.

    Trace export is canonically ordered, so the float accumulation here is
    a pure function of the artifact — two byte-identical traces fold to
    identical totals.
    """
    phases: Dict[int, ReplicaPhases] = {}
    labels: Dict[int, str] = {}
    for event in trace:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            labels[int(event["tid"])] = str(event.get("args", {}).get("name", ""))
        elif event.get("ph") == "X" and event.get("name") == "batch":
            tid = int(event["tid"])
            entry = phases.get(tid)
            if entry is None:
                entry = phases[tid] = ReplicaPhases(replica=tid)
            args = event.get("args", {})
            entry.batches += 1
            entry.totals["service"] += float(event.get("dur", 0.0)) / 1000.0
            entry.totals["retry-hedge"] += float(args.get("wr", 0.0))
            entry.totals["batch-wait"] += float(args.get("wb", 0.0))
            entry.totals["queue-wait"] += float(args.get("wq", 0.0))
    for tid, entry in phases.items():
        entry.label = _spec_label(labels.get(tid, f"replica-{tid}"))
    return phases


@dataclass
class CriticalPath:
    """The worst request of one batch, decomposed phase by phase."""

    latency_ms: float
    replica: int
    label: str
    start_ms: float
    bucket: int
    size: int
    phases: List[Tuple[str, float]]


def critical_paths(trace: List[dict], top: int = 5) -> List[CriticalPath]:
    """The ``top`` worst batch-span worst-requests, phase-decomposed.

    Sorted by descending worst-request latency with a deterministic
    timestamp/replica tiebreak, so equal artifacts rank identically.
    """
    labels: Dict[int, str] = {}
    spans: List[tuple] = []
    for event in trace:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            labels[int(event["tid"])] = str(event.get("args", {}).get("name", ""))
        elif event.get("ph") == "X" and event.get("name") == "batch":
            args = event.get("args", {})
            if "wl" not in args:
                continue  # pre-analysis trace without the decomposition
            spans.append((
                -float(args["wl"]),
                float(event.get("ts", 0.0)),
                int(event["tid"]),
                event,
            ))
    spans.sort(key=lambda item: item[:3])
    paths: List[CriticalPath] = []
    for neg_wl, ts, tid, event in spans[: max(0, top)]:
        args = event["args"]
        paths.append(
            CriticalPath(
                latency_ms=-neg_wl,
                replica=tid,
                label=_spec_label(labels.get(tid, f"replica-{tid}")),
                start_ms=ts / 1000.0,
                bucket=int(args.get("bucket", 0)),
                size=int(args.get("size", 0)),
                phases=[
                    ("retry-hedge", float(args.get("wr", 0.0))),
                    ("batch-wait", float(args.get("wb", 0.0))),
                    ("queue-wait", float(args.get("wq", 0.0))),
                    ("service", float(event.get("dur", 0.0)) / 1000.0),
                ],
            )
        )
    return paths


def tenant_table(prom: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per-tenant attribution slice of a Prometheus dump.

    Returns ``{tenant: {"p50"|"p95"|"p99"|"mean"|"slo_attainment"|
    "shed_rate"|"goodput_rps": value}}``.
    """
    tenants: Dict[str, Dict[str, float]] = {}
    for key, value in prom.get("repro_tenant_latency_ms", {}).items():
        labels = _sample_labels(key)
        tenants.setdefault(labels["tenant"], {})[labels["stat"]] = value
    for family, stat in (
        ("repro_tenant_slo_attainment", "slo_attainment"),
        ("repro_tenant_shed_rate", "shed_rate"),
        ("repro_tenant_goodput_rps", "goodput_rps"),
    ):
        for key, value in prom.get(family, {}).items():
            labels = _sample_labels(key)
            tenants.setdefault(labels["tenant"], {})[stat] = value
    return tenants


def _fmt(value: float) -> str:
    """Fixed-precision float formatting (pure function of the double)."""
    return f"{value:.3f}"


def render_report(artifacts: RunArtifacts, top: int = 5) -> str:
    """Deterministic human-readable report over whichever artifacts exist.

    This is the payload of ``repro.cli obs report`` — CI reruns a seeded
    loadtest and byte-diffs two of these.
    """
    lines: List[str] = []
    prom = artifacts.prom
    if prom is not None:
        lines.append("== overview ==")
        for family, label in (
            ("repro_duration_ms", "duration_ms"),
            ("repro_requests_total", "submitted"),
            ("repro_requests_completed_total", "completed"),
            ("repro_slo_attainment", "slo_attainment"),
            ("repro_shed_rate", "shed_rate"),
            ("repro_throughput_rps", "throughput_rps"),
            ("repro_goodput_rps", "goodput_rps"),
        ):
            value = artifacts.gauge(family)
            if value is not None:
                lines.append(f"{label} {_fmt(value)}")
        latency = prom.get("repro_latency_ms", {})
        if latency:
            stats = {
                _sample_labels(k)["stat"]: v for k, v in latency.items()
            }
            lines.append(
                "latency_ms p50 {} p95 {} p99 {} mean {} max {}".format(
                    *(_fmt(stats.get(s, 0.0)) for s in ("p50", "p95", "p99", "mean", "max"))
                )
            )
        tenants = tenant_table(prom)
        if tenants:
            lines.append("")
            lines.append("== tenants ==")
            for name in sorted(tenants):
                row = tenants[name]
                lines.append(
                    f"tenant {name}: p99 {_fmt(row.get('p99', 0.0))} ms, "
                    f"slo {_fmt(row.get('slo_attainment', 0.0))}, "
                    f"shed {_fmt(row.get('shed_rate', 0.0))}, "
                    f"goodput {_fmt(row.get('goodput_rps', 0.0))}/s"
                )
    if artifacts.windows is not None:
        evaluator = artifacts.alert_replay()
        lines.append("")
        lines.append("== alerts (replayed over windows) ==")
        lines.append(f"windows {len(artifacts.windows)}")
        if evaluator.transitions:
            for t_ms, name, action in evaluator.transitions:
                lines.append(f"t={_fmt(t_ms)}ms {action} {name}")
        else:
            lines.append("no transitions")
        firing = sorted(n for n, f in evaluator.firing().items() if f)
        lines.append(
            "firing at end: " + (", ".join(firing) if firing else "none")
        )
    if artifacts.trace is not None:
        phases = replica_phases(artifacts.trace)
        if phases:
            lines.append("")
            lines.append("== replica phases (ms/batch) ==")
            for tid in sorted(phases):
                entry = phases[tid]
                detail = ", ".join(
                    f"{phase} {_fmt(entry.mean_ms(phase))}" for phase in PHASES
                )
                lines.append(
                    f"replica {tid} [{entry.label}] {entry.batches} batches: {detail}"
                )
        paths = critical_paths(artifacts.trace, top=top)
        if paths:
            lines.append("")
            lines.append("== critical paths (worst requests) ==")
            for rank, path in enumerate(paths, start=1):
                steps = " -> ".join(f"{phase} {_fmt(ms)}" for phase, ms in path.phases)
                lines.append(
                    f"{rank}. {_fmt(path.latency_ms)} ms on replica "
                    f"{path.replica} [{path.label}] @ t={_fmt(path.start_ms)}ms "
                    f"(bucket {path.bucket}, size {path.size}): {steps}"
                )
    return "\n".join(lines) + "\n"
