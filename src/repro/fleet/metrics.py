"""Fleet-level metrics: per-tenant and per-replica views, goodput, sheds.

Every aggregate here is **empty-safe**: a trace where everything was shed
(or nothing arrived) summarizes to zeros instead of raising — degenerate
traces are legitimate outcomes of overload scenarios, and the report must
describe them, not crash on them.  All quantities come from the simulated
clock, so reports are byte-identical across runs of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..serve.metrics import latency_summary
from .autoscale import ScaleEvent
from .chaos import SHED_REASON_OF_CODE, ChaosStats


@dataclass
class TenantStats:
    """One tenant's slice of a fleet run."""

    tenant: str
    submitted: int
    completed: int
    shed: int
    slo_met: int
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    goodput_rps: float          # SLO-met completions per simulated second

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def slo_attainment(self) -> float:
        """SLO-met fraction of *submitted* traffic (sheds count against it)."""
        return self.slo_met / self.submitted if self.submitted else 1.0


@dataclass
class ReplicaStats:
    """One replica's service record over the run."""

    replica_id: int
    spec_label: str
    added_ms: float
    retired_ms: float           # < 0 when still live at the end
    failures: int
    busy_ms: float
    batches_served: int
    requests_served: int
    utilization: float          # busy fraction of its live time


@dataclass
class FleetStats:
    """Aggregate view of one fleet run (the runner's report payload)."""

    duration_ms: float
    submitted: int
    completed: int
    shed: int
    migrations: int
    slo_met: int
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    max_latency_ms: float
    throughput_rps: float       # completions per simulated second
    goodput_rps: float          # SLO-met completions per simulated second
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    replicas: List[ReplicaStats] = field(default_factory=list)
    scale_events: List[ScaleEvent] = field(default_factory=list)
    # Resilience counters; None unless a ResiliencePolicy was active, so
    # plain runs render/serialize their exact pre-chaos bytes.
    chaos: Optional[ChaosStats] = None

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def slo_attainment(self) -> float:
        return self.slo_met / self.submitted if self.submitted else 1.0

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Deterministic human-readable report (the loadtest CLI output)."""
        lines = [
            f"requests:       {self.submitted} submitted, {self.completed} "
            f"completed, {self.shed} shed ({self.shed_rate * 100:.1f}%)",
            f"migrations:     {self.migrations}",
            f"duration:       {self.duration_ms:.2f} ms (simulated)",
            f"throughput:     {self.throughput_rps:.2f} req/s",
            f"goodput:        {self.goodput_rps:.2f} req/s (SLO-met completions)",
            f"SLO attainment: {self.slo_attainment * 100:.1f}% of submitted",
            f"latency p50/p95/p99: {self.p50_latency_ms:.2f} / "
            f"{self.p95_latency_ms:.2f} / {self.p99_latency_ms:.2f} ms",
            f"latency mean/max:    {self.mean_latency_ms:.2f} / "
            f"{self.max_latency_ms:.2f} ms",
        ]
        for reason in sorted(self.shed_by_reason):
            lines.append(f"shed[{reason}]:  {self.shed_by_reason[reason]}")
        if self.chaos is not None:
            lines.extend(self.chaos.render())
        for name in sorted(self.tenants):
            t = self.tenants[name]
            lines.append(
                f"tenant {name}: {t.submitted} req, shed {t.shed_rate * 100:.1f}%, "
                f"p99 {t.p99_latency_ms:.2f} ms, goodput {t.goodput_rps:.2f} req/s, "
                f"SLO {t.slo_attainment * 100:.1f}%"
            )
        for r in self.replicas:
            state = "live" if r.retired_ms < 0 else f"retired@{r.retired_ms:.2f}"
            lines.append(
                f"replica {r.replica_id} [{r.spec_label}] {state}: "
                f"{r.requests_served} req in {r.batches_served} batches, "
                f"util {r.utilization * 100:.1f}%, failures {r.failures}"
            )
        for event in self.scale_events:
            lines.append(event.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-ready stable dict (sorted keys downstream)."""
        doc = self._base_dict()
        if self.chaos is not None:
            doc["chaos"] = self.chaos.to_dict()
        return doc

    def _base_dict(self) -> Dict:
        return {
            "duration_ms": self.duration_ms,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "migrations": self.migrations,
            "slo_met": self.slo_met,
            "slo_attainment": self.slo_attainment,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "mean_latency_ms": self.mean_latency_ms,
            "max_latency_ms": self.max_latency_ms,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "tenants": {
                name: {
                    "submitted": t.submitted,
                    "completed": t.completed,
                    "shed": t.shed,
                    "shed_rate": t.shed_rate,
                    "slo_met": t.slo_met,
                    "slo_attainment": t.slo_attainment,
                    "p50_latency_ms": t.p50_latency_ms,
                    "p95_latency_ms": t.p95_latency_ms,
                    "p99_latency_ms": t.p99_latency_ms,
                    "mean_latency_ms": t.mean_latency_ms,
                    "goodput_rps": t.goodput_rps,
                }
                for name, t in sorted(self.tenants.items())
            },
            "replicas": [
                {
                    "replica_id": r.replica_id,
                    "spec": r.spec_label,
                    "added_ms": r.added_ms,
                    "retired_ms": r.retired_ms,
                    "failures": r.failures,
                    "busy_ms": r.busy_ms,
                    "batches_served": r.batches_served,
                    "requests_served": r.requests_served,
                    "utilization": r.utilization,
                }
                for r in self.replicas
            ],
            "scale_events": [
                {
                    "time_ms": e.time_ms,
                    "action": e.action,
                    "reason": e.reason,
                    "replicas_after": e.replicas_after,
                }
                for e in self.scale_events
            ],
        }


def build_replica_stats(
    replica_id: int,
    spec_label: str,
    added_ms: float,
    retired_ms: Optional[float],
    failures: int,
    busy_ms: float,
    batches_served: int,
    requests_served: int,
    downtime_ms: float,
    duration_ms: float,
) -> ReplicaStats:
    """One :class:`ReplicaStats` row from scalar counters.

    Both engines build their rows here: the event loop from its live
    ``Replica`` objects, the columnar engine from the counters in its
    shard state, so the rows agree bit for bit.
    """
    end = retired_ms if retired_ms is not None else duration_ms
    # Failure downtime is not live time — a replica down for a third of
    # the run should not have its utilization diluted by the outage.
    lifetime = max(0.0, end - added_ms - downtime_ms)
    return ReplicaStats(
        replica_id=replica_id,
        spec_label=spec_label,
        added_ms=added_ms,
        retired_ms=retired_ms if retired_ms is not None else -1.0,
        failures=failures,
        busy_ms=busy_ms,
        batches_served=batches_served,
        requests_served=requests_served,
        utilization=min(1.0, busy_ms / lifetime) if lifetime > 0 else 0.0,
    )


def build_fleet_stats_columns(
    *,
    duration_ms: float,
    tenant_names: Sequence[str],
    tenant_idx: np.ndarray,
    slo_ms: np.ndarray,
    arrival_ms: np.ndarray,
    finish_ms: np.ndarray,
    shed_code: np.ndarray,
    migrations: int,
    replicas: List[ReplicaStats],
    scale_events: List[ScaleEvent],
    chaos: Optional[ChaosStats] = None,
) -> FleetStats:
    """Aggregate a finished fleet run, from per-request columns.

    The one fleet stats builder: the event loop and the columnar engine
    both hand it their requests as columns.  One row per submitted
    request, in submission order: ``shed_code == 0`` means completed
    (then ``finish_ms`` holds the completion time); non-zero codes map to
    shed reasons via :data:`~repro.fleet.chaos.SHED_REASON_OF_CODE`.
    Latency is ``finish - arrival``, the subtraction ``Fleet.collect``
    performs; per-tenant slices keep submission order (boolean masks are
    order-preserving), and every latency block is
    :func:`~repro.serve.metrics.latency_summary`.

    Args:
        duration_ms: Denominator for throughput/goodput — the scenario
            duration or the last completion, whichever is later.
        tenant_names: Tenant name per tenant index (declaration order).
        tenant_idx: Tenant index column, int per request.
        slo_ms: Per-request SLO column (float64).
        arrival_ms: Per-request arrival column (float64).
        finish_ms: Per-request completion time; only read where completed.
        shed_code: Per-request shed code (0 = completed).
        migrations: Total successful queue migrations.
        replicas: Prebuilt :class:`ReplicaStats` rows, id order.
        scale_events: The autoscaler's audit trail (empty if disabled).
        chaos: Resilience counters when a policy was active, else ``None``
            (the report then keeps its pre-chaos bytes).

    Returns:
        The empty-safe :class:`FleetStats`.
    """
    submitted = int(arrival_ms.shape[0])
    completed_mask = shed_code == 0
    num_completed = int(completed_mask.sum())
    num_shed = submitted - num_completed
    # finish - arrival is garbage on shed rows, but shed rows are never
    # selected.
    latency = finish_ms - arrival_ms
    all_lat = latency[completed_mask]
    slo_met = int((all_lat <= slo_ms[completed_mask]).sum())
    overall = latency_summary(all_lat)
    seconds = duration_ms / 1000.0 if duration_ms > 0 else 0.0

    shed_by_reason: Dict[str, int] = {}
    if num_shed:
        counts = np.bincount(shed_code)
        for code in range(1, counts.shape[0]):
            if counts[code]:
                shed_by_reason[SHED_REASON_OF_CODE[code]] = int(counts[code])

    if not submitted:
        present = np.zeros(len(tenant_names), dtype=np.int64)
    elif len(tenant_names) == 1:
        # One declared tenant: every request is its (skip the 100M bincount).
        present = np.array([submitted], dtype=np.int64)
    else:
        present = np.bincount(tenant_idx, minlength=len(tenant_names))
    tenants: Dict[str, TenantStats] = {}
    order = sorted(
        (name, tid) for tid, name in enumerate(tenant_names) if present[tid]
    )
    single_tenant = len(order) == 1 and int(present.sum()) == submitted
    for name, tid in order:
        if single_tenant:
            # One tenant owning every request: its slices are the overall
            # columns, so reuse the reductions instead of repeating a
            # 100M-row mask + sort (identical arrays, identical bytes).
            t_lat = all_lat
            t_block = overall
            t_slo_met = slo_met
            t_submitted, t_completed = submitted, num_completed
        else:
            t_mask = tenant_idx == tid
            t_comp = t_mask & completed_mask
            t_lat = latency[t_comp]
            t_block = latency_summary(t_lat)
            t_slo_met = int((t_lat <= slo_ms[t_comp]).sum())
            t_submitted = int(t_mask.sum())
            t_completed = int(t_comp.sum())
        tenants[name] = TenantStats(
            tenant=name,
            submitted=t_submitted,
            completed=t_completed,
            shed=t_submitted - t_completed,
            slo_met=t_slo_met,
            p50_latency_ms=t_block["p50"],
            p95_latency_ms=t_block["p95"],
            p99_latency_ms=t_block["p99"],
            mean_latency_ms=t_block["mean"],
            goodput_rps=t_slo_met / seconds if seconds else 0.0,
        )

    return FleetStats(
        duration_ms=duration_ms,
        submitted=submitted,
        completed=num_completed,
        shed=num_shed,
        migrations=migrations,
        slo_met=slo_met,
        p50_latency_ms=overall["p50"],
        p95_latency_ms=overall["p95"],
        p99_latency_ms=overall["p99"],
        mean_latency_ms=overall["mean"],
        max_latency_ms=overall["max"],
        throughput_rps=num_completed / seconds if seconds else 0.0,
        goodput_rps=slo_met / seconds if seconds else 0.0,
        shed_by_reason=shed_by_reason,
        tenants=tenants,
        replicas=list(replicas),
        scale_events=list(scale_events),
        chaos=chaos,
    )
