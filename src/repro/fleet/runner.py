"""The scenario runner: one event loop over arrivals, ticks, and failures.

``run_scenario`` merges three event streams onto the shared simulated
clock — request arrivals from the scenario trace, autoscaler evaluation
ticks, and the failure plan's fail/recover points — processes them in
deterministic time order, drains the fleet, and aggregates a
:class:`FleetReport`.  Same seed, same inputs, byte-identical report.

Event ordering at equal timestamps is fixed (recover < gray-end < fail <
gray-start < arrival < retry < tick) so a replica recovering exactly when
a request arrives is routable for it, a gray window closing at a failure
instant clears the slowdown first, retries landing with an arrival yield
to it, and a tick sees the state *after* the traffic of its instant.
The relative order of the original kinds (recover < fail < arrival <
tick) is unchanged, so pre-chaos runs keep their exact bytes.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .autoscale import AutoscalePolicy, Autoscaler
from .chaos import SHED_CODE_OF_REASON, ChaosPlan, ResiliencePolicy
from .fleet import Fleet, FleetConfig, ReplicaSpec
from .metrics import FleetStats, build_fleet_stats_columns, build_replica_stats
from .scenarios import ColumnarTrace, FleetRequest, Scenario, builtin_scenarios

# event kinds, in same-timestamp processing order
_RECOVER, _GRAY_END, _FAIL, _GRAY_START, _ARRIVAL, _RETRY, _TICK = range(7)


def control_events(
    duration_ms: float,
    autoscale: Optional[AutoscalePolicy],
    failures: Sequence["FailureEvent"],
    first_seq: int,
    grays: Sequence = (),
) -> List[tuple]:
    """Ticks, failures, and gray windows as ``(time, kind, seq, payload)``.

    The single source of the non-arrival event stream, shared by the
    event-loop runner and the columnar engine so both see *identical*
    tick timestamps — the tick clock accumulates float additions, and
    regenerating it with multiplication instead would drift by an ulp
    and desynchronize the two engines.

    Args:
        duration_ms: Scaled scenario horizon (ticks stop at it).
        autoscale: The autoscaler policy, or ``None`` for no ticks.
        failures: Planned replica failures/recoveries.
        first_seq: Sequence number of the first generated event (the
            runner numbers arrivals first).
        grays: :class:`~repro.fleet.chaos.GrayWindow` straggler windows
            (a start event carries ``(replica_id, slowdown, end_ms)``, an
            end event carries the replica id).

    Returns:
        Event tuples in generation order (not time-sorted).
    """
    events: List[tuple] = []
    seq = first_seq
    if autoscale is not None:
        tick = autoscale.interval_ms
        while tick <= duration_ms:
            events.append((tick, _TICK, seq, None))
            seq += 1
            tick += autoscale.interval_ms
    for failure in failures:
        events.append((failure.fail_ms, _FAIL, seq, failure.replica_id))
        seq += 1
        if failure.recover_ms is not None:
            events.append((failure.recover_ms, _RECOVER, seq, failure.replica_id))
            seq += 1
    for gray in grays:
        events.append(
            (gray.start_ms, _GRAY_START, seq, (gray.replica_id, gray.slowdown, gray.end_ms))
        )
        seq += 1
        events.append((gray.end_ms, _GRAY_END, seq, gray.replica_id))
        seq += 1
    return events


@dataclass(frozen=True)
class FailureEvent:
    """One replica's planned fail-stop (and optional recovery)."""

    replica_id: int
    fail_ms: float
    recover_ms: Optional[float] = None

    def __post_init__(self):
        if self.replica_id < 0:
            raise ValueError(f"replica_id must be >= 0, got {self.replica_id}")
        if not math.isfinite(self.fail_ms) or self.fail_ms < 0:
            raise ValueError(f"fail_ms must be finite and >= 0, got {self.fail_ms}")
        if self.recover_ms is not None:
            if not math.isfinite(self.recover_ms):
                raise ValueError(f"recover_ms must be finite, got {self.recover_ms}")
            if self.recover_ms <= self.fail_ms:
                raise ValueError(
                    f"recover_ms ({self.recover_ms}) must come after "
                    f"fail_ms ({self.fail_ms})"
                )


@dataclass
class FleetReport:
    """One fleet run's full result: config echo plus aggregate stats."""

    scenario: str
    seed: int
    num_initial_replicas: int
    autoscaled: bool
    stats: FleetStats

    def render(self) -> str:
        """Deterministic human-readable report."""
        header = (
            f"scenario: {self.scenario}  (seed {self.seed}, "
            f"{self.num_initial_replicas} initial replica(s), "
            f"autoscale {'on' if self.autoscaled else 'off'})"
        )
        return header + "\n" + self.stats.render()

    def to_json(self) -> str:
        """Stable JSON (sorted keys) for files and byte-compare tests."""
        doc = {
            "scenario": self.scenario,
            "seed": self.seed,
            "num_initial_replicas": self.num_initial_replicas,
            "autoscaled": self.autoscaled,
            "stats": self.stats.to_dict(),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_scenario(
    scenario: Union[str, Scenario, ColumnarTrace, Sequence[FleetRequest]],
    model,
    tokenizer,
    specs: List[ReplicaSpec],
    fleet_config: FleetConfig = FleetConfig(),
    autoscale: Optional[AutoscalePolicy] = None,
    scale_spec: Optional[ReplicaSpec] = None,
    failures: Sequence[FailureEvent] = (),
    seed: int = 0,
    rate_scale: float = 1.0,
    duration_scale: float = 1.0,
    analytic: bool = False,
    obs=None,
    chaos: Optional[ChaosPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
) -> FleetReport:
    """Run one scenario through a fleet and aggregate the report.

    Args:
        scenario: A built-in scenario name, a :class:`Scenario`, or an
            already generated trace: a
            :class:`~repro.fleet.scenarios.ColumnarTrace` (which carries
            its own name, horizon and seed) or a sequence of
            :class:`FleetRequest`.
        model: Frozen integer model shared by every replica.
        tokenizer: Tokenizer shared by every replica.
        specs: Initial replica design points.
        fleet_config: Cluster policy (per-replica serving config, admission).
        autoscale: Enable the autoscaler with this policy (``None`` = fixed
            fleet).
        scale_spec: Design point for scale-up replicas (default: first spec).
        failures: Planned replica failures/recoveries.
        seed: Trace seed (ignored for a pre-built request sequence; a
            columnar trace's own seed replaces it).
        rate_scale: Rate multiplier passed to scenario generation.
        duration_scale: Duration multiplier passed to scenario generation.
        analytic: Force latency-only execution on every replica (see
            :class:`~repro.serve.ServingConfig`): batches are priced by the
            simulator schedule but model forwards are skipped, making the
            report byte-identical to executed mode at a fraction of the
            cost.  ``False`` leaves ``fleet_config.serving.analytic``
            as configured.
        obs: Optional :class:`repro.obs.FleetObserver`.  Attaching one
            never changes a report byte; it only taps the run for metrics,
            traces, and rolling windows, and is finalized against the
            report before returning.  ``None`` (or a falsy null sink)
            keeps the hot loop free of instrumentation.
        chaos: Optional :class:`~repro.fleet.chaos.ChaosPlan`.  Its
            fail-stop and zone-outage events are appended after any
            explicit ``failures``; its gray windows stretch the named
            replica's realized service times over ``[start, end)``.
        resilience: Optional :class:`~repro.fleet.chaos.ResiliencePolicy`
            (timeout fail-fast, circuit breaker, brownout ladder, retries
            with seeded backoff, hedging).  When given, the report gains
            a ``chaos`` stats section.  ``None`` means the default policy,
            every mechanism off, and keeps the report's historical bytes.

    Returns:
        The :class:`FleetReport` (deterministic for equal arguments).
    """
    obs = obs or None
    grays = ()
    if chaos is not None:
        failures = tuple(failures) + chaos.failure_events()
        grays = chaos.grays
    if analytic:
        fleet_config = replace(
            fleet_config, serving=replace(fleet_config.serving, analytic=True)
        )
    if isinstance(scenario, str):
        catalog = builtin_scenarios()
        if scenario not in catalog:
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from {sorted(catalog)}"
            )
        scenario = catalog[scenario]
    if isinstance(scenario, Scenario):
        name = scenario.name
        duration_ms = scenario.duration_ms * duration_scale
        trace = scenario.generate(
            seed=seed, rate_scale=rate_scale, duration_scale=duration_scale
        )
    elif isinstance(scenario, ColumnarTrace):
        name, duration_ms, seed = scenario.name, scenario.duration_ms, scenario.seed
        trace = scenario.materialize()
    else:
        trace = sorted(scenario, key=lambda r: r.arrival_ms)
        name = "custom-trace"
        duration_ms = trace[-1].arrival_ms if trace else 0.0

    fleet = Fleet(
        model, tokenizer, specs, fleet_config, obs=obs, resilience=resilience, seed=seed
    )
    if obs is not None and trace:
        # The whole trace is known before the loop starts, so arrival
        # windows are recorded in one bulk call instead of once per
        # submit.  Watermark-safe: recording early only makes records
        # available sooner than any flush that could close their window.
        obs.on_arrivals([request.arrival_ms for request in trace])
    autoscaler = (
        Autoscaler(fleet, autoscale, scale_spec=scale_spec, obs=obs)
        if autoscale
        else None
    )

    # ------------------------------------------------------------------
    # merge the event streams: (time, kind, seq, payload)
    # ------------------------------------------------------------------
    # Build the full event list and heapify once — O(N) instead of N
    # heappushes over the (already sorted) trace.  Identical pop order:
    # every (time, kind, seq) key is unique, so the heap's total order is
    # the same however it was built.
    events: List = []
    seq = 0
    for request in trace:
        events.append((request.arrival_ms, _ARRIVAL, seq, request))
        seq += 1
    control = control_events(
        duration_ms,
        autoscale if autoscaler is not None else None,
        failures,
        seq,
        grays=grays,
    )
    seq += len(control)  # retries are numbered after all static events
    events.extend(control)
    heapq.heapify(events)

    heappop = heapq.heappop
    heappush = heapq.heappush
    advance = fleet.advance
    submit = fleet.submit
    take_retries = fleet.take_retries
    while events:
        time_ms, kind, _, payload = heappop(events)
        advance(time_ms)
        if kind == _ARRIVAL:
            submit(payload)
        elif kind == _TICK:
            autoscaler.tick(time_ms)
        elif kind == _RETRY:
            fleet.retry_attempt(payload, time_ms)
        elif kind == _FAIL:
            fleet.fail_replica(payload, time_ms)
        elif kind == _GRAY_START:
            rid, slowdown, end_ms = payload
            fleet.set_slowdown(rid, slowdown)
            if obs is not None:
                obs.on_gray(rid, time_ms, end_ms, slowdown)
        elif kind == _GRAY_END:
            fleet.set_slowdown(payload, 1.0)
        else:  # _RECOVER
            fleet.recover_replica(payload, time_ms)
        # Failed admissions that scheduled a backoff retry re-enter the
        # event stream as first-class timed events, so retries race
        # arrivals/ticks/failures on the shared simulated clock.
        for retry_ms, record, request, attempt in take_retries():
            heappush(events, (retry_ms, _RETRY, seq, (record, request, attempt)))
            seq += 1
        if obs is not None and kind != _ARRIVAL:
            # Watermark-safe: fleet.advance(time_ms) already fired every
            # batching deadline <= time_ms, so no future record can land
            # at or before this instant — windows ending here are final.
            # Capped at the horizon: obs.finalize closes windows through
            # the report's duration and the last record only, so a control
            # event past the trace's end (a late fail or gray end) must
            # not close empty windows beyond them.
            obs.advance(min(time_ms, duration_ms))

    fleet.drain()
    records = fleet.collect()
    last_finish = max((r.finish_ms for r in records if r.completed), default=0.0)
    duration_ms = max(duration_ms, last_finish)
    # The records become the columns the columnar engine finalizes with,
    # tenants indexed in order of first submission.
    tenant_of: Dict[str, int] = {}
    tenant_idx = [tenant_of.setdefault(r.tenant, len(tenant_of)) for r in records]
    replica_rows = []
    for replica in sorted(fleet.replicas.values(), key=lambda r: r.replica_id):
        devices = replica.engine.router.devices
        replica_rows.append(build_replica_stats(
            replica.replica_id,
            replica.spec.label,
            replica.added_ms,
            replica.retired_ms,
            replica.failures,
            sum(d.busy_ms for d in devices),
            sum(d.batches_served for d in devices),
            sum(d.requests_served for d in devices),
            replica.downtime_ms,
            duration_ms,
        ))
    stats = build_fleet_stats_columns(
        duration_ms=duration_ms,
        tenant_names=list(tenant_of),
        tenant_idx=np.array(tenant_idx, dtype=np.int64),
        slo_ms=np.array([r.slo_ms for r in records], dtype=np.float64),
        arrival_ms=np.array([r.arrival_ms for r in records], dtype=np.float64),
        finish_ms=np.array([r.finish_ms for r in records], dtype=np.float64),
        shed_code=np.array(
            [SHED_CODE_OF_REASON[r.shed_reason] if r.shed else 0 for r in records],
            dtype=np.uint8,
        ),
        migrations=sum(r.migrations for r in records),
        replicas=replica_rows,
        scale_events=autoscaler.events if autoscaler else [],
        # The chaos section appears iff the caller opted into the chaos
        # layer (a plan or a policy) — plain runs keep their exact bytes.
        chaos=fleet.chaos if (chaos is not None or resilience is not None) else None,
    )
    report = FleetReport(
        scenario=name,
        seed=seed,
        num_initial_replicas=len(specs),
        autoscaled=autoscaler is not None,
        stats=stats,
    )
    if obs is not None:
        obs.finalize(report)
    return report
