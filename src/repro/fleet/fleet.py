"""The fleet: N serving replicas behind SLO-aware routing and admission.

A :class:`Fleet` owns a set of :class:`Replica` objects — each one a full
:class:`~repro.serve.ServingEngine` over its own simulated accelerator —
and places every arriving :class:`~repro.fleet.scenarios.FleetRequest` on
the replica projected to finish it soonest.  Replicas may be heterogeneous:
each :class:`ReplicaSpec` names its own ``(AcceleratorConfig, FpgaDevice)``
design point, so a ZCU102 (8, 16) can serve next to a ZCU111 (16, 16) and
the router's projections price each accordingly.

Three cluster behaviors the single-node engine cannot express:

- **Admission control / load shedding.**  Before accepting a request the
  fleet projects its completion latency on the best replica (device
  backlog + queued batches x the simulator's batch service time).  If even
  the best projection exceeds ``admit_slo_factor`` x the tenant's SLO, the
  request is *shed* — a fast, explicit rejection instead of a doomed queue
  entry, the standard overload posture of production serving systems.

- **Failure injection + drain/recovery.**  ``fail_replica`` fail-stops a
  replica on the simulated clock: its queued-but-unflushed requests are
  evicted and *migrate* to the surviving replicas (batches already
  dispatched to the accelerator complete — the failure model is node-level
  drain/failover, so no accepted request is ever lost while a live replica
  remains).  ``recover_replica`` brings it back after a cold start.

- **Elastic capacity.**  ``add_replica`` / ``remove_replica`` grow and
  shrink the fleet mid-trace (the autoscaler's levers).  A new replica
  pays a cold-start penalty derived from the simulator's own schedule —
  ``cold_start_batches`` full-size batch times, modeling bitstream/weight
  load plus warm-up — before its first batch can start.

Everything runs on the shared simulated clock, so a fleet run is exactly
reproducible: same trace, same decisions, same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..accel.config import AcceleratorConfig
from ..accel.devices import FpgaDevice, ZCU102
from ..serve.engine import ServingConfig, ServingEngine
from .chaos import (
    BREAKER_OPEN,
    SHED_BREAKER,
    SHED_TIMEOUT,
    BrownoutLadder,
    ChaosStats,
    CircuitBreaker,
    ResiliencePolicy,
    RetryBudget,
    backoff_delay_ms,
)
from .scenarios import FleetRequest

SHED_OVERLOAD = "overload"          # projected latency beyond the admit bound
SHED_NO_CAPACITY = "no-capacity"    # no live replica at all


def reference_bucket(buckets: Tuple[int, ...]) -> int:
    """The bucket admission projections price an incoming request at.

    The middle bucket (a representative queued batch shape).  Shared by
    the event-loop fleet and the columnar engine so the admission rule
    cannot drift between them.
    """
    return buckets[len(buckets) // 2]


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica's design point (the heterogeneous-fleet unit)."""

    accel_config: AcceleratorConfig = AcceleratorConfig()
    device: FpgaDevice = ZCU102
    name: str = ""

    @property
    def label(self) -> str:
        """Human-readable design-point label (used in reports)."""
        if self.name:
            return self.name
        return (
            f"{self.device.name}/H{self.accel_config.num_pus}"
            f"N{self.accel_config.num_pes}M{self.accel_config.num_multipliers}"
        )


@dataclass(frozen=True)
class FleetConfig:
    """Cluster-level policy: per-replica serving config plus admission."""

    serving: ServingConfig = ServingConfig(num_devices=1)
    admit_slo_factor: float = 2.0   # shed if projected > factor * tenant SLO
    cold_start_batches: int = 2     # warm-up passes making up the cold start

    def __post_init__(self):
        if self.serving.num_devices != 1:
            raise ValueError(
                "fleet replicas are single-device engines; scale with "
                "replicas, not num_devices"
            )
        if self.admit_slo_factor <= 0:
            raise ValueError(f"admit_slo_factor must be > 0, got {self.admit_slo_factor}")
        if self.cold_start_batches < 0:
            raise ValueError(f"cold_start_batches must be >= 0, got {self.cold_start_batches}")


@dataclass
class Replica:
    """One serving engine plus its fleet-level lifecycle state."""

    replica_id: int
    spec: ReplicaSpec
    engine: ServingEngine
    added_ms: float
    live: bool = True
    retired_ms: Optional[float] = None
    failures: int = 0
    # True while down *because of a fail-stop* (vs. scaled away) — the
    # recover_replica guard, so recovery never resurrects capacity the
    # autoscaler deliberately removed.
    failed: bool = False
    downtime_ms: float = 0.0   # cumulative failed time (excluded from live time)
    # engine request id -> fleet record, for failover remapping and the
    # observability hook (the object itself, so per-completion telemetry
    # skips an index hop through Fleet.records)
    record_of: Dict[int, "RequestRecord"] = field(default_factory=dict)
    # bucket -> full-size-batch service ms on this design point (admission
    # pricing; filled from the fleet-wide design-point cache at attach time)
    bucket_price: Dict[int, float] = field(default_factory=dict)
    # per-replica straggle detector; None unless the resilience policy
    # enables the circuit breaker
    breaker: Optional[CircuitBreaker] = None


@dataclass
class RequestRecord:
    """Fleet-level accounting for one submitted request.

    Latency is measured from the *original* fleet arrival — a migrated
    request keeps its first arrival time, so failover never hides queueing
    delay.
    """

    index: int
    tenant: str
    slo_ms: float
    arrival_ms: float
    shed: bool = False
    shed_reason: str = ""
    replica_id: int = -1
    migrations: int = 0
    # filled by Fleet.collect() after the trace drains:
    finish_ms: float = 0.0
    latency_ms: float = 0.0
    slo_met: bool = False
    completed: bool = False


class Fleet:
    """N serving replicas, one shared simulated clock, SLO-aware routing."""

    def __init__(
        self,
        model,
        tokenizer,
        specs: List[ReplicaSpec],
        config: FleetConfig = FleetConfig(),
        obs=None,
        resilience: Optional[ResiliencePolicy] = None,
        seed: int = 0,
    ):
        """Args:
            model: The frozen integer model every replica serves (shared —
                engines never mutate it, and sharing amortizes its cached
                weight plans across the fleet).
            tokenizer: Tokenizer shared by every replica's engine.
            specs: Initial replica design points (at least one).
            config: Cluster policy.
            obs: Optional :class:`repro.obs.FleetObserver`; ``None`` (or a
                falsy null sink) keeps every seam off the hot path.
            resilience: Optional :class:`~repro.fleet.chaos.ResiliencePolicy`
                for the admission path (:meth:`submit`).  ``None`` means the
                default policy: every mechanism off, and no resilience seam
                on the batch hook.
            seed: Run seed — only consumed by the deterministic retry
                backoff hash, never by request routing.

        Raises:
            ValueError: If ``specs`` is empty.
        """
        if not specs:
            raise ValueError("a fleet needs at least one initial replica")
        self.model = model
        self.tokenizer = tokenizer
        self.config = config
        self.obs = obs or None
        self.resilience = resilience = resilience or ResiliencePolicy()
        self.seed = seed
        # Resilience counters (the report's chaos section; attached by the
        # driver only for chaos-aware runs).
        self.chaos = ChaosStats()
        self._budget = RetryBudget.from_policy(resilience)
        self._brownout = (
            BrownoutLadder.from_policy(resilience) if resilience.brownout else None
        )
        # Backoff retries scheduled since the driver last drained them:
        # (due_ms, record, request, next_attempt).  The fleet cannot see
        # the event heap, so the runner re-enqueues these as timed events.
        self._retry_out: List[tuple] = []
        # Hedged pairs: (replica_id, engine_request_id) -> its twin's key,
        # both directions, plus the set of primary keys (for hedge_wins).
        self._hedge_twin: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._hedge_primary: set = set()
        self.replicas: Dict[int, Replica] = {}
        self.records: List[RequestRecord] = []
        self.now_ms = 0.0
        self.migrations = 0
        # Tightest SLO among accepted requests so far — the autoscaler's
        # p99 floor, maintained incrementally so ticks stay O(replicas).
        self.min_accepted_slo_ms: Optional[float] = None
        self._next_replica_id = 0
        # The reference shape admission projections are priced at (see
        # module-level reference_bucket).
        self._ref_bucket = reference_bucket(config.serving.buckets)
        # Full-size-batch service ms per (design point, bucket), shared by
        # every replica of that design point: admission pricing is then
        # plain dict lookups, and a scale-up replica of a known design
        # point costs zero extra simulator calls.
        self._price_cache: Dict[Tuple[AcceleratorConfig, FpgaDevice, int], float] = {}
        # Live replicas in id order, maintained across lifecycle events so
        # the per-request routing path never re-sorts the replica map.
        self._live: List[Replica] = []
        for spec in specs:
            self.add_replica(spec, now_ms=0.0, cold=False)

    # ------------------------------------------------------------------
    # replica lifecycle
    # ------------------------------------------------------------------
    def add_replica(self, spec: ReplicaSpec, now_ms: float, cold: bool = True) -> Replica:
        """Attach a new replica, optionally behind a cold-start window.

        Args:
            spec: The replica's design point.
            now_ms: Simulated attach time.
            cold: Apply the cold-start penalty (initial replicas at t=0
                are assumed pre-warmed).

        Returns:
            The new :class:`Replica` (already routable; a cold replica is
            simply projected as busy until its warm-up completes).
        """
        engine = ServingEngine(
            self.model,
            self.tokenizer,
            self.config.serving,
            accel_config=spec.accel_config,
            device=spec.device,
        )
        engine.advance(now_ms)
        replica = Replica(
            replica_id=self._next_replica_id,
            spec=spec,
            engine=engine,
            added_ms=now_ms,
        )
        self._next_replica_id += 1
        policy = self.config.serving
        for bucket in policy.buckets:
            key = (spec.accel_config, spec.device, bucket)
            price = self._price_cache.get(key)
            if price is None:
                price = self._price_cache[key] = engine.router.estimate_latency_ms(
                    bucket, policy.max_batch_size
                )
            replica.bucket_price[bucket] = price
        cold_ms = self.cold_start_ms(replica) if cold else 0.0
        if cold:
            engine.router.block_until(now_ms + cold_ms)
        if self.resilience.breaker:
            replica.breaker = CircuitBreaker.from_policy(self.resilience)
        self.replicas[replica.replica_id] = replica
        self._rebuild_live()
        if self.obs is not None:
            self.obs.on_replica(replica.replica_id, spec.label, now_ms, cold_ms)
        if self.obs is not None or replica.breaker is not None or self.resilience.hedge:
            self._install_batch_hook(replica)
        return replica

    def _install_batch_hook(self, replica: Replica) -> None:
        """Wire the engine's batch seam to its fleet-level consumers.

        Up to three consumers share the one seam, in fixed order:

        1. The observer — translates engine-local batch results into
           fleet-level telemetry: latency against the *original* arrival
           in the fleet record (a migrated request keeps its true
           arrival), SLO against the record's own bound — exactly the
           numbers the report is built from.  This block is byte-for-byte
           the pre-chaos hook.
        2. The replica's circuit breaker — scores realized service
           against the nominal (memoized) simulator price, so a gray
           window's stretched batches register as straggles.
        3. The hedging layer — the first copy of a hedged request to
           execute cancels its still-queued twin (replicas advance
           sequentially on the shared clock, so the twin is always still
           cancellable).

        Installed only when at least one consumer is active; plain runs
        keep the seam entirely off the hot path.
        """
        obs = self.obs
        on_batch = obs.on_batch if obs is not None else None
        on_completions = obs.on_completions if obs is not None else None
        record_of = replica.record_of
        rid = replica.replica_id
        breaker = replica.breaker
        estimate = replica.engine.router.estimate_latency_ms
        policy = self.resilience
        hedging = policy.hedge
        straggle_factor = policy.breaker_straggle_factor
        chaos = self.chaos

        def hook(requests, dispatch, bucket, size):
            if on_batch is not None:
                finish = dispatch.finish_ms
                latencies = []
                append = latencies.append
                met = 0
                # Worst request = earliest fleet arrival (ties: earliest
                # enqueue) — a pure multiset min, so both engines pick the
                # same request regardless of iteration order.  Its phase
                # decomposition rides the batch span for the critical-path
                # analyzer: wl = wr (retry/hedge) + wb (batch formation) +
                # wq (queue wait) + service, up to float rounding.
                worst_arr = worst_enq = float("inf")
                last_enq = float("-inf")
                for request in requests:
                    record = record_of[request.request_id]
                    arr = record.arrival_ms
                    latency = finish - arr
                    append(latency)
                    if latency <= record.slo_ms:
                        met += 1
                    enq = request.arrival_ms
                    if arr < worst_arr or (arr == worst_arr and enq < worst_enq):
                        worst_arr = arr
                        worst_enq = enq
                    if enq > last_enq:
                        last_enq = enq
                start = dispatch.start_ms
                on_batch((
                    rid, bucket, size, start, dispatch.service_ms,
                    finish - worst_arr, worst_enq - worst_arr,
                    last_enq - worst_enq, start - last_enq,
                ))
                on_completions(finish, latencies, met)
            if breaker is not None:
                nominal = estimate(bucket, size)
                transition = breaker.observe(
                    dispatch.finish_ms,
                    dispatch.service_ms > straggle_factor * nominal,
                )
                if transition is not None:
                    if transition == BREAKER_OPEN:
                        chaos.breaker_opens += 1
                    else:
                        chaos.breaker_closes += 1
                    if obs is not None:
                        obs.on_breaker(rid, dispatch.finish_ms, transition)
            if hedging:
                for request in requests:
                    key = (rid, request.request_id)
                    twin_key = self._hedge_twin.pop(key, None)
                    if twin_key is None:
                        continue
                    del self._hedge_twin[twin_key]
                    twin_rid, twin_engine_rid = twin_key
                    twin = self.replicas[twin_rid]
                    if not twin.engine.cancel_pending(twin_engine_rid):
                        raise RuntimeError(
                            f"hedged twin {twin_engine_rid} on replica "
                            f"{twin_rid} was not cancellable — hedge "
                            f"bookkeeping out of sync"
                        )
                    del twin.record_of[twin_engine_rid]
                    record_of[request.request_id].replica_id = rid
                    if key in self._hedge_primary:
                        self._hedge_primary.discard(key)
                    else:
                        chaos.hedge_wins += 1
                        self._hedge_primary.discard(twin_key)

        replica.engine.on_batch = hook

    def cold_start_ms(self, replica: Replica) -> float:
        """The replica's cold-start penalty, from the simulator's schedule.

        Modeled as ``cold_start_batches`` executions of the largest-bucket,
        full-size batch — the bitstream/weight load plus warm-up passes a
        real node spends before serving, priced by the same cycle-level
        schedule as the traffic itself (a slower design point also boots
        slower).
        """
        policy = self.config.serving
        return self.config.cold_start_batches * replica.engine.router.estimate_latency_ms(
            policy.max_seq_len, policy.max_batch_size
        )

    def remove_replica(self, replica_id: int, now_ms: float) -> None:
        """Gracefully drain one replica out of the fleet (scale-down).

        Its queued requests migrate to the remaining replicas; batches the
        accelerator already started complete and keep their results.

        Args:
            replica_id: Which replica to retire.
            now_ms: Simulated removal time.

        Raises:
            KeyError: If the replica does not exist.
            ValueError: If it is not live, or it is the last live replica.
        """
        replica = self.replicas[replica_id]
        if not replica.live:
            raise ValueError(f"replica {replica_id} is not live")
        if len(self._live) == 1:
            raise ValueError("refusing to remove the last live replica")
        replica.live = False
        replica.retired_ms = now_ms
        self._rebuild_live()
        self._migrate_pending(replica, now_ms)

    def fail_replica(self, replica_id: int, now_ms: float) -> None:
        """Fail-stop one replica: stop routing to it, migrate its queue.

        No accepted request is lost: queued work moves to the survivors
        (or is shed with reason ``no-capacity`` if none remain), and
        already-dispatched batches complete under the node-level
        drain/failover model described in the module docstring.

        Failing a replica that does not exist (yet) or is already down is
        a no-op — a failure plan may legitimately target a replica the
        autoscaler never got around to creating.

        Args:
            replica_id: Which replica fails.
            now_ms: Simulated failure time.
        """
        replica = self.replicas.get(replica_id)
        if replica is None or not replica.live:
            return  # unknown or already down (or scaled away) — no-op
        replica.live = False
        replica.retired_ms = now_ms
        replica.failures += 1
        replica.failed = True
        self._rebuild_live()
        if self.obs is not None:
            self.obs.on_failure(replica_id, now_ms)
        self._migrate_pending(replica, now_ms)

    def recover_replica(self, replica_id: int, now_ms: float) -> None:
        """Bring a failed replica back behind a fresh cold-start window.

        Contract — recovery is a **silent no-op** when the target cannot
        meaningfully recover, because a failure plan is written against
        replica ids the autoscaler may reshape under it:

        - *unknown id*: the replica was never created (e.g. the plan
          assumed a scale-up that never happened);
        - *already live*: nothing to do;
        - *not down by fail-stop* (``failed`` unset): the replica is down
          because the **autoscaler scaled it away**, not because it
          failed — recovery must not resurrect capacity the autoscaler
          deliberately removed.  This is the race where a planned
          fail/recover pair straddles a scale-down of the same id: the
          fail half also no-ops (see :meth:`fail_replica`), so the pair
          drops out cleanly instead of fighting the autoscaler.  The
          guard is the explicit down-cause flag, not ``failures == 0`` —
          a replica that failed, recovered, and was *later* scaled away
          must stay gone too.

        Both engines implement this exact guard, so the race resolves
        byte-identically (``tests/fleet/test_chaos.py`` pins it).

        Args:
            replica_id: Which replica recovers.
            now_ms: Simulated recovery time.
        """
        replica = self.replicas.get(replica_id)
        if replica is None or replica.live or not replica.failed:
            return  # unknown, live, or scaled away (not failed) — no-op
        replica.engine.advance(now_ms)
        cold_ms = self.cold_start_ms(replica)
        replica.engine.router.block_until(now_ms + cold_ms)
        if self.obs is not None:
            self.obs.on_recovery(replica_id, now_ms, cold_ms)
        replica.live = True
        replica.failed = False
        if replica.retired_ms is not None:
            replica.downtime_ms += now_ms - replica.retired_ms
        replica.retired_ms = None
        self._rebuild_live()

    def _rebuild_live(self) -> None:
        """Refresh the cached live list (call after any lifecycle change)."""
        self._live = [r for rid, r in sorted(self.replicas.items()) if r.live]

    def live_replicas(self) -> List[Replica]:
        """Live replicas in id order (deterministic routing order).

        Returns the maintained list (rebuilt on lifecycle events, not per
        call — the routing path reads it once per request); callers must
        treat it as read-only.
        """
        return self._live

    # ------------------------------------------------------------------
    # clock + request path
    # ------------------------------------------------------------------
    def advance(self, now_ms: float) -> None:
        """Advance every live replica's engine to the shared clock.

        Inlines the engine's "anything due?" probe: this runs once per
        event x live replica (the busiest loop of a million-request run),
        and almost every probe answers no — so the common case is two
        attribute reads and a compare, with the full
        :meth:`~repro.serve.ServingEngine.advance` only invoked when a
        batching deadline actually fires.
        """
        for replica in self._live:
            engine = replica.engine
            deadline = engine.batcher._next_deadline
            if deadline is not None and deadline <= now_ms:
                engine.advance(now_ms)
            elif now_ms > engine.now_ms:
                engine.now_ms = now_ms
        if now_ms > self.now_ms:
            self.now_ms = now_ms

    def projected_latency_ms(self, replica: Replica, now_ms: float) -> float:
        """Admission projection: completion latency of one more request here.

        Device backlog (time until the accelerator frees up), plus the
        simulator-priced service of the batches already queued — per
        bucket, from the batcher's real queue depths — plus one
        reference-shape batch for the incoming request and the batching
        deadline it may wait out.  A cheap queue-state heuristic: it only
        has to *rank* replicas and flag overload, not predict exact
        latencies.  Every price is a pre-warmed ``bucket_price`` lookup
        (the fleet-level design-point cache), so the per-request admission
        path never touches the simulator.
        """
        engine = replica.engine
        policy = self.config.serving
        devices = engine.router.devices
        if len(devices) == 1:
            backlog = devices[0].busy_until_ms - now_ms
        else:
            backlog = min(d.busy_until_ms for d in devices) - now_ms
        if backlog < 0.0:
            backlog = 0.0
        max_batch = policy.max_batch_size
        prices = replica.bucket_price
        queued = 0.0
        # The batcher's queues are read in place (not via queued_by_bucket,
        # which would build a dict per projection x replica x arrival).
        for bucket, queue in engine.batcher._queues.items():
            depth = len(queue)
            if depth:
                queued += ((depth + max_batch - 1) // max_batch) * prices[bucket]
        return backlog + queued + prices[self._ref_bucket] + policy.max_wait_ms

    def set_slowdown(self, replica_id: int, slowdown: float) -> None:
        """Enter/leave a gray window: stretch one replica's realized service.

        Applied directly on the replica's router — the admission
        projections deliberately keep pricing the *nominal* schedule (a
        router cannot know a node went gray; only the circuit breaker,
        watching realized service, reacts).  Setting it on a currently
        failed replica is fine: the slowdown persists across recovery
        until the window's end event clears it.  Unknown ids are a no-op
        (a plan may target a replica the autoscaler never created).
        """
        replica = self.replicas.get(replica_id)
        if replica is None:
            return
        replica.engine.router.slowdown = slowdown

    def take_retries(self) -> List[tuple]:
        """Drain retries scheduled since the last drain.

        The runner owns the event heap, so the fleet hands scheduled
        backoff retries back as ``(due_ms, record, request, attempt)``
        tuples for re-entry as timed events.  The runner drains after
        every event, so the common empty drain allocates nothing.
        """
        out = self._retry_out
        if out:
            self._retry_out = []
        return out

    def submit(self, request: FleetRequest) -> RequestRecord:
        """Route one arrival: admit to the best replica, or shed.

        The resilience policy adds, in order and only where enabled,
        circuit-breaker filtering, timeout fail-fast, brownout degradation
        of the admission bound, hedging of risky admissions, and backoff
        retries instead of final sheds while attempts remain.

        Args:
            request: The arriving request (its ``arrival_ms`` must be at or
                after the fleet clock; call :meth:`advance` first).

        Returns:
            The request's :class:`RequestRecord` (``shed`` set if rejected
            for good; a scheduled retry leaves it unset for now).

        Note:
            Arrival-window recording is the *driver's* job — the event-loop
            runner and the columnar sweep both bulk-record arrival times
            upfront (the trace is known before the loop starts), so submit
            itself only records sheds.
        """
        now_ms = request.arrival_ms
        record = RequestRecord(
            index=len(self.records),
            tenant=request.tenant,
            slo_ms=request.slo_ms,
            arrival_ms=now_ms,
        )
        self.records.append(record)
        if self.resilience.max_retries > 0:
            self._budget.accrue()
        self._attempt(record, request, 0, now_ms)
        return record

    def retry_attempt(self, payload: tuple, now_ms: float) -> None:
        """Re-run admission for one backoff retry (a ``_RETRY`` event)."""
        record, request, attempt = payload
        self._attempt(record, request, attempt, now_ms)

    def _attempt(
        self, record: RequestRecord, request: FleetRequest, attempt: int, now_ms: float
    ) -> None:
        """One admission attempt; sheds become retries while attempts remain."""
        policy = self.resilience
        obs = self.obs
        live = self._live
        if not live:
            self._shed_or_retry(record, request, attempt, now_ms, SHED_NO_CAPACITY)
            return
        # Circuit-breaker filter, in replica-id order (the same order both
        # engines mutate breaker state in, so lazy open -> half-open
        # transitions land identically).
        if policy.breaker:
            candidates = []
            for replica in live:
                breaker = replica.breaker
                before = breaker.state
                ok = breaker.allows(now_ms)
                if breaker.state is not before and obs is not None:
                    obs.on_breaker(replica.replica_id, now_ms, breaker.state)
                if ok:
                    candidates.append(replica)
            if not candidates:
                self._shed_or_retry(record, request, attempt, now_ms, SHED_BREAKER)
                return
        else:
            candidates = live
        # Best and runner-up by projection, strict < keeping the lowest id
        # on ties; the runner-up is the hedge target.
        projected_of = self.projected_latency_ms
        best = candidates[0]
        projected = projected_of(best, now_ms)
        second: Optional[Replica] = None
        second_proj = float("inf")
        for candidate in candidates[1:]:
            challenger = projected_of(candidate, now_ms)
            if challenger < projected:
                second = best
                second_proj = projected
                best = candidate
                projected = challenger
            elif challenger < second_proj:
                second = candidate
                second_proj = challenger
        if policy.timeout_ms is not None and projected > policy.timeout_ms:
            self.chaos.timeouts += 1
            self._shed_or_retry(record, request, attempt, now_ms, SHED_TIMEOUT)
            return
        base = self.config.admit_slo_factor * record.slo_ms
        ladder = self._brownout
        if ladder is None:
            if projected > base:
                self._shed_or_retry(record, request, attempt, now_ms, SHED_OVERLOAD)
                return
        else:
            # De-escalate at most one level per admission, behind dwell
            # hysteresis; escalate as far as needed (shed only at the top).
            if (
                ladder.level > 0
                and now_ms - ladder.last_change_ms >= ladder.dwell_ms
                and projected <= base * ladder.levels[ladder.level - 1]
            ):
                ladder.level -= 1
                ladder.last_change_ms = now_ms
                ladder.deescalations += 1
                self.chaos.brownout_deescalations += 1
                if obs is not None:
                    obs.on_brownout(now_ms, ladder.level)
            bound = base * ladder.levels[ladder.level]
            top = len(ladder.levels) - 1
            while projected > bound and ladder.level < top:
                ladder.level += 1
                ladder.last_change_ms = now_ms
                ladder.escalations += 1
                self.chaos.brownout_escalations += 1
                if obs is not None:
                    obs.on_brownout(now_ms, ladder.level)
                bound = base * ladder.levels[ladder.level]
            if projected > bound:
                self._shed_or_retry(record, request, attempt, now_ms, SHED_OVERLOAD)
                return
        # Map the engine-local id before submitting: a full batch flushes
        # inside submit, and the batch hook resolves fleet records for
        # every request in the executed batch — including this one.
        engine_rid = best.engine._next_id
        best.record_of[engine_rid] = record
        best.engine.submit(request.text_a, request.text_b, arrival_ms=now_ms)
        record.replica_id = best.replica_id
        if self.min_accepted_slo_ms is None or record.slo_ms < self.min_accepted_slo_ms:
            self.min_accepted_slo_ms = record.slo_ms
        if (
            policy.hedge
            and second is not None
            and projected > policy.hedge_factor * record.slo_ms
            and engine_rid not in best.engine.results
        ):
            # The primary copy is still queued (its enqueue did not flush a
            # full batch), so duplicate onto the runner-up; whichever copy
            # executes first cancels the other via the batch hook.  All
            # hedge bookkeeping is installed *before* the twin submit —
            # the twin itself may flush immediately and win on the spot.
            twin_engine_rid = second.engine._next_id
            primary_key = (best.replica_id, engine_rid)
            twin_key = (second.replica_id, twin_engine_rid)
            self._hedge_twin[primary_key] = twin_key
            self._hedge_twin[twin_key] = primary_key
            self._hedge_primary.add(primary_key)
            second.record_of[twin_engine_rid] = record
            self.chaos.hedges += 1
            second.engine.submit(request.text_a, request.text_b, arrival_ms=now_ms)

    def _shed_or_retry(
        self,
        record: RequestRecord,
        request: FleetRequest,
        attempt: int,
        now_ms: float,
        reason: str,
    ) -> None:
        """Schedule a backoff retry, or make the shed final.

        A retry is scheduled only while attempts remain *and* the retry
        budget grants a token; the deterministic delay comes from
        :func:`~repro.fleet.chaos.backoff_delay_ms` on
        ``(seed, record.index, attempt + 1)``.
        """
        policy = self.resilience
        if policy.max_retries > 0 and attempt < policy.max_retries:
            if self._budget.spend():
                delay = backoff_delay_ms(policy, self.seed, record.index, attempt + 1)
                self.chaos.retries += 1
                self._retry_out.append((now_ms + delay, record, request, attempt + 1))
                return
            self.chaos.retry_budget_exhausted += 1
        record.shed = True
        record.shed_reason = reason
        if self.obs is not None:
            self.obs.on_shed(now_ms, reason)

    def _migrate_pending(self, replica: Replica, now_ms: float) -> None:
        """Move a dead/draining replica's queued requests to the survivors.

        Migrated requests keep their original arrival time in the fleet
        record but re-enter another replica's queue at ``now_ms`` — exactly
        what a failover proxy would do.  Admission control does not re-run:
        the requests were already accepted, and accepted work is never
        shed while a live replica remains.
        """
        evicted = replica.engine.evict_pending()
        if not evicted:
            return
        survivors = self.live_replicas()
        for request in evicted:
            record = replica.record_of.pop(request.request_id)
            key = (replica.replica_id, request.request_id)
            twin_key = self._hedge_twin.pop(key, None)
            if twin_key is not None:
                # One copy of a hedged pair was queued here; the twin
                # (still queued elsewhere) carries the request alone from
                # now on — dropping this copy instead of migrating it
                # avoids double execution.
                del self._hedge_twin[twin_key]
                self._hedge_primary.discard(key)
                self._hedge_primary.discard(twin_key)
                record.replica_id = twin_key[0]
                continue
            if not survivors:
                record.shed = True
                record.shed_reason = SHED_NO_CAPACITY
                record.replica_id = -1
                if self.obs is not None:
                    # Bucketed at the migration time, not the original
                    # arrival: that is when the request actually left the
                    # system, and it keeps window flushes watermark-safe.
                    self.obs.on_shed(now_ms, SHED_NO_CAPACITY)
                continue
            target = min(
                survivors,
                key=lambda r: (self.projected_latency_ms(r, now_ms), r.replica_id),
            )
            # Pre-map for the same reason as submit: resubmission can flush
            # a full batch (containing this request) before returning.
            target.record_of[target.engine._next_id] = record
            target.engine.submit(
                request.text_a, request.text_b, arrival_ms=now_ms
            )
            record.replica_id = target.replica_id
            record.migrations += 1
            self.migrations += 1

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Flush every replica's remaining queued work (end of trace)."""
        for replica in sorted(self.replicas.values(), key=lambda r: r.replica_id):
            replica.engine.drain()

    def collect(self) -> List[RequestRecord]:
        """Fill every accepted record from its engine's results.

        Call after :meth:`drain`.  Latency is finish minus the *original*
        fleet arrival, so migrated requests carry their full wait.

        Returns:
            All records, in submission order.

        Raises:
            RuntimeError: If an accepted request never completed — that
                would mean the fleet lost work, which the failover
                machinery exists to prevent.
        """
        for replica in self.replicas.values():
            for engine_rid, record in replica.record_of.items():
                result = replica.engine.results.get(engine_rid)
                if result is None:
                    raise RuntimeError(
                        f"accepted request {record.index} vanished on replica "
                        f"{replica.replica_id} — fleet lost accepted work"
                    )
                record.finish_ms = result.finish_ms
                record.latency_ms = result.finish_ms - record.arrival_ms
                record.slo_met = record.latency_ms <= record.slo_ms
                record.completed = True
        lost = [
            r.index for r in self.records if not r.shed and not r.completed
        ]
        if lost:
            raise RuntimeError(f"accepted requests never completed: {lost[:10]}")
        return self.records
