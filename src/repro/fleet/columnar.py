"""Columnar analytic fleet engine: 100M-request traces, byte-exact reports.

The event-loop runner (:func:`repro.fleet.runner.run_scenario` with
``analytic=True``) walks a Python object per arrival — allocation, dict
traffic, and interpreter dispatch dominate, capping throughput around a
million requests per half minute.  This module re-expresses the *same*
simulation over columns:

- the trace is numpy arrays (arrival times, bucket indices, per-request
  SLOs, tenant indices) straight from
  :meth:`~repro.fleet.scenarios.Scenario.generate_columns`;
- every service time a run can dispatch is a memoized per-(design point,
  bucket, batch size) price table
  (:func:`repro.serve.router.service_table`);
- replica state is a handful of scalars and tiny per-bucket FIFOs;
- the per-arrival decision sweep — project, admit or shed, enqueue,
  flush — runs in a runtime-compiled C kernel (:mod:`repro.fleet._native`)
  or, for resilient runs and without a C compiler, in the one Python
  admission rule; both do the same IEEE-754 operations in the same order;
- every sweep logs its flushes as decision columns (replica, bucket,
  size, start, service, finish, and each completion's request and
  enqueue time), and one numpy post-pass turns them into observer
  records, autoscaler latency history and the tightest accepted SLO —
  so observed, autoscaled and gray runs take the C kernel as well.

**Exactness.** The sweep replicates the event-loop engine decision for
decision: admission projections accumulate queued-batch prices in bucket
first-use order, routing keeps the lowest-id replica on ties via a
strict ``<``, deadline flushes fire in ``(deadline, bucket)`` order with
the deadline as flush time, autoscaler signals read the same windows and
format the same reason strings, failovers migrate queues in enqueue
order.  Because every floating-point operation has the same operands in
the same order, reports are *byte-identical* to the event-loop analytic
(and therefore executed) mode — a property the differential test suite
asserts across every scenario class.

**Sharding.** A trace can be split on time boundaries into shards that
run independently and hand a compact, picklable
:class:`ColumnarFleetState` from one to the next; each shard emits a
:class:`ShardPartial` (its completions and sheds), and
:func:`merge_shard_partials` scatters them into the final columns.  The
split points are pure checkpoints of the same globally ordered event
sequence, so any shard count — and running each shard in a forked
subprocess — produces the same bytes, which the property tests check
for shard counts 1, 2, 5, and 7.
"""

from __future__ import annotations

import heapq
import math
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..serve.metrics import percentile
from ..serve.router import service_table
from .autoscale import SCALE_DOWN, SCALE_UP, AutoscalePolicy, ScaleEvent
from .chaos import (
    SHED_BREAKER,
    SHED_TIMEOUT,
    BrownoutLadder,
    ChaosPlan,
    ChaosStats,
    CircuitBreaker,
    GrayWindow,
    ResiliencePolicy,
    RetryBudget,
    backoff_delay_ms,
)
from .fleet import (
    SHED_NO_CAPACITY,
    SHED_OVERLOAD,
    FleetConfig,
    ReplicaSpec,
    reference_bucket,
)
from .metrics import build_fleet_stats_columns, build_replica_stats
from .runner import (
    _ARRIVAL,
    _FAIL,
    _GRAY_END,
    _GRAY_START,
    _RECOVER,
    _TICK,
    FailureEvent,
    FleetReport,
    control_events,
)
from .scenarios import (
    ColumnarTrace,
    FleetRequest,
    Scenario,
    _tune_malloc_for_giant_traces,
    builtin_scenarios,
)
from . import _native

# Shed codes in the completion columns (0 = completed).
SHED_CODE_OVERLOAD = 1
SHED_CODE_NO_CAPACITY = 2
SHED_CODE_BREAKER = 3
SHED_CODE_TIMEOUT = 4
SHED_REASON_OF_CODE = {
    SHED_CODE_OVERLOAD: SHED_OVERLOAD,
    SHED_CODE_NO_CAPACITY: SHED_NO_CAPACITY,
    SHED_CODE_BREAKER: SHED_BREAKER,
    SHED_CODE_TIMEOUT: SHED_TIMEOUT,
}

# Arrivals per C-kernel call: the kernel's completion and batch logs are
# sized by one call, so this bounds their memory on any trace.
SWEEP_CHUNK = 1 << 20


def native_available() -> bool:
    """Whether the compiled C sweep is usable in this process."""
    return _native.available()


# ----------------------------------------------------------------------
# state
# ----------------------------------------------------------------------
@dataclass
class _DesignTables:
    """Per-(design point) pricing: plain Python floats for the hot loop."""

    price_full: List[float]        # full-batch price per bucket slot
    ref_price: float               # price of the admission reference bucket
    svc: List[List[float]]         # [bucket slot][batch size] service ms
    cold_ms: float                 # cold-start window


@dataclass
class _Rep:
    """One replica's complete simulation state (picklable)."""

    rid: int
    spec: ReplicaSpec
    tables: _DesignTables
    added_ms: float
    busy_until: float = 0.0
    busy_ms: float = 0.0
    batches: int = 0
    requests: int = 0
    live: bool = True
    retired_ms: Optional[float] = None
    failures: int = 0
    downtime_ms: float = 0.0
    # down because of a fail-stop (vs scaled away) — recover guard,
    # mirroring Replica.failed
    failed: bool = False
    # gray-window service multiplier (DeviceRouter.slowdown's twin);
    # 1.0 costs no float op
    slowdown: float = 1.0
    # per-replica straggle detector when the resilience policy enables it
    breaker: Optional[CircuitBreaker] = None
    pending: int = 0
    # Per-bucket FIFO queues of (request index, enqueue ms); `order` lists
    # bucket slots in first-use order (the batcher's dict insertion order,
    # which fixes the float accumulation order of admission projections).
    queues: List[List[Tuple[int, float]]] = field(default_factory=list)
    order: List[int] = field(default_factory=list)
    seen: List[bool] = field(default_factory=list)
    next_dl: Optional[float] = None


@dataclass
class ColumnarFleetState:
    """Everything a shard hands to the next one (compact, picklable)."""

    replicas: List[_Rep] = field(default_factory=list)
    live: List[int] = field(default_factory=list)
    next_id: int = 0
    now: float = 0.0
    min_slo: Optional[float] = None
    migrations: int = 0
    # autoscaler state
    cooldown: int = 0
    last_tick: float = 0.0
    busy_snapshot: float = 0.0
    events: List[ScaleEvent] = field(default_factory=list)
    # (finish, engine latency) column chunks of completions the autoscaler
    # has not sampled yet; only filled when it needs its window-p99
    # signal, pruned to finishes past the last tick at every tick.
    hist: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    # chaos-layer state (rides the shard pickle like everything else)
    chaos: ChaosStats = field(default_factory=ChaosStats)
    budget: Optional[RetryBudget] = None
    brownout: Optional[BrownoutLadder] = None
    # scheduled backoff retries: min-heap of (due_ms, seq, idx, attempt);
    # seq increments in scheduling order, matching the event loop's
    # event-sequence numbering of _RETRY events (same relative order).
    retry_heap: List[Tuple[float, int, int, int]] = field(default_factory=list)
    retry_seq: int = 0
    # hedged pairs: (rid, request idx) -> (twin rid, shared bucket slot),
    # both directions, plus the set of primary keys (for hedge_wins).
    hedge: Dict[Tuple[int, int], Tuple[int, int]] = field(default_factory=dict)
    hedge_primary: Set[Tuple[int, int]] = field(default_factory=set)


@dataclass
class ShardPartial:
    """One shard's contribution to the final report: completions + sheds."""

    done_idx: np.ndarray    # int64 — request indices completed in this shard
    done_fin: np.ndarray    # float64 — their finish times
    shed_idx: np.ndarray    # int64 — request indices shed in this shard
    shed_code: np.ndarray   # uint8 — their shed codes

    @property
    def num_done(self) -> int:
        return int(self.done_idx.shape[0])

    @property
    def num_shed(self) -> int:
        return int(self.shed_idx.shape[0])


def merge_shard_partials(
    partials: Sequence[ShardPartial], num_requests: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter shard partials into full completion columns.

    Explicit about the degenerate cases the property tests pin: an empty
    partial list, empty shards, and all-shed shards all merge cleanly
    (the scatter of an empty index array is a no-op), and a request
    claimed by two shards — a drop/double-count bug — is detected and
    rejected rather than silently overwritten.

    Args:
        partials: Shard outputs, any order (indices are global).
        num_requests: Total submitted requests (column length).

    Returns:
        ``(finish_ms, shed_code)`` float64/uint8 columns; rows neither
        completed nor shed (impossible after a full run, possible for a
        prefix of shards) have ``shed_code == 0`` and ``finish_ms == 0``.

    Raises:
        ValueError: If any request index is out of range or claimed twice.
    """
    finish = np.zeros(num_requests, dtype=np.float64)
    shed = np.zeros(num_requests, dtype=np.uint8)
    claimed = np.zeros(num_requests, dtype=bool)
    total = 0
    for part in partials:
        for idx in (part.done_idx, part.shed_idx):
            if idx.shape[0] == 0:
                continue  # empty shard contribution — explicitly legal
            if int(idx.min()) < 0 or int(idx.max()) >= num_requests:
                raise ValueError("shard partial names an out-of-range request")
            claimed[idx] = True
            total += int(idx.shape[0])
        finish[part.done_idx] = part.done_fin
        shed[part.shed_idx] = part.shed_code
    # Overlap detection by counting: scattering `total` indices into a
    # clean mask marks `total` cells iff no index repeats — one O(n) sum
    # instead of a gather per partial, and it works on prefixes too.
    if int(claimed.sum()) != total:
        raise ValueError("shard partials overlap — a request was double-counted")
    return finish, shed


# ----------------------------------------------------------------------
# prepared run
# ----------------------------------------------------------------------
@dataclass
class _Prepared:
    """One run's immutable inputs: trace columns, events, pricing."""

    name: str
    seed: int
    duration_ms: float
    tenant_names: List[str]
    tenant_idx: np.ndarray         # int64  [n]
    slo: np.ndarray                # float64 [n]
    uniform_slo: float             # the single SLO value, 0.0 when mixed
    arrival: np.ndarray            # float64 [n]
    bucket_idx: np.ndarray         # int32  [n]
    events: List[tuple]            # time-sorted control events
    specs: List[ReplicaSpec]
    config: FleetConfig
    autoscale: Optional[AutoscalePolicy]
    scale_spec: Optional[ReplicaSpec]
    model_config: object
    resilience: Optional[ResiliencePolicy] = None
    chaos_active: bool = False       # attach the report's chaos section

    @property
    def num_requests(self) -> int:
        return int(self.arrival.shape[0])


def _encode_length(tokenizer, text_a, text_b, max_seq_len: int) -> int:
    """True token count of one text pair — the engine's ``Encoding.length``."""
    _, mask, _ = tokenizer.encode(text_a, text_b, max_length=max_seq_len)
    return int(mask.sum())


def _prepare(
    scenario: Union[str, Scenario, ColumnarTrace, Sequence[FleetRequest]],
    model,
    tokenizer,
    specs: List[ReplicaSpec],
    fleet_config: FleetConfig,
    autoscale: Optional[AutoscalePolicy],
    scale_spec: Optional[ReplicaSpec],
    failures: Sequence[FailureEvent],
    seed: int,
    rate_scale: float,
    duration_scale: float,
    grays: Sequence[GrayWindow] = (),
    resilience: Optional[ResiliencePolicy] = None,
    chaos_active: bool = False,
) -> _Prepared:
    policy = fleet_config.serving
    if policy.max_seq_len > model.config.max_position_embeddings:
        raise ValueError(
            f"max_seq_len {policy.max_seq_len} exceeds the model's "
            f"max_position_embeddings {model.config.max_position_embeddings}"
        )
    if not specs:
        raise ValueError("a fleet needs at least one initial replica")

    if isinstance(scenario, str):
        catalog = builtin_scenarios()
        if scenario not in catalog:
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from {sorted(catalog)}"
            )
        scenario = catalog[scenario]
    if isinstance(scenario, Scenario):
        scenario = scenario.generate_columns(
            seed=seed, rate_scale=rate_scale, duration_scale=duration_scale
        )

    if isinstance(scenario, ColumnarTrace):
        cols = scenario
        # A prebuilt giant trace skipped generate_columns' allocator
        # tuning; the sweep/merge columns downstream churn just as much.
        _tune_malloc_for_giant_traces(cols.num_requests)
        name = cols.name
        seed = cols.seed  # the trace knows the seed it was generated with
        duration_ms = cols.duration_ms
        tenant_names = [t.name for t in cols.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ValueError("tenant names must be unique")
        tenant_idx = cols.tenant_idx
        tenant_slos = np.asarray(
            [t.slo_ms for t in cols.tenants], dtype=np.float64
        )
        if len(cols.tenants) == 1:
            # One tenant: the gather below would broadcast one value.
            slo = np.full(cols.num_requests, tenant_slos[0], dtype=np.float64)
        else:
            slo = tenant_slos[tenant_idx]
        # Bucketing is a pure function of the text, and every text comes
        # from a small per-tenant pool — so tokenize and bucket each pool
        # entry once, then gather per-request bucket indices through a
        # flattened pool table.  One integer gather over the trace instead
        # of a 100M-row tokenize + searchsorted.
        batching = policy.batching_policy()
        pool_buckets = [
            batching.bucket_indices(
                np.asarray(
                    [
                        _encode_length(tokenizer, text, None, policy.max_seq_len)
                        for text in pool
                    ],
                    dtype=np.int64,
                )
            ).astype(np.int32)
            for pool in cols.pools()
        ]
        if len(pool_buckets) == 1:
            bucket_idx = pool_buckets[0][cols.draw]
        else:
            offsets = np.zeros(len(pool_buckets), dtype=np.int64)
            for tid in range(1, len(pool_buckets)):
                offsets[tid] = offsets[tid - 1] + pool_buckets[tid - 1].shape[0]
            flat = np.concatenate(pool_buckets)
            bucket_idx = flat[offsets[tenant_idx] + cols.draw]
        arrival = cols.arrival_ms
        uniform_slo = (
            float(tenant_slos[0]) if np.unique(tenant_slos).size == 1 else 0.0
        )
    else:
        # A pre-built FleetRequest trace (the runner's third input form).
        trace = sorted(scenario, key=lambda r: r.arrival_ms)
        name = "custom-trace"
        duration_ms = trace[-1].arrival_ms if trace else 0.0
        tenant_names = []
        tid_of: Dict[str, int] = {}
        length_of: Dict[Tuple[str, Optional[str]], int] = {}
        n = len(trace)
        tenant_idx = np.empty(n, dtype=np.int64)
        slo = np.empty(n, dtype=np.float64)
        arrival = np.empty(n, dtype=np.float64)
        lengths = np.empty(n, dtype=np.int64)
        for i, request in enumerate(trace):
            tid = tid_of.get(request.tenant)
            if tid is None:
                tid = tid_of[request.tenant] = len(tenant_names)
                tenant_names.append(request.tenant)
            tenant_idx[i] = tid
            slo[i] = request.slo_ms
            arrival[i] = request.arrival_ms
            key = (request.text_a, request.text_b)
            length = length_of.get(key)
            if length is None:
                length = length_of[key] = _encode_length(
                    tokenizer, request.text_a, request.text_b, policy.max_seq_len
                )
            lengths[i] = length
        bucket_idx = (
            policy.batching_policy().bucket_indices(lengths).astype(np.int32)
        )
        del lengths
        uniform_slo = (
            float(slo[0]) if n and bool((slo == slo[0]).all()) else 0.0
        )

    events = sorted(
        control_events(
            duration_ms,
            autoscale,
            failures,
            first_seq=arrival.shape[0],
            grays=grays,
        ),
        key=lambda e: (e[0], e[1], e[2]),
    )
    return _Prepared(
        name=name,
        seed=seed,
        duration_ms=duration_ms,
        tenant_names=tenant_names,
        tenant_idx=tenant_idx,
        slo=slo,
        uniform_slo=uniform_slo,
        arrival=arrival,
        bucket_idx=bucket_idx,
        events=events,
        specs=list(specs),
        config=fleet_config,
        autoscale=autoscale,
        scale_spec=scale_spec,
        model_config=model.config,
        resilience=resilience,
        chaos_active=chaos_active,
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class _Batches(NamedTuple):
    """Decision columns of flushed batches, one entry per flush; row
    ``j``'s completions are ``idx``/``enq[offset[j]:offset[j] + take[j]]``."""

    rid: np.ndarray        # int64   replica id
    bucket: np.ndarray     # int64   bucket slot
    take: np.ndarray       # int64   batch size
    offset: np.ndarray     # int64   first completion of the row
    start: np.ndarray      # float64 dispatch ms
    service: np.ndarray    # float64 realized service ms (gray applied)
    fin: np.ndarray        # float64 finish ms
    idx: np.ndarray        # int64   completed request indices
    enq: np.ndarray        # float64 their enqueue ms

    @classmethod
    def of(cls, ints, times, idx, enq) -> "_Batches":
        """From ``[n, 4]`` (rid, bucket, take, offset) and ``[n, 3]``
        (start, service, fin) row arrays."""
        return cls(*ints.T.astype(np.int64), *times.T.copy(), idx, enq)


def _cat(parts: List[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


class _Accum:
    """Per-shard completion/shed accumulator and batch log."""

    def __init__(self):
        # Python flushes log one row per batch — (rid, bucket slot, take,
        # offset, start, service, fin) — plus its (request, enqueue ms)
        # pairs; kernel sweeps log whole column chunks.  take_batches()
        # drains both for the engine's post-pass.
        self.rows: List[tuple] = []
        self.requests: List[Tuple[int, float]] = []
        self.logged: List[_Batches] = []
        self.done_parts: List[Tuple[np.ndarray, np.ndarray]] = []
        self.shed_idx_py: List[int] = []
        self.shed_code_py: List[int] = []
        self.shed_parts: List[Tuple[np.ndarray, np.ndarray]] = []

    def take_batches(self) -> List[_Batches]:
        """Drain the batch log; Python rows also become completions here."""
        logged, self.logged = self.logged, []
        if self.rows:
            rows = np.array(self.rows, dtype=np.float64)
            reqs = np.array(self.requests, dtype=np.float64)
            self.rows, self.requests = [], []
            log = _Batches.of(
                rows[:, :4], rows[:, 4:], reqs[:, 0].astype(np.int64), reqs[:, 1]
            )
            self.done_parts.append((log.idx, np.repeat(log.fin, log.take)))
            logged.append(log)
        return logged

    def to_partial(self) -> ShardPartial:
        shed_parts = [
            (np.asarray(self.shed_idx_py, dtype=np.int64),
             np.asarray(self.shed_code_py, dtype=np.uint8))
        ] + self.shed_parts
        return ShardPartial(
            done_idx=_cat([idx for idx, _ in self.done_parts], np.int64),
            done_fin=_cat([fin for _, fin in self.done_parts], np.float64),
            shed_idx=_cat([idx for idx, _ in shed_parts], np.int64),
            shed_code=_cat([code for _, code in shed_parts], np.uint8),
        )


class ColumnarFleetEngine:
    """The columnar twin of :class:`~repro.fleet.fleet.Fleet` + runner."""

    def __init__(
        self,
        prep: _Prepared,
        use_native: Optional[bool] = None,
        obs=None,
    ):
        self.prep = prep
        # Observability sink (repro.obs.FleetObserver) or None.  Falsy
        # sinks normalize to None so the sweeps stay seam-free when off.
        self.obs = obs or None
        policy = prep.config.serving
        self.B = len(policy.buckets)
        self.M = policy.max_batch_size
        self.wait = policy.max_wait_ms
        self.factor = prep.config.admit_slo_factor
        self.bucket_values = list(policy.buckets)
        self._bucket_value_col = np.asarray(self.bucket_values, dtype=np.int64)
        self.ref_idx = self.bucket_values.index(reference_bucket(policy.buckets))
        self.track_hist = prep.autoscale is not None
        # Every mechanism defaults off: a run without a policy takes the
        # same admission rule with nothing enabled.
        self.policy = prep.resilience or ResiliencePolicy()
        # The per-arrival path needs the live state from inside _flush
        # (hedge cancellation); the engine stashes the current state here
        # for the duration of a window.
        self._cur_state: Optional[ColumnarFleetState] = None
        self._tables: Dict[Tuple[object, object], _DesignTables] = {}
        if use_native is None:
            use_native = _native.available()
        # The C kernel takes every sweep with no resilience mechanism on:
        # gray windows are its per-replica slowdown, and observer records
        # and autoscaler history come from the batch log's post-pass.
        self.use_native = (
            bool(use_native) and _native.available() and not self.policy.enabled
        )
        # The batch log only has consumers when something watches.
        self._logging = self.obs is not None or self.track_hist
        # Global scratch for the native kernel (allocated lazily).
        self._finish_scratch: Optional[np.ndarray] = None
        self._shed_scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------
    def tables_for(self, spec: ReplicaSpec) -> _DesignTables:
        key = (spec.accel_config, spec.device)
        tables = self._tables.get(key)
        if tables is None:
            svc = service_table(
                self.prep.model_config, spec.accel_config, spec.device,
                self.prep.config.serving.buckets, self.M,
            ).tolist()
            price_full = [row[self.M] for row in svc]
            tables = self._tables[key] = _DesignTables(
                price_full=price_full,
                ref_price=price_full[self.ref_idx],
                svc=svc,
                cold_ms=self.prep.config.cold_start_batches * svc[self.B - 1][self.M],
            )
        return tables

    # ------------------------------------------------------------------
    # state lifecycle (mirrors Fleet.add/fail/recover/remove)
    # ------------------------------------------------------------------
    def initial_state(self) -> ColumnarFleetState:
        state = ColumnarFleetState()
        policy = self.policy
        state.budget = RetryBudget.from_policy(policy)
        if policy.brownout:
            state.brownout = BrownoutLadder.from_policy(policy)
        for spec in self.prep.specs:
            self._add_replica(state, spec, now=0.0, cold=False)
        # Autoscaler construction snapshots total busy time (zero at t=0).
        state.busy_snapshot = 0.0
        return state

    def _add_replica(
        self, state: ColumnarFleetState, spec: ReplicaSpec, now: float, cold: bool
    ) -> _Rep:
        tables = self.tables_for(spec)
        rep = _Rep(
            rid=state.next_id,
            spec=spec,
            tables=tables,
            added_ms=now,
            # engine starts idle; a cold start blocks the device until
            # now + cold_ms (router.block_until's max against zero).
            busy_until=(now + tables.cold_ms) if cold else 0.0,
            queues=[[] for _ in range(self.B)],
            seen=[False] * self.B,
        )
        if self.policy.breaker:
            rep.breaker = CircuitBreaker.from_policy(self.policy)
        state.next_id += 1
        state.replicas.append(rep)
        self._rebuild_live(state)
        if self.obs is not None:
            self.obs.on_replica(
                rep.rid, spec.label, now, tables.cold_ms if cold else 0.0
            )
        return rep

    @staticmethod
    def _rebuild_live(state: ColumnarFleetState) -> None:
        state.live = [r.rid for r in state.replicas if r.live]

    def _fail(self, state: ColumnarFleetState, rid: int, now: float, acc: _Accum):
        rep = state.replicas[rid] if rid < len(state.replicas) else None
        if rep is None or not rep.live:
            return  # unknown or already down — no-op, like Fleet.fail_replica
        rep.live = False
        rep.retired_ms = now
        rep.failures += 1
        rep.failed = True
        self._rebuild_live(state)
        if self.obs is not None:
            self.obs.on_failure(rep.rid, now)
        self._migrate(state, rep, now, acc)

    def _recover(self, state: ColumnarFleetState, rid: int, now: float):
        # Same down-cause guard as Fleet.recover_replica: only a replica
        # that is down *because it failed* comes back; one the autoscaler
        # scaled away while down stays retired (see the fleet docstring
        # contract and tests/fleet/test_chaos.py).
        rep = state.replicas[rid] if rid < len(state.replicas) else None
        if rep is None or rep.live or not rep.failed:
            return
        rep.failed = False
        cold = rep.tables.cold_ms
        rep.busy_until = max(rep.busy_until, now + cold)
        if self.obs is not None:
            self.obs.on_recovery(rep.rid, now, cold)
        rep.live = True
        if rep.retired_ms is not None:
            rep.downtime_ms += now - rep.retired_ms
        rep.retired_ms = None
        self._rebuild_live(state)

    def _remove(self, state: ColumnarFleetState, rep: _Rep, now: float, acc: _Accum):
        rep.live = False
        rep.retired_ms = now
        self._rebuild_live(state)
        self._migrate(state, rep, now, acc)

    # ------------------------------------------------------------------
    # per-replica primitives (mirror DynamicBatcher + engine dispatch)
    # ------------------------------------------------------------------
    def _projection(self, rep: _Rep, now: float) -> float:
        backlog = rep.busy_until - now
        if backlog < 0.0:
            backlog = 0.0
        queued = 0.0
        M = self.M
        tables = rep.tables
        price = tables.price_full
        for b in rep.order:
            depth = len(rep.queues[b])
            if depth:
                queued += ((depth + M - 1) // M) * price[b]
        return backlog + queued + tables.ref_price + self.wait

    def _flush(self, rep: _Rep, b: int, flush_ms: float, acc: _Accum) -> None:
        queue = rep.queues[b]
        take = min(len(queue), self.M)
        requests, rep.queues[b] = queue[:take], queue[take:]
        rep.pending -= take
        # `nominal` is the memoized simulator price (the router estimate);
        # a gray window stretches the *realized* service exactly like
        # DeviceRouter.dispatch — same multiply, same operands.
        nominal = rep.tables.svc[b][take]
        service = nominal if rep.slowdown == 1.0 else nominal * rep.slowdown
        start = flush_ms if flush_ms > rep.busy_until else rep.busy_until
        fin = start + service
        rep.busy_until = fin
        rep.busy_ms += service
        rep.batches += 1
        rep.requests += take
        # Completions, observer records and autoscaler history all come
        # from this row in the post-pass.
        acc.rows.append(
            (rep.rid, b, take, len(acc.requests), start, service, fin)
        )
        acc.requests.extend(requests)
        # Same consumer order as Fleet._install_batch_hook: circuit
        # breaker, then hedge cancellation (the observer's record is the
        # logged row above).
        breaker = rep.breaker
        if breaker is not None:
            transition = breaker.observe(
                fin,
                service > self.policy.breaker_straggle_factor * nominal,
            )
            # opens/closes roll up from the breakers at finalize (the
            # live counters the event loop keeps are the same sums).
            if transition is not None and self.obs is not None:
                self.obs.on_breaker(rep.rid, fin, transition)
        if self.policy.hedge:
            state = self._cur_state
            for idx, _enq in requests:
                key = (rep.rid, idx)
                twin = state.hedge.pop(key, None)
                if twin is None:
                    continue
                twin_rid, twin_b = twin
                del state.hedge[(twin_rid, idx)]
                # cancel the still-queued twin copy (DynamicBatcher.cancel)
                twin_rep = state.replicas[twin_rid]
                twin_q = twin_rep.queues[twin_b]
                pos = -1
                for j, (qidx, _qenq) in enumerate(twin_q):
                    if qidx == idx:
                        pos = j
                        break
                if pos < 0:
                    raise RuntimeError(
                        f"hedged twin of request {idx} on replica "
                        f"{twin_rid} was not cancellable — hedge "
                        f"bookkeeping out of sync"
                    )
                del twin_q[pos]
                twin_rep.pending -= 1
                if pos == 0:
                    nd = None
                    wait = self.wait
                    for b2 in twin_rep.order:
                        q = twin_rep.queues[b2]
                        if q:
                            cand = q[0][1] + wait
                            if nd is None or cand < nd:
                                nd = cand
                    twin_rep.next_dl = nd
                if key in state.hedge_primary:
                    state.hedge_primary.discard(key)
                else:
                    state.chaos.hedge_wins += 1
                    state.hedge_primary.discard((twin_rid, idx))
        # recompute the earliest pending deadline (batcher invariant)
        nd = None
        wait = self.wait
        for b2 in rep.order:
            q = rep.queues[b2]
            if q:
                cand = q[0][1] + wait
                if nd is None or cand < nd:
                    nd = cand
        rep.next_dl = nd

    def _fire_dues(self, rep: _Rep, now: float, acc: _Accum) -> None:
        """``DynamicBatcher.due_batches``: collect, sort, flush at deadlines."""
        if rep.next_dl is None or now < rep.next_dl:
            return
        wait = self.wait
        values = self.bucket_values
        due = []
        for b in rep.order:
            q = rep.queues[b]
            if q:
                deadline = q[0][1] + wait
                if deadline <= now:
                    due.append((deadline, values[b], b))
        due.sort()
        for deadline, _, b in due:
            self._flush(rep, b, deadline, acc)

    def _enqueue(
        self, rep: _Rep, b: int, idx: int, now: float, acc: _Accum
    ) -> bool:
        """Enqueue one request; returns True when it flushed on the spot.

        The return value mirrors the event loop's ``engine_rid not in
        engine.results`` probe after submit: a full batch flushes inside
        the enqueue and executes the request immediately (hedging only
        duplicates requests that are still queued).
        """
        queue = rep.queues[b]
        queue.append((idx, now))
        rep.pending += 1
        if len(queue) == 1:
            if not rep.seen[b]:
                rep.seen[b] = True
                rep.order.append(b)
            deadline = now + self.wait
            if rep.next_dl is None or deadline < rep.next_dl:
                rep.next_dl = deadline
        if len(queue) >= self.M:
            self._flush(rep, b, now, acc)
            return True
        return False

    def _advance(self, state: ColumnarFleetState, now: float, acc: _Accum) -> None:
        """``Fleet.advance``: fire due deadlines on live replicas, id order."""
        for rid in state.live:
            rep = state.replicas[rid]
            if rep.next_dl is not None and rep.next_dl <= now:
                self._fire_dues(rep, now, acc)
        if now > state.now:
            state.now = now

    def _migrate(
        self, state: ColumnarFleetState, rep: _Rep, now: float, acc: _Accum
    ) -> None:
        """``Fleet._migrate_pending``: evict in enqueue order, resubmit at now."""
        evicted: List[Tuple[int, float, int]] = []
        for b in rep.order:
            queue = rep.queues[b]
            if queue:
                evicted.extend((idx, enq, b) for idx, enq in queue)
                queue.clear()
        if not evicted:
            rep.pending = 0
            rep.next_dl = None
            return
        rep.pending = 0
        rep.next_dl = None
        evicted.sort(key=lambda e: e[1])  # stable, like evict_all
        replicas = state.replicas
        hedging = self.policy.hedge
        for idx, _enq, b in evicted:
            if hedging:
                twin = state.hedge.pop((rep.rid, idx), None)
                if twin is not None:
                    # One copy of a hedged pair was queued here; the twin
                    # (still queued elsewhere) carries the request alone —
                    # drop this copy instead of migrating it, exactly like
                    # Fleet._migrate_pending.
                    del state.hedge[(twin[0], idx)]
                    state.hedge_primary.discard((rep.rid, idx))
                    state.hedge_primary.discard((twin[0], idx))
                    continue
            survivors = state.live
            if not survivors:
                acc.shed_idx_py.append(idx)
                acc.shed_code_py.append(SHED_CODE_NO_CAPACITY)
                if self.obs is not None:
                    # Bucketed at migration time, like Fleet._migrate_pending.
                    self.obs.on_shed(now, SHED_NO_CAPACITY)
                continue
            best = None
            best_key = None
            for rid in survivors:
                candidate = replicas[rid]
                key = (self._projection(candidate, now), rid)
                if best is None or key < best_key:
                    best = candidate
                    best_key = key
            # engine.submit fires the target's due deadlines at `now`
            # before enqueueing (matters when max_wait_ms == 0).
            self._fire_dues(best, now, acc)
            self._enqueue(best, b, idx, now, acc)
            state.migrations += 1

    # ------------------------------------------------------------------
    # autoscaler tick (mirrors Autoscaler.tick)
    # ------------------------------------------------------------------
    def _tick(self, state: ColumnarFleetState, now: float, acc: _Accum) -> None:
        # Batches flushed since the last sweep (deadlines due at this
        # instant, retries) must reach the latency history first.
        self._post_pass(state, acc)
        policy = self.prep.autoscale
        replicas = state.replicas
        live_n = len(state.live)
        window = now - state.last_tick
        total_busy = 0.0
        for rep in replicas:  # creation order == id order, like _total_busy_ms
            total_busy += rep.busy_ms
        if window <= 0 or live_n == 0:
            utilization = 0.0
        else:
            utilization = min(
                1.0, (total_busy - state.busy_snapshot) / (window * live_n)
            )
        samples: List[float] = []
        if state.hist:
            # Completions finishing in (last tick, now] are this window's
            # samples; the percentile sorts, so chunk order is immaterial.
            fin = _cat([f for f, _ in state.hist], np.float64)
            lat = _cat([l for _, l in state.hist], np.float64)
            samples = lat[(fin > state.last_tick) & (fin <= now)].tolist()
            # Finishes at or before this tick can never be sampled again.
            keep = fin > now
            state.hist = [(fin[keep], lat[keep])] if keep.any() else []
        if not samples:
            p99_ratio = 0.0
        else:
            floor = state.min_slo
            p99_ratio = 0.0 if not floor else percentile(samples, 99) / floor
        depth = 0
        for rid in state.live:
            depth += replicas[rid].pending
        if self.obs is not None:
            # Same floats as Autoscaler.tick: busy/window accounting and the
            # sorted-percentile p99 are order-insensitive, so the counter
            # track is byte-identical across engines.
            self.obs.on_tick(now, utilization, p99_ratio, depth)
        state.last_tick = now
        state.busy_snapshot = total_busy

        if state.cooldown > 0:
            state.cooldown -= 1
            return
        batch = self.M
        event: Optional[ScaleEvent] = None
        if live_n < policy.max_replicas and (
            utilization > policy.utilization_high
            or p99_ratio > policy.slo_headroom
            or depth > live_n * batch
        ):
            if utilization > policy.utilization_high:
                reason = (
                    f"utilization {utilization:.2f} > {policy.utilization_high:.2f}"
                )
            elif p99_ratio > policy.slo_headroom:
                reason = f"p99 {p99_ratio:.2f}x SLO > {policy.slo_headroom:.2f}x"
            else:
                reason = f"queue depth {depth} > {live_n * batch}"
            scale_spec = self.prep.scale_spec or replicas[0].spec
            self._add_replica(state, scale_spec, now=now, cold=True)
            event = ScaleEvent(now, SCALE_UP, reason, live_n + 1)
        elif live_n > policy.min_replicas and (
            utilization < policy.utilization_low
            and p99_ratio <= 1.0
            and depth == 0
        ):
            victim = min(
                (replicas[rid] for rid in state.live),
                key=lambda r: (r.pending, -r.rid),
            )
            self._remove(state, victim, now, acc)
            event = ScaleEvent(
                now,
                SCALE_DOWN,
                f"utilization {utilization:.2f} < {policy.utilization_low:.2f}",
                live_n - 1,
            )
        if event is not None:
            state.events.append(event)
            state.cooldown = policy.cooldown_ticks
            if self.obs is not None:
                self.obs.on_scale(event)

    # ------------------------------------------------------------------
    # arrival sweeps
    # ------------------------------------------------------------------
    def _run_arrivals(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> None:
        if hi <= lo:
            return
        if not self.use_native:
            # Per-arrival admission: a resilience mechanism is on (breaker
            # probes, brownout hysteresis and retries racing the trace
            # need it) or there is no kernel.  Even the no-live-replica
            # case routes through it so sheds can become scheduled retries.
            self._run_arrivals_python(state, lo, hi, acc)
            self._post_pass(state, acc)
            return
        if not state.live:
            # No live replica: every arrival sheds with no-capacity, and
            # with no queues there are no deadlines to fire (vectorized).
            shed, code = np.arange(lo, hi, dtype=np.int64), SHED_CODE_NO_CAPACITY
        else:
            shed = self._run_arrivals_native(state, lo, hi, acc)
            code = SHED_CODE_OVERLOAD
        if shed.shape[0]:
            acc.shed_parts.append(
                (shed, np.full(shed.shape[0], code, dtype=np.uint8))
            )
        state.now = max(state.now, float(self.prep.arrival[hi - 1]))
        self._post_pass(state, acc, (lo, hi, shed, code))

    def _post_pass(
        self, state: ColumnarFleetState, acc: _Accum, sweep: Optional[tuple] = None
    ) -> None:
        """Turn the logged decision columns into everything that reads them.

        The one place flushed batches become observer records (batch
        spans with the worst-request critical path, completions and
        SLO-met counts) and autoscaler latency history.  Given an arrival
        sweep's ``(lo, hi, shed indices, shed code)`` it also records the
        span's arrivals and sheds and folds its accepted SLOs into
        ``min_slo``.  It runs at the end of every arrival sweep, before
        every tick and before a window's partial leaves, so each consumer
        sees every batch flushed before it.  Each value is the same IEEE
        operation on the same operands as a per-batch loop, and the
        observer's aggregates are multiset functions (trace export is
        sorted), so record order never changes a byte.
        """
        batches = acc.take_batches()
        obs = self.obs
        prep = self.prep
        if sweep is not None:
            lo, hi, shed, code = sweep
            if obs is not None:
                obs.on_arrivals(prep.arrival[lo:hi])
                if shed.shape[0]:
                    obs.on_sheds(prep.arrival[shed], SHED_REASON_OF_CODE[code])
            if self.track_hist:
                # min_accepted_slo only feeds the autoscaler's p99 floor.
                # The event loop's running min over admissions equals the
                # min over the span's accepted rows (min is exact).
                accepted = np.ones(hi - lo, dtype=bool)
                accepted[shed - lo] = False
                if accepted.any():
                    tightest = float(prep.slo[lo:hi][accepted].min())
                    if state.min_slo is None or tightest < state.min_slo:
                        state.min_slo = tightest
        if not self._logging:
            return
        for log in batches:
            if self.track_hist:
                fin = np.repeat(log.fin, log.take)
                state.hist.append((fin, fin - log.enq))
            if obs is None:
                continue
            obs.on_batch_columns(
                log.rid, self._bucket_value_col[log.bucket], log.take,
                log.offset, log.start, log.service, log.fin,
                prep.arrival[log.idx], log.enq, prep.slo[log.idx],
            )

    def _run_arrivals_native(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> np.ndarray:
        """Pack state, run the C kernel, unpack — identical decisions.

        The kernel runs over chunks of at most :data:`SWEEP_CHUNK`
        arrivals with the packed state carried from call to call, so its
        batch logs are sized per chunk, never per trace; they are NULL
        when nothing reads them.  Returns the indices it shed, ascending.
        """
        lib = _native.load()
        replicas = state.replicas
        lreps = [replicas[rid] for rid in state.live]
        L = len(lreps)
        B = self.B
        M = self.M
        # One call completes at most its arrivals plus every queued
        # request; that count bounds the int32 batch-log offsets.
        cap = min(hi - lo, SWEEP_CHUNK) + L * B * M
        if cap > _native.INDEX_LIMIT:
            raise ValueError(
                f"a kernel call over {min(hi - lo, SWEEP_CHUNK)} arrivals with "
                f"up to {L * B * M} queued requests exceeds the kernel's int32 "
                f"index limit of {_native.INDEX_LIMIT}"
            )
        if self._finish_scratch is None:
            n = self.prep.num_requests
            self._finish_scratch = np.zeros(n, dtype=np.float64)
            self._shed_scratch = np.zeros(n, dtype=np.uint8)
        finish = self._finish_scratch
        shed = self._shed_scratch

        busy_until = np.array([r.busy_until for r in lreps], dtype=np.float64)
        busy_ms = np.array([r.busy_ms for r in lreps], dtype=np.float64)
        batches = np.array([r.batches for r in lreps], dtype=np.int64)
        served = np.array([r.requests for r in lreps], dtype=np.int64)
        price_full = np.array(
            [r.tables.price_full for r in lreps], dtype=np.float64
        ).reshape(-1)
        ref_price = np.array([r.tables.ref_price for r in lreps], dtype=np.float64)
        svc = np.array([r.tables.svc for r in lreps], dtype=np.float64).reshape(-1)
        slowdown = np.array([r.slowdown for r in lreps], dtype=np.float64)
        depth = np.zeros((L, B), dtype=np.int32)
        qidx = np.zeros((L, B, M), dtype=np.int64)
        qenq = np.zeros((L, B, M), dtype=np.float64)
        seen = np.zeros((L, B), dtype=np.uint8)
        order = np.zeros((L, B), dtype=np.int32)
        order_n = np.zeros(L, dtype=np.int32)
        next_dl = np.full(L, np.inf, dtype=np.float64)
        for k, rep in enumerate(lreps):
            order_n[k] = len(rep.order)
            order[k, : order_n[k]] = rep.order
            seen[k] = rep.seen
            for b, queue in enumerate(rep.queues):
                depth[k, b] = len(queue)
                if queue:
                    qidx[k, b, : len(queue)], qenq[k, b, : len(queue)] = zip(*queue)
            if rep.next_dl is not None:
                next_dl[k] = rep.next_dl
        bucket_value = self._bucket_value_col
        due_dl = np.empty(B, dtype=np.float64)
        due_bv = np.empty(B, dtype=np.int64)
        due_b = np.empty(B, dtype=np.int64)
        done_log = np.empty((hi - lo) + int(depth.sum()), dtype=np.int64)
        logging = self._logging
        done_enq = np.empty(cap, dtype=np.float64) if logging else None
        log_ints = np.empty((cap, 4), dtype=np.int32) if logging else None
        log_times = np.empty((cap, 3), dtype=np.float64) if logging else None
        counts = np.zeros(2, dtype=np.int64)
        rids = np.array([r.rid for r in lreps], dtype=np.int64)

        written = 0
        pos = lo
        while pos < hi:
            end = min(pos + SWEEP_CHUNK, hi)
            lib.arrival_run(
                pos, end,
                self.prep.arrival, self.prep.bucket_idx, self.prep.slo,
                L, B, M,
                self.wait, self.factor, self.prep.uniform_slo,
                busy_until, busy_ms, batches, served,
                price_full, ref_price, svc, slowdown,
                depth.reshape(-1), qidx.reshape(-1), qenq.reshape(-1),
                seen.reshape(-1), order.reshape(-1), order_n,
                next_dl, bucket_value,
                shed, finish,
                done_log[written:], done_enq, log_ints, log_times, counts,
                due_dl, due_bv, due_b,
            )
            count, flushes = int(counts[0]), int(counts[1])
            if logging and flushes:
                log = _Batches.of(
                    log_ints[:flushes], log_times[:flushes],
                    done_log[written : written + count].copy(),
                    done_enq[:count].copy(),
                )
                acc.logged.append(log._replace(rid=rids[log.rid]))
            written += count
            pos = end
        done = done_log[:written].copy()
        acc.done_parts.append((done, finish[done]))

        for k, rep in enumerate(lreps):
            rep.busy_until = float(busy_until[k])
            rep.busy_ms = float(busy_ms[k])
            rep.batches = int(batches[k])
            rep.requests = int(served[k])
            rep.order = order[k, : order_n[k]].tolist()
            rep.seen = seen[k].astype(bool).tolist()
            rep.queues = [
                list(zip(qidx[k, b, :d].tolist(), qenq[k, b, :d].tolist()))
                for b, d in enumerate(depth[k].tolist())
            ]
            rep.pending = int(depth[k].sum())
            nd = float(next_dl[k])
            rep.next_dl = None if math.isinf(nd) else nd
        return np.flatnonzero(shed[lo:hi]).astype(np.int64, copy=False) + lo

    # ------------------------------------------------------------------
    # per-arrival request path — mirrors Fleet.submit / Fleet._attempt
    # ------------------------------------------------------------------
    def _run_arrivals_python(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> None:
        """Per-arrival Python sweep, retries interleaved on the clock.

        The reference the C kernel is tested against.  A retry due
        strictly before an arrival fires first; one due at the same
        instant fires after every arrival of that instant — the event
        loop's ``_ARRIVAL < _RETRY`` kind ordering.
        """
        arrival = self.prep.arrival
        if self.obs is not None:
            self.obs.on_arrivals(arrival[lo:hi])
        accrue = self.policy.max_retries > 0
        budget = state.budget
        heap = state.retry_heap
        heappop = heapq.heappop
        step = 1 << 20
        pos = lo
        while pos < hi:
            end = min(pos + step, hi)
            ts = arrival[pos:end].tolist()
            for k2 in range(end - pos):
                t = ts[k2]
                while heap and heap[0][0] < t:
                    due, _seq, idx, attempt = heappop(heap)
                    self._advance(state, due, acc)
                    self._attempt(state, idx, attempt, due, acc)
                self._advance(state, t, acc)
                if accrue:
                    budget.accrue()
                self._attempt(state, pos + k2, 0, t, acc)
            pos = end

    def _fire_retries(
        self,
        state: ColumnarFleetState,
        acc: _Accum,
        limit: float,
        inclusive: bool,
    ) -> None:
        """Fire scheduled retries up to ``limit`` (their due instants).

        ``inclusive`` matches the event-kind ordering against the control
        event being processed: retries at a tick's instant precede the
        tick (``_RETRY < _TICK``) but follow fail/recover/gray events.
        """
        heap = state.retry_heap
        heappop = heapq.heappop
        while heap and (heap[0][0] <= limit if inclusive else heap[0][0] < limit):
            due, _seq, idx, attempt = heappop(heap)
            self._advance(state, due, acc)
            self._attempt(state, idx, attempt, due, acc)

    def _attempt(
        self,
        state: ColumnarFleetState,
        idx: int,
        attempt: int,
        now: float,
        acc: _Accum,
    ) -> None:
        """One admission attempt — the exact twin of ``Fleet._attempt``."""
        policy = self.policy
        obs = self.obs
        replicas = state.replicas
        live = state.live
        if not live:
            self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_NO_CAPACITY)
            return
        if policy.breaker:
            candidates = []
            for rid in live:
                rep = replicas[rid]
                breaker = rep.breaker
                before = breaker.state
                ok = breaker.allows(now)
                if breaker.state is not before and obs is not None:
                    obs.on_breaker(rid, now, breaker.state)
                if ok:
                    candidates.append(rep)
            if not candidates:
                self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_BREAKER)
                return
        else:
            candidates = [replicas[rid] for rid in live]
        best = candidates[0]
        projected = self._projection(best, now)
        second: Optional[_Rep] = None
        second_proj = math.inf
        for rep in candidates[1:]:
            challenger = self._projection(rep, now)
            if challenger < projected:
                second = best
                second_proj = projected
                best = rep
                projected = challenger
            elif challenger < second_proj:
                second = rep
                second_proj = challenger
        if policy.timeout_ms is not None and projected > policy.timeout_ms:
            state.chaos.timeouts += 1
            self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_TIMEOUT)
            return
        slo = float(self.prep.slo[idx])
        base = self.factor * slo
        ladder = state.brownout
        if ladder is None:
            if projected > base:
                self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_OVERLOAD)
                return
        else:
            if (
                ladder.level > 0
                and now - ladder.last_change_ms >= ladder.dwell_ms
                and projected <= base * ladder.levels[ladder.level - 1]
            ):
                ladder.level -= 1
                ladder.last_change_ms = now
                ladder.deescalations += 1
                state.chaos.brownout_deescalations += 1
                if obs is not None:
                    obs.on_brownout(now, ladder.level)
            bound = base * ladder.levels[ladder.level]
            top = len(ladder.levels) - 1
            while projected > bound and ladder.level < top:
                ladder.level += 1
                ladder.last_change_ms = now
                ladder.escalations += 1
                state.chaos.brownout_escalations += 1
                if obs is not None:
                    obs.on_brownout(now, ladder.level)
                bound = base * ladder.levels[ladder.level]
            if projected > bound:
                self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_OVERLOAD)
                return
        b = int(self.prep.bucket_idx[idx])
        flushed = self._enqueue(best, b, idx, now, acc)
        if self.track_hist and (state.min_slo is None or slo < state.min_slo):
            state.min_slo = slo
        if (
            policy.hedge
            and second is not None
            and projected > policy.hedge_factor * slo
            and not flushed
        ):
            # Bookkeeping before the twin enqueue: the twin itself may
            # flush immediately and win on the spot (cancelling the
            # still-queued primary through _flush).
            primary_key = (best.rid, idx)
            state.hedge[primary_key] = (second.rid, b)
            state.hedge[(second.rid, idx)] = (best.rid, b)
            state.hedge_primary.add(primary_key)
            state.chaos.hedges += 1
            self._enqueue(second, b, idx, now, acc)

    def _shed_or_retry(
        self,
        state: ColumnarFleetState,
        idx: int,
        attempt: int,
        now: float,
        acc: _Accum,
        code: int,
    ) -> None:
        """Schedule a backoff retry, or make the shed final."""
        policy = self.policy
        if policy.max_retries > 0 and attempt < policy.max_retries:
            if state.budget.spend():
                delay = backoff_delay_ms(policy, self.prep.seed, idx, attempt + 1)
                state.chaos.retries += 1
                heapq.heappush(
                    state.retry_heap,
                    (now + delay, state.retry_seq, idx, attempt + 1),
                )
                state.retry_seq += 1
                return
            state.chaos.retry_budget_exhausted += 1
        acc.shed_idx_py.append(idx)
        acc.shed_code_py.append(code)
        if self.obs is not None:
            self.obs.on_shed(now, SHED_REASON_OF_CODE[code])

    # ------------------------------------------------------------------
    # windows, drain, report
    # ------------------------------------------------------------------
    def run_window(
        self,
        state: ColumnarFleetState,
        alo: int,
        ahi: int,
        events: Sequence[tuple],
    ) -> ShardPartial:
        """Process one time window: arrivals [alo, ahi) + control events."""
        acc = _Accum()
        self._cur_state = state
        arrival = self.prep.arrival
        pos = alo
        for event in events:
            time_ms, kind = event[0], event[1]
            # arrivals strictly before the control event — and also the
            # arrivals *at* a tick's timestamp (arrival kind < tick kind;
            # every other control kind precedes arrivals at its instant).
            side = "right" if kind > _ARRIVAL else "left"
            j = int(np.searchsorted(arrival[pos:ahi], time_ms, side=side)) + pos
            self._run_arrivals(state, pos, j, acc)
            pos = j
            # Retries due before this event fire first; ones due *at* its
            # instant precede only a tick (_RETRY < _TICK, but
            # recover/gray/fail kinds < _RETRY).
            self._fire_retries(state, acc, time_ms, inclusive=kind == _TICK)
            self._advance(state, time_ms, acc)
            if kind == _TICK:
                self._tick(state, time_ms, acc)
            elif kind == _FAIL:
                self._fail(state, event[3], time_ms, acc)
            elif kind == _GRAY_START:
                rid, slowdown, end_ms = event[3]
                # Unknown ids are a no-op, like Fleet.set_slowdown — but
                # the trace instant is still recorded (the plan said so).
                if rid < len(state.replicas):
                    state.replicas[rid].slowdown = slowdown
                if self.obs is not None:
                    self.obs.on_gray(rid, time_ms, end_ms, slowdown)
            elif kind == _GRAY_END:
                rid = event[3]
                if rid < len(state.replicas):
                    state.replicas[rid].slowdown = 1.0
            else:  # _RECOVER
                self._recover(state, event[3], time_ms)
            if time_ms > state.now:
                state.now = time_ms
        self._run_arrivals(state, pos, ahi, acc)
        return self._close(state, acc)

    def drain_retries(self, state: ColumnarFleetState) -> ShardPartial:
        """Fire every retry still scheduled past the last window's events.

        The event loop's heap empties itself — retries are first-class
        events — so the columnar run drains the retry heap explicitly
        before the final queue drain.
        """
        acc = _Accum()
        self._cur_state = state
        self._fire_retries(state, acc, math.inf, inclusive=True)
        return self._close(state, acc)

    def drain(self, state: ColumnarFleetState) -> ShardPartial:
        """``Fleet.drain``: flush remaining queues, all replicas, id order."""
        acc = _Accum()
        self._cur_state = state
        for rep in state.replicas:
            if rep.pending == 0:
                continue
            now = state.now
            while rep.pending:
                deadline = rep.next_dl
                now = max(now, deadline)
                self._fire_dues(rep, now, acc)
            rep.next_dl = None
        return self._close(state, acc)

    def _close(self, state: ColumnarFleetState, acc: _Accum) -> ShardPartial:
        """Post-pass the batches still logged, then hand off the partial."""
        self._post_pass(state, acc)
        self._cur_state = None
        return acc.to_partial()

    def finalize(
        self, state: ColumnarFleetState, partials: Sequence[ShardPartial]
    ) -> FleetReport:
        prep = self.prep
        n = prep.num_requests
        finish, shed = merge_shard_partials(partials, n)
        total = sum(p.num_done + p.num_shed for p in partials)
        if total != n:
            raise RuntimeError(
                f"accepted requests never completed: {n - total} of {n} "
                "rows missing from shard partials — the fleet lost work"
            )
        # max over the shard partials' finish columns == max over the
        # merged completed rows (same multiset; max is exact).
        last_finish = 0.0
        for part in partials:
            if part.num_done:
                last_finish = max(last_finish, float(part.done_fin.max()))
        duration = max(prep.duration_ms, last_finish)
        replica_rows = [
            build_replica_stats(
                rep.rid,
                rep.spec.label,
                rep.added_ms,
                rep.retired_ms,
                rep.failures,
                rep.busy_ms,
                rep.batches,
                rep.requests,
                rep.downtime_ms,
                duration,
            )
            for rep in state.replicas
        ]
        chaos = None
        if prep.chaos_active:
            # Breaker transitions were counted inside each breaker (no
            # shared counter is reachable from _flush); the rollup here
            # equals the event loop's live tally — observe() increments
            # its own opens/closes alongside the fleet's.
            chaos = state.chaos
            for rep in state.replicas:
                if rep.breaker is not None:
                    chaos.breaker_opens += rep.breaker.opens
                    chaos.breaker_closes += rep.breaker.closes
        stats = build_fleet_stats_columns(
            duration_ms=duration,
            tenant_names=prep.tenant_names,
            tenant_idx=prep.tenant_idx,
            slo_ms=prep.slo,
            arrival_ms=prep.arrival,
            finish_ms=finish,
            shed_code=shed,
            shed_reasons=SHED_REASON_OF_CODE,
            migrations=state.migrations,
            replicas=replica_rows,
            scale_events=list(state.events),
            chaos=chaos,
        )
        return FleetReport(
            scenario=prep.name,
            seed=prep.seed,
            num_initial_replicas=len(prep.specs),
            autoscaled=prep.autoscale is not None,
            stats=stats,
        )


# ----------------------------------------------------------------------
# shard orchestration
# ----------------------------------------------------------------------
def shard_windows(
    prep: _Prepared, shards: int
) -> List[Tuple[int, int, List[tuple]]]:
    """Deterministic time-boundary decomposition of the event sequence.

    Window ``k`` owns every event (arrival or control) with
    ``duration * k / shards <= time < duration * (k+1) / shards``; the
    last window additionally owns everything at or past the horizon
    (ticks can land exactly on it).  Because windows are contiguous
    slices of the globally ordered event sequence, running them in turn
    with the state handed across boundaries replays exactly the
    single-shard run — shard counts are a pure checkpointing choice.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    arrival = prep.arrival
    n = int(arrival.shape[0])
    windows: List[Tuple[int, int, List[tuple]]] = []
    alo = 0
    clo = 0
    events = prep.events
    for k in range(1, shards + 1):
        if k < shards:
            edge = prep.duration_ms * k / shards
            ahi = int(np.searchsorted(arrival, edge, side="left"))
            chi = clo
            while chi < len(events) and events[chi][0] < edge:
                chi += 1
        else:
            ahi = n
            chi = len(events)
        windows.append((alo, ahi, list(events[clo:chi])))
        alo, clo = ahi, chi
    return windows


_WORKER_CTX: Optional[tuple] = None


def _window_worker(conn, window_index: int) -> None:
    """Run one window; send its result, or the formatted traceback."""
    try:
        engine, state, windows = _WORKER_CTX
        alo, ahi, events = windows[window_index]
        partial = engine.run_window(state, alo, ahi, events)
        # Observability state crosses the fork like ShardPartial does: the
        # worker drains its live buffers into a picklable partial; the
        # parent absorbs.  (The parent drained its own live buffers before
        # forking, so this partial holds exactly this window's records.)
        obs_partial = engine.obs.take_partial() if engine.obs is not None else None
        message = (partial, state, obs_partial)
    except Exception:
        message = traceback.format_exc()
    conn.send(message)
    conn.close()


def _run_windows_in_processes(engine, state, windows):
    """Run each window in its own forked worker, state handed via pickle.

    Sequential by construction — window k+1 needs window k's final state —
    so this demonstrates cross-process determinism (each worker computes
    in a fresh address space) rather than parallel speedup.
    """
    import multiprocessing

    global _WORKER_CTX
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = None
    if ctx is None:
        partials = [
            engine.run_window(state, alo, ahi, events)
            for alo, ahi, events in windows
        ]
        return partials, state
    if engine.obs is not None:
        # Park any pre-fork records (initial replica metadata) in the
        # master store so no child re-ships them.
        engine.obs.absorb(engine.obs.take_partial())
    partials = []
    for k in range(len(windows)):
        _WORKER_CTX = (engine, state, windows)
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_window_worker, args=(child, k))
        proc.start()
        child.close()
        try:
            message = parent.recv()
        except EOFError:  # the worker died before it could send anything
            message = None
        parent.close()
        proc.join()
        _WORKER_CTX = None
        if not isinstance(message, tuple) or proc.exitcode != 0:
            if not isinstance(message, str):
                message = f"exit code {proc.exitcode}"
            raise RuntimeError(f"shard worker {k} failed: {message}")
        partial, state, obs_partial = message
        if obs_partial is not None:
            engine.obs.absorb(obs_partial)
        partials.append(partial)
    return partials, state


def run_scenario_columnar(
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
    shards: int = 1,
    shard_processes: bool = False,
    native: Optional[bool] = None,
    obs=None,
    chaos: Optional[ChaosPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
) -> FleetReport:
    """Columnar twin of :func:`repro.fleet.runner.run_scenario`.

    Same arguments, same report — byte-identical ``render()`` and
    ``to_json()`` output for equal inputs (the differential suite pins
    this against the event-loop analytic engine on every scenario
    class).  The model's weights are never touched: the columnar engine
    is inherently analytic, pricing every batch from the accelerator
    simulator's memoized schedule, exactly like ``analytic=True``.

    Args:
        scenario: Built-in name, :class:`Scenario`,
            :class:`~repro.fleet.scenarios.ColumnarTrace`, or a pre-built
            :class:`FleetRequest` sequence.
        model: Served model (only its config shapes the price tables).
        tokenizer: Tokenizer (prices text lengths, not contents).
        specs: Initial replica design points.
        fleet_config: Cluster policy.
        autoscale: Autoscaler policy (``None`` = fixed fleet).
        scale_spec: Design point for scale-up replicas.
        failures: Planned replica failures/recoveries.
        seed: Trace seed (ignored for pre-built traces).
        rate_scale: Rate multiplier for scenario generation.
        duration_scale: Duration multiplier for scenario generation.
        shards: Split the run into this many deterministic time windows.
        shard_processes: Run each window in a forked subprocess (state
            crosses via pickle; sequential, determinism demo — see
            ``docs/scaling.md``).
        native: Force the C kernel on/off; default auto-detects.  Results
            are identical either way.  Runs with a resilience mechanism
            on always take the per-arrival Python path.
        obs: Optional :class:`repro.obs.FleetObserver`.  Never changes a
            report byte; metric streams are byte-identical to the
            event-loop runner's at any shard count, on the C kernel or
            the per-arrival Python path alike.
        chaos: Optional :class:`~repro.fleet.chaos.ChaosPlan` — same
            semantics as the event-loop runner's parameter (fail-stops,
            zone outages, gray windows).
        resilience: Optional :class:`~repro.fleet.chaos.ResiliencePolicy`
            (timeout, breaker, brownout, retries, hedging), byte-identical
            to the event loop's at any shard count.  ``None`` means the
            default policy, every mechanism off; either way the report
            gains a ``chaos`` section only when a policy or plan is given.

    Returns:
        The :class:`FleetReport`.
    """
    obs = obs or None
    grays: Sequence[GrayWindow] = ()
    if chaos is not None:
        failures = tuple(failures) + chaos.failure_events()
        grays = chaos.grays
    prep = _prepare(
        scenario,
        model,
        tokenizer,
        specs,
        fleet_config,
        autoscale,
        scale_spec,
        failures,
        seed,
        rate_scale,
        duration_scale,
        grays=grays,
        resilience=resilience,
        chaos_active=chaos is not None or resilience is not None,
    )
    engine = ColumnarFleetEngine(prep, use_native=native, obs=obs)
    state = engine.initial_state()
    windows = shard_windows(prep, shards)
    if shard_processes:
        partials, state = _run_windows_in_processes(engine, state, windows)
    else:
        partials = []
        for k, (alo, ahi, events) in enumerate(windows):
            partials.append(engine.run_window(state, alo, ahi, events))
            if obs is not None and k + 1 < len(windows):
                # Stream closed windows at each shard edge.  The watermark
                # backs off to the earliest pending batching deadline:
                # a queue carried across the boundary may still flush
                # (and finish) before the edge itself.
                edge = prep.duration_ms * (k + 1) / shards
                pending = [
                    rep.next_dl
                    for rep in state.replicas
                    if rep.next_dl is not None
                ]
                if state.retry_heap:
                    # A scheduled retry may still shed (or admit work
                    # that flushes) at its due instant — hold the
                    # watermark back to it.
                    pending.append(state.retry_heap[0][0])
                obs.advance(min([edge] + pending))
    if state.retry_heap:
        partials.append(engine.drain_retries(state))
    partials.append(engine.drain(state))
    report = engine.finalize(state, partials)
    if obs is not None:
        obs.finalize(report)
    return report
