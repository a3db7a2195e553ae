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
- replica state (a handful of scalars and tiny per-bucket FIFOs per
  replica) lives in the kernel's own packed arrays between calls;
- the per-arrival decision sweep — project, admit or shed (or retry),
  enqueue, flush, with every resilience mechanism — runs in a
  runtime-compiled C kernel (:mod:`repro.fleet._native`), retries
  interleaved with arrivals on the simulated clock;
- every sweep logs its flushes as decision columns (replica, bucket,
  size, start, service, finish, and each completion's request and
  enqueue time) plus its final sheds, breaker transitions and brownout
  steps, and one numpy post-pass turns them into observer records and
  autoscaler latency history.

Without a C compiler, :func:`run_scenario_columnar` hands the run to
the analytic event loop instead, which renders the same bytes.

**Exactness.** Both engines make each policy decision by one rule:
admission as :func:`repro.fleet.chaos.admit`, retry or final shed as
:func:`repro.fleet.chaos.retry_delay` (the C kernel compiles both, in
the same IEEE-754 operations and order), scaling in
:meth:`repro.fleet.autoscale.AutoscalePolicy.decide` on the signals of
:func:`repro.fleet.autoscale.tick_signals`.  What this module keeps
is its own state layout and the signals it feeds them: admission
projections accumulate queued-batch prices in bucket first-use order,
deadline flushes fire in ``(deadline, bucket)`` order with the deadline
as flush time, autoscaler signals read the same windows, failovers
migrate queues in enqueue order.  Because every floating-point operation
has the same operands in the same order, reports are *byte-identical* to
the event-loop analytic (and therefore executed) mode — a property the
differential test suite asserts across every scenario class.

**Sharding.** A trace can be split on time boundaries into shard
windows that run in turn and hand a compact :class:`ColumnarFleetState`
from one to the next; each window emits a :class:`ShardPartial` (its
completions and sheds), and :func:`merge_shard_partials` scatters them
into the final columns.  Window k+1 starts from window k's final state,
so the windows are sequential: the split points are pure checkpoints of
the same globally ordered event sequence, and any shard count produces
the same bytes, which the property tests check for shard counts 1, 2,
5, and 7.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..serve.router import service_table
from .autoscale import SCALE_UP, AutoscalePolicy, ScaleEvent, tick_signals
from .chaos import (
    _MASK64,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    SHED_REASON_OF_CODE,
    ChaosPlan,
    ChaosStats,
    GrayWindow,
    ResiliencePolicy,
)
from .fleet import FleetConfig, ReplicaSpec, reference_bucket
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
    run_scenario,
)
from .scenarios import (
    ColumnarTrace,
    FleetRequest,
    Scenario,
    _tune_malloc_for_giant_traces,
    builtin_scenarios,
)
from . import _native
from ._native import (
    F_COUNT, F_MIN_SLO, F_NOW, I_COUNT, I_DEESC, I_DONE, I_ERROR, I_EVENTS,
    I_EV_CAP, I_FINISHED, I_FLUSHES, I_HEAP, I_HEAP_CAP, I_MIGRATIONS,
    I_RETRIES, I_SHEDS, I_STOP, P_LIMIT, Q_ADVANCE, Q_INCLUSIVE, Q_L,
    Q_MIGRANTS, Q_N, Q_SEED,
)

# Arrivals per C-kernel call: the kernel's completion and batch logs are
# sized by one call, so this bounds their memory on any trace.
SWEEP_CHUNK = 1 << 20

# Initial retry-heap entries; a kernel call that fills the heap stops,
# and the engine doubles it before resuming.
_HEAP_START = 1024

# Breaker states by kernel code, and the ChaosStats counters the kernel
# carries in is[I_RETRIES:I_DEESC + 1], in that order.
_BREAKER_STATES = (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN)
_KERNEL_COUNTERS = (
    "retries", "retry_budget_exhausted", "timeouts", "hedges", "hedge_wins",
    "brownout_escalations", "brownout_deescalations",
)


def native_available() -> bool:
    """Whether the compiled C sweep is usable in this process."""
    return _native.available()


# ----------------------------------------------------------------------
# state
# ----------------------------------------------------------------------
@dataclass
class _DesignTables:
    """Per-(design point) pricing: one replica's rows of the kernel's
    price buffer, and its cold-start window."""

    price_full: np.ndarray         # [bucket slot] full-batch price
    ref_price: float               # price of the admission reference bucket
    svc: np.ndarray                # [bucket slot, batch size] service ms
    cold_ms: float                 # cold-start window


@dataclass
class _Rep:
    """One replica's lifecycle.  Its serving state (busy time, queues,
    breaker) is row ``replica_id`` of :class:`ColumnarFleetState`'s
    kernel buffers, kept there while the replica is down too."""

    replica_id: int
    spec: ReplicaSpec
    tables: _DesignTables
    added_ms: float
    live: bool = True
    retired_ms: Optional[float] = None
    failures: int = 0
    downtime_ms: float = 0.0
    # down because of a fail-stop (vs scaled away) — the recover guard,
    # as Replica.failed
    failed: bool = False


class _Rows(NamedTuple):
    """Per-field views of the kernel buffers, first axis the replica id."""

    busy_until: np.ndarray         # float64 [N]
    busy_ms: np.ndarray            # float64 [N]
    slowdown: np.ndarray           # float64 [N] gray multiplier, 1.0 healthy
    next_dl: np.ndarray            # float64 [N] earliest deadline, inf if none
    br_until: np.ndarray           # float64 [N] breaker open hold
    batches: np.ndarray            # int64 [N]
    served: np.ndarray             # int64 [N]
    br: np.ndarray                 # int64 [N, 5] breaker state code, probes
                                   #   left, recent count, opens, closes
    order_n: np.ndarray            # int32 [N]
    depth: np.ndarray              # int32 [N, B] queue depths
    order: np.ndarray              # int32 [N, B] buckets in first-use order
    seen: np.ndarray               # int32 [N, B]
    qidx: np.ndarray               # int64 [N, B, M] queued request, FIFO
    qenq: np.ndarray               # float64 [N, B, M] its enqueue ms
    qhedge: Optional[np.ndarray]   # int32 [N, B, M] twin id * 2 + primary


@dataclass
class ColumnarFleetState:
    """Everything a shard window hands to the next one (compact).

    The serving state is the C kernel's own packed buffers (layouts in
    :mod:`repro.fleet._native`): one row per replica ever added, by
    replica id, which every kernel call updates in place.  Python writes
    them only when the live set changes (add, fail, recover, remove) or
    a gray window starts or ends.
    """

    replicas: List[_Rep]             # id order
    live_ids: np.ndarray             # int64 ids of the live replicas, ascending
    # The kernel's scalars: carried doubles (retry tokens, tightest
    # accepted SLO, last brownout change, clock) then run constants, and
    # carried integers (brownout level, retry seq, heap size, migrations,
    # chaos counters) plus per-call outputs, then run constants.
    fv: np.ndarray
    iv: np.ndarray
    prices: np.ndarray
    rf: np.ndarray
    ri: np.ndarray
    li: np.ndarray
    qidx: np.ndarray
    qenq: np.ndarray
    qhedge: Optional[np.ndarray]      # without hedging: None
    br_recent: Optional[np.ndarray]   # without breakers: None
    # Scheduled backoff retries, a min-heap on (due ms, seq) of
    # iv[I_HEAP] entries; key rows are (seq, request, attempt).  seq
    # increments in scheduling order, matching the event loop's
    # numbering of _RETRY events.  None without retries.
    h_due: Optional[np.ndarray]
    h_key: Optional[np.ndarray]
    # autoscaler state
    cooldown: int = 0
    last_tick: float = 0.0
    busy_snapshot: float = 0.0
    events: List[ScaleEvent] = field(default_factory=list)
    # (finish, engine latency) column chunks of completions the autoscaler
    # has not sampled yet; only filled when it needs its window-p99
    # signal, pruned to finishes past the last tick at every tick.
    hist: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def rows(self) -> _Rows:
        n, B = self.qidx.shape[:2]
        ri = self.ri
        depth, order, seen = self.li[n:].reshape(3, n, B)
        return _Rows(
            *self.rf.reshape(5, n), ri[:n], ri[n : 2 * n],
            ri[2 * n :].reshape(n, 5), self.li[:n], depth, order, seen,
            self.qidx, self.qenq, self.qhedge,
        )

    @property
    def next_dl(self) -> np.ndarray:
        n = len(self.replicas)
        return self.rf[3 * n : 4 * n]

    @property
    def min_slo(self) -> Optional[float]:
        """The tightest SLO admitted so far (``None`` before any)."""
        value = float(self.fv[F_MIN_SLO])
        return None if math.isinf(value) else value

    @property
    def retry_heap(self) -> List[Tuple[float, int, int, int]]:
        """The scheduled retries as ``(due ms, seq, request, attempt)``."""
        n = int(self.iv[I_HEAP])
        if not n:
            return []
        return list(zip(self.h_due[:n].tolist(), *self.h_key[:n].T.tolist()))


def _append_rows(buffer: np.ndarray, n: int, rows: Sequence[tuple]) -> np.ndarray:
    """A field-major buffer of ``n`` replica rows, plus ``rows``.

    Each new row holds its value of each field, in buffer order; a
    field's width is the size of its value.
    """
    parts = []
    pos = 0
    for values in zip(*rows):
        block = np.asarray(values, dtype=buffer.dtype).reshape(-1)
        width = block.shape[0] // len(rows)
        parts += (buffer[pos : pos + n * width], block)
        pos += n * width
    return np.concatenate(parts)


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


def _trace_buckets(cols: ColumnarTrace, tokenizer, policy) -> np.ndarray:
    """The trace's read-only per-request bucket column, memoized on it.

    Bucketing is a pure function of the text, and every text comes from
    a small per-tenant pool — so each pool entry is tokenized once and
    per-request indices are one integer gather through a flattened pool
    table, not a 100M-row tokenize + searchsorted.  The
    column depends only on (tokenizer, max_seq_len, buckets), so runs
    sharing the trace share it: the key holds the tokenizer's id and the
    value the tokenizer itself, which keeps that id from being reused.
    """
    key = (id(tokenizer), policy.max_seq_len, tuple(policy.buckets))
    memo = cols.bucket_memo.get(key)
    if memo is not None:
        return memo[1]
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
        bucket_idx = flat[offsets[cols.tenant_idx] + cols.draw]
    bucket_idx.flags.writeable = False
    cols.bucket_memo[key] = (tokenizer, bucket_idx)
    return bucket_idx


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
        bucket_idx = _trace_buckets(cols, tokenizer, policy)
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


def _ptr(array: Optional[np.ndarray]) -> Optional[int]:
    """A C-contiguous array's address for the kernel (``None``: NULL)."""
    return None if array is None else array.ctypes.data


def _cat(parts: List[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


class _Accum:
    """Per-shard completions and sheds, plus the batch log the post-pass
    drains."""

    def __init__(self):
        self.logged: List[_Batches] = []
        self.done_parts: List[Tuple[np.ndarray, np.ndarray]] = []
        self.shed_parts: List[Tuple[np.ndarray, np.ndarray]] = []

    def to_partial(self) -> ShardPartial:
        return ShardPartial(
            done_idx=_cat([idx for idx, _ in self.done_parts], np.int64),
            done_fin=_cat([fin for _, fin in self.done_parts], np.float64),
            shed_idx=_cat([idx for idx, _ in self.shed_parts], np.int64),
            shed_code=_cat([code for _, code in self.shed_parts], np.uint8),
        )


class ColumnarFleetEngine:
    """:class:`~repro.fleet.fleet.Fleet` + runner over columnar state.

    Every decision and every flush happens in the C kernel, which
    compiles the functions the event loop calls, on state kept in the
    kernel's own layouts between calls; Python keeps the replica
    lifecycle (add, fail, recover, remove) and the autoscaler tick.
    """

    def __init__(self, prep: _Prepared, obs=None):
        if not _native.available():
            raise RuntimeError(
                f"the columnar engine needs its C kernel: {_native.build_error()}"
            )
        self.prep = prep
        # Observability sink (repro.obs.FleetObserver) or None.  Falsy
        # sinks normalize to None so the sweeps stay seam-free when off.
        self.obs = obs or None
        policy = prep.config.serving
        self.B = len(policy.buckets)
        self.M = policy.max_batch_size
        self.wait = policy.max_wait_ms
        self.factor = prep.config.admit_slo_factor
        self._bucket_value_col = np.asarray(policy.buckets, dtype=np.int64)
        self.ref_idx = list(policy.buckets).index(reference_bucket(policy.buckets))
        self.track_hist = prep.autoscale is not None
        # Every mechanism defaults off: a run without a policy takes the
        # same admission rule with nothing enabled.
        self.policy = policy = prep.resilience or ResiliencePolicy()
        self._tables: Dict[Tuple[object, object], _DesignTables] = {}
        # The batch log only has consumers when something watches.
        self._logging = self.obs is not None or self.track_hist
        # The kernel's run constants (its fp / ip slots, in enum order);
        # the live set sets the live and row counts, each call the time
        # limit, flags and migrants.
        self._fp = np.array(
            [
                self.wait, self.factor, prep.uniform_slo, -math.inf,
                policy.backoff_base_ms, policy.backoff_jitter,
                policy.retry_budget_ratio, policy.retry_budget_burst,
                policy.hedge_factor,
                math.inf if policy.timeout_ms is None else policy.timeout_ms,
                policy.breaker_straggle_factor, policy.breaker_threshold,
                policy.breaker_open_ms, policy.brownout_dwell_ms,
                *policy.brownout_levels,
            ],
            dtype=np.float64,
        )
        self._ip = np.array(
            [
                0, 0, self.B, self.M, 0, 0, 0, policy.max_retries, policy.hedge,
                policy.breaker, policy.brownout, policy.breaker_window,
                policy.breaker_min_samples, policy.breaker_probes,
                len(policy.brownout_levels), 0,
            ],
            dtype=np.int64,
        )
        self._ip[Q_SEED:] = np.array([prep.seed & _MASK64], dtype=np.uint64).view(
            np.int64
        )
        # Per-request finish times and shed codes the kernel writes, and
        # its other run-long arrays, passed by address on every call
        # after the state's buffers (see _bind).
        n = prep.num_requests
        self._finish_scratch = np.zeros(n, dtype=np.float64)
        self._shed_scratch = np.zeros(n, dtype=np.uint8)
        self._static_arrays = (
            np.ascontiguousarray(prep.arrival, dtype=np.float64),
            np.ascontiguousarray(prep.bucket_idx, dtype=np.int32),
            np.ascontiguousarray(prep.slo, dtype=np.float64),
            self._bucket_value_col, self._shed_scratch, self._finish_scratch,
            np.empty(self.B, dtype=np.float64),   # due_dl scratch
            np.empty(self.B, dtype=np.int64),     # due_bv scratch
            np.empty(self.B, dtype=np.int64),     # due_b scratch
        )
        self._static = [array.ctypes.data for array in self._static_arrays]
        self._bound: Optional[tuple] = None
        self._bound_ptrs: List[Optional[int]] = []

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
            )
            price_full = svc[:, self.M]
            tables = self._tables[key] = _DesignTables(
                price_full=price_full,
                ref_price=float(price_full[self.ref_idx]),
                svc=svc,
                cold_ms=(
                    self.prep.config.cold_start_batches * float(price_full[self.B - 1])
                ),
            )
        return tables

    # ------------------------------------------------------------------
    # state lifecycle (Fleet.add/fail/recover/remove on _Rep state)
    # ------------------------------------------------------------------
    def initial_state(self) -> ColumnarFleetState:
        policy = self.policy
        B, M = self.B, self.M
        # Carried doubles: a full retry budget, no accepted SLO yet, the
        # brownout ladder's last change and the clock at zero.
        fv = np.concatenate(
            ([policy.retry_budget_burst, math.inf, 0.0, 0.0], self._fp)
        )
        iv = np.concatenate((np.zeros(I_COUNT, dtype=np.int64), self._ip))
        retries = policy.max_retries > 0
        if retries:
            iv[I_HEAP_CAP] = _HEAP_START
        state = ColumnarFleetState(
            replicas=[],
            live_ids=np.empty(0, dtype=np.int64),
            fv=fv,
            iv=iv,
            prices=np.empty(0, dtype=np.float64),
            rf=np.empty(0, dtype=np.float64),
            ri=np.empty(0, dtype=np.int64),
            li=np.empty(0, dtype=np.int32),
            qidx=np.empty((0, B, M), dtype=np.int64),
            qenq=np.empty((0, B, M), dtype=np.float64),
            qhedge=np.empty((0, B, M), dtype=np.int32) if policy.hedge else None,
            br_recent=(
                np.empty((0, policy.breaker_window), dtype=np.uint8)
                if policy.breaker else None
            ),
            h_due=np.empty(_HEAP_START, dtype=np.float64) if retries else None,
            h_key=np.empty((_HEAP_START, 3), dtype=np.int64) if retries else None,
        )
        self._add_replicas(state, self.prep.specs, now=0.0, cold=False)
        # Autoscaler construction snapshots total busy time (zero at t=0).
        state.busy_snapshot = 0.0
        return state

    def _add_replicas(
        self,
        state: ColumnarFleetState,
        specs: Sequence[ReplicaSpec],
        now: float,
        cold: bool,
    ) -> None:
        """Append one kernel row per spec, in id order."""
        n = len(state.replicas)
        tables = [self.tables_for(spec) for spec in specs]
        B = self.B
        # The engine starts idle; a cold start blocks the device until
        # now + cold_ms (router.block_until's max against zero).  A fresh
        # breaker is closed with no history (code 0, all counts 0).
        state.prices = _append_rows(
            state.prices, n, [(t.ref_price, t.price_full, t.svc) for t in tables]
        )
        state.rf = _append_rows(state.rf, n, [
            ((now + t.cold_ms) if cold else 0.0, 0.0, 1.0, math.inf, 0.0)
            for t in tables
        ])
        state.ri = _append_rows(state.ri, n, [(0, 0, np.zeros(5))] * len(specs))
        blank = np.zeros(B)
        state.li = _append_rows(
            state.li, n, [(0, blank, blank, blank)] * len(specs)
        )
        for name, fill in (
            ("qidx", 0), ("qenq", 0.0), ("qhedge", -1), ("br_recent", 0)
        ):
            rows = getattr(state, name)
            if rows is not None:
                shape = (len(specs),) + rows.shape[1:]
                blanks = np.full(shape, fill, dtype=rows.dtype)
                setattr(state, name, np.concatenate((rows, blanks)))
        state.iv[I_COUNT + Q_N] = n + len(specs)
        for rid, (spec, t) in enumerate(zip(specs, tables), start=n):
            state.replicas.append(
                _Rep(replica_id=rid, spec=spec, tables=t, added_ms=now)
            )
            if self.obs is not None:
                self.obs.on_replica(rid, spec.label, now, t.cold_ms if cold else 0.0)
        self._set_live(state)

    @staticmethod
    def _set_live(state: ColumnarFleetState) -> None:
        state.live_ids = np.array(
            [r.replica_id for r in state.replicas if r.live], dtype=np.int64
        )
        state.iv[I_COUNT + Q_L] = state.live_ids.shape[0]

    def _fail(self, state: ColumnarFleetState, rid: int, now: float, acc: _Accum):
        rep = state.replicas[rid] if rid < len(state.replicas) else None
        if rep is None or not rep.live:
            return  # unknown or already down — no-op, like Fleet.fail_replica
        rep.live = False
        rep.retired_ms = now
        rep.failures += 1
        rep.failed = True
        self._set_live(state)
        if self.obs is not None:
            self.obs.on_failure(rid, now)
        self._migrate(state, rid, now, acc)

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
        busy_until = state.rows().busy_until
        busy_until[rid] = max(float(busy_until[rid]), now + cold)
        if self.obs is not None:
            self.obs.on_recovery(rid, now, cold)
        rep.live = True
        if rep.retired_ms is not None:
            rep.downtime_ms += now - rep.retired_ms
        rep.retired_ms = None
        self._set_live(state)

    def _remove(self, state: ColumnarFleetState, rid: int, now: float, acc: _Accum):
        rep = state.replicas[rid]
        rep.live = False
        rep.retired_ms = now
        self._set_live(state)
        self._migrate(state, rid, now, acc)

    def _migrate(
        self, state: ColumnarFleetState, rid: int, now: float, acc: _Accum
    ) -> None:
        """``Fleet._migrate_pending``: evict in enqueue order, re-place at now."""
        rows = state.rows()
        depth = rows.depth[rid].tolist()
        idx_q = rows.qidx[rid].tolist()
        enq_q = rows.qenq[rid].tolist()
        evicted = sorted(
            (
                (enq_q[b][j], idx_q[b][j], b, j)
                for b in rows.order[rid, : rows.order_n[rid]].tolist()
                for j in range(depth[b])
            ),
            key=lambda e: e[0],
        )  # stable, like evict_all
        rows.depth[rid] = 0
        rows.next_dl[rid] = math.inf
        migrants = []
        for _enq, idx, b, j in evicted:
            mark = -1 if rows.qhedge is None else int(rows.qhedge[rid, b, j])
            if mark >= 0:
                # One copy of a hedged pair was queued here; the twin
                # (still queued elsewhere) carries the request alone —
                # drop this copy instead of migrating it and unmark the
                # twin, exactly like Fleet._migrate_pending.
                twin = mark >> 1
                pos = rows.qidx[twin, b, : rows.depth[twin, b]].tolist().index(idx)
                rows.qhedge[twin, b, pos] = -1
                continue
            migrants.append((idx, b))
        if migrants:
            end = self.prep.num_requests
            self._sweep(state, acc, end, end, now, migrants=migrants)

    # ------------------------------------------------------------------
    # autoscaler tick: gather the signals, AutoscalePolicy.decide, apply
    # ------------------------------------------------------------------
    def _tick(self, state: ColumnarFleetState, now: float, acc: _Accum) -> None:
        # The sweep up to this instant has post-passed every batch it
        # flushed, so the latency history is complete.
        rows = state.rows()
        live_ids = state.live_ids.tolist()
        live_n = len(live_ids)
        total_busy = 0.0
        for busy_ms in rows.busy_ms.tolist():  # id order, like _total_busy_ms
            total_busy += busy_ms
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
        utilization, p99_ratio = tick_signals(
            now - state.last_tick, total_busy - state.busy_snapshot, live_n,
            samples, state.min_slo,
        )
        # Down replicas queue nothing, so every row's depth counts.
        pending = rows.depth.sum(axis=1).tolist()
        depth = sum(pending)
        if self.obs is not None:
            # Same floats as Autoscaler.tick: busy/window accounting and the
            # sorted-percentile p99 are order-insensitive, so the counter
            # track is byte-identical across engines.
            self.obs.on_tick(now, utilization, p99_ratio, depth)
        state.last_tick = now
        state.busy_snapshot = total_busy

        state.cooldown, action, reason = self.prep.autoscale.decide(
            state.cooldown, utilization, p99_ratio, depth, live_n, self.M
        )
        if action is None:
            return
        if action == SCALE_UP:
            scale_spec = self.prep.scale_spec or state.replicas[0].spec
            self._add_replicas(state, [scale_spec], now=now, cold=True)
        else:
            victim = min(live_ids, key=lambda rid: (pending[rid], -rid))
            self._remove(state, victim, now, acc)
        event = ScaleEvent(now, action, reason, len(state.live_ids))
        state.events.append(event)
        if self.obs is not None:
            self.obs.on_scale(event)

    # ------------------------------------------------------------------
    # kernel sweeps
    # ------------------------------------------------------------------
    def _sweep(
        self,
        state: ColumnarFleetState,
        acc: _Accum,
        lo: int,
        hi: int,
        limit: float = -math.inf,
        inclusive: bool = False,
        advance: bool = False,
        migrants: Sequence[Tuple[int, int]] = (),
    ) -> None:
        """One step of the run up to ``limit``, through the kernel.

        In order: re-place ``migrants`` (evicted ``(request, bucket)``
        pairs) at ``limit``; arrivals ``[lo, hi)``, each after the retries
        due before it; the retries due before ``limit`` — and at it when
        ``inclusive``, since a control event's instant orders retries
        after fail/recover/gray events but before a tick (``_RETRY <
        _TICK``); with ``advance``, the batching deadlines due by
        ``limit`` (``Fleet.advance``).  Then the post-pass.
        """
        if not (
            hi > lo
            or migrants
            or (state.iv[I_HEAP] and state.h_due[0] <= limit)
            or (advance and state.next_dl.min() <= limit)
        ):
            return
        sheds, events = self._run_kernel(
            state, acc, lo, hi, limit, inclusive, advance, migrants
        )
        if sheds.shape[0]:
            acc.shed_parts.append((sheds, self._shed_scratch[sheds]))
        self._post_pass(state, acc, lo, hi, sheds, events)

    def _post_pass(
        self,
        state: ColumnarFleetState,
        acc: _Accum,
        lo: int,
        hi: int,
        sheds: np.ndarray,
        events: Optional[list],
    ) -> None:
        """Turn the logged decision columns into everything that reads them.

        The one place flushed batches become observer records (batch
        spans with the worst-request critical path, completions and
        SLO-met counts) and autoscaler latency history.  It also records
        the sweep's arrivals ``[lo, hi)`` and its ``sheds`` — in bulk when
        ``events`` is None (all sheds are arrivals, of one reason), else
        by replaying the kernel's shed, breaker and brownout log in
        decision order.  It runs at the end of every sweep, so each
        consumer sees every batch flushed before it.  Each value is the
        same IEEE operation on the same operands as a per-batch loop, and
        the observer's aggregates are multiset functions (trace export is
        sorted), so record order never changes a byte.
        """
        batches, acc.logged = acc.logged, []
        obs = self.obs
        prep = self.prep
        if obs is not None:
            if hi > lo:
                obs.on_arrivals(prep.arrival[lo:hi])
            if events is None:
                if sheds.shape[0]:
                    reason = SHED_REASON_OF_CODE[int(self._shed_scratch[sheds[0]])]
                    obs.on_sheds(prep.arrival[sheds], reason)
            else:
                for kind, a, b, t in events:
                    if kind == _native.EV_SHED:
                        obs.on_shed(t, SHED_REASON_OF_CODE[a])
                    elif kind == _native.EV_BREAKER:
                        obs.on_breaker(a, t, _BREAKER_STATES[b])
                    else:
                        obs.on_brownout(t, a)
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

    def _run_kernel(
        self,
        state: ColumnarFleetState,
        acc: _Accum,
        lo: int,
        hi: int,
        limit: float,
        inclusive: bool,
        advance: bool,
        migrants: Sequence[Tuple[int, int]],
    ) -> Tuple[np.ndarray, Optional[list]]:
        """Run the C kernel on the state's buffers (see :meth:`_sweep`).

        The kernel runs over chunks of at most :data:`SWEEP_CHUNK`
        arrivals, updating the state in place, so its batch logs are
        sized per chunk, never per trace; they are NULL when nothing
        reads them.  A call that fills the retry heap stops early, and
        resumes once the heap has doubled.

        Returns:
            The indices of the requests finally shed, and the observer
            events ``(kind, a, b, ms)`` in decision order — ``None``
            without an observer, or when the only sheds are arrivals of
            a run with every mechanism off (ascending, one reason).
        """
        lib = _native.load()
        policy = self.policy
        L = int(state.live_ids.shape[0])
        B = self.B
        M = self.M
        fv, iv = state.fv, state.iv
        fp = fv[F_COUNT:]
        is_, ip = iv[:I_COUNT], iv[I_COUNT:]
        ip[Q_MIGRANTS] = len(migrants)
        moved = np.array(migrants, dtype=np.int64) if migrants else None

        # Logs.  A call completes or finally sheds each of its arrivals,
        # queued requests, migrants and pending retries at most once.
        bound = (hi - lo) + L * B * M + len(migrants) + int(is_[I_HEAP])
        done_log = np.empty(bound, dtype=np.int64)
        # Sheds other than arrivals of an all-off run go to a log.
        logged_sheds = policy.enabled or bool(migrants)
        shed_log = np.empty(bound, dtype=np.int64) if logged_sheds else None
        logging = self._logging
        done_enq = log_ints = log_times = None
        ev_i = ev_t = None
        events: Optional[list] = [] if logged_sheds and self.obs is not None else None
        if events is not None:
            # The kernel stops early rather than overflow it; any size that
            # holds the migrants' and one step's events works.
            room = L * (B + 1) + len(policy.brownout_levels) + 4
            is_[I_EV_CAP] = (
                2 * min(hi - lo + int(is_[I_HEAP]), SWEEP_CHUNK) + 4 * room
                + len(migrants) * (B + 2)
            )
            ev_i = np.empty((is_[I_EV_CAP], 3), dtype=np.int32)
            ev_t = np.empty(is_[I_EV_CAP], dtype=np.float64)

        done_at, shed_at = _ptr(done_log), _ptr(shed_log)
        tail_ptrs = [_ptr(a) for a in (ev_i, ev_t, moved)]
        written = 0
        shed_n = 0
        pos = lo
        while True:
            if state.h_due is not None and is_[I_HEAP] == is_[I_HEAP_CAP]:
                self._grow_heap(state)
            end = min(pos + SWEEP_CHUNK, hi)
            last = end == hi
            queued = L * B * M + int(ip[Q_MIGRANTS]) + int(is_[I_HEAP])
            cap = (end - pos) + queued
            if cap > _native.INDEX_LIMIT:
                raise ValueError(
                    f"a kernel call over {end - pos} arrivals with up to "
                    f"{queued} queued or retrying requests exceeds the "
                    f"kernel's int32 index limit of {_native.INDEX_LIMIT}"
                )
            if logging and (log_ints is None or log_ints.shape[0] < cap):
                done_enq = np.empty(cap, dtype=np.float64)
                log_ints = np.empty((cap, 4), dtype=np.int32)
                log_times = np.empty((cap, 3), dtype=np.float64)
            fp[P_LIMIT] = limit if last else -math.inf
            ip[Q_INCLUSIVE] = inclusive and last
            ip[Q_ADVANCE] = advance and last
            lib.arrival_run(
                pos, end, *self._bind(state), *self._static,
                done_at + 8 * written,
                _ptr(done_enq), _ptr(log_ints), _ptr(log_times),
                None if shed_at is None else shed_at + 8 * shed_n,
                *tail_ptrs,
            )
            ip[Q_MIGRANTS] = 0  # placed; a resumed call must not repeat them
            if is_[I_ERROR]:
                raise RuntimeError(
                    f"hedged twin of request {int(is_[I_ERROR]) - 1} was not "
                    f"cancellable — hedge bookkeeping out of sync"
                )
            count, flushes = int(is_[I_DONE]), int(is_[I_FLUSHES])
            if logging and flushes:
                acc.logged.append(_Batches.of(
                    log_ints[:flushes], log_times[:flushes],
                    done_log[written : written + count].copy(),
                    done_enq[:count].copy(),
                ))
            written += count
            shed_n += int(is_[I_SHEDS])
            if events is not None and is_[I_EVENTS]:
                n = int(is_[I_EVENTS])
                events.extend(zip(*ev_i[:n].T.tolist(), ev_t[:n].tolist()))
            pos = int(is_[I_STOP])
            if last and is_[I_FINISHED]:
                break
        done = done_log[:written].copy()
        acc.done_parts.append((done, self._finish_scratch[done]))
        if shed_log is not None:
            return shed_log[:shed_n].copy(), events
        shed = self._shed_scratch[lo:hi]
        return np.flatnonzero(shed).astype(np.int64, copy=False) + lo, None

    def _bind(self, state: ColumnarFleetState) -> List[Optional[int]]:
        """The kernel's scalar and state arguments: the addresses of the
        state's buffers, recomputed only when one was replaced."""
        buffers = (
            state.fv, state.iv, state.prices, state.rf, state.ri, state.li,
            state.live_ids, state.qidx, state.qenq, state.qhedge,
            state.br_recent, state.h_due, state.h_key,
        )
        if self._bound is None or any(map(operator.is_not, buffers, self._bound)):
            self._bound = buffers
            self._bound_ptrs = [_ptr(a) for a in buffers]
        return self._bound_ptrs

    @staticmethod
    def _grow_heap(state: ColumnarFleetState) -> None:
        n = state.h_due.shape[0]
        state.h_due = np.concatenate((state.h_due, np.empty(n)))
        state.h_key = np.concatenate((state.h_key, np.empty((n, 3), dtype=np.int64)))
        state.iv[I_HEAP_CAP] = 2 * n

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
        arrival = self.prep.arrival
        pos = alo
        for event in events:
            time_ms, kind = event[0], event[1]
            # arrivals strictly before the control event — and also the
            # arrivals *at* a tick's timestamp (arrival kind < tick kind;
            # every other control kind precedes arrivals at its instant).
            side = "right" if kind > _ARRIVAL else "left"
            j = int(np.searchsorted(arrival[pos:ahi], time_ms, side=side)) + pos
            self._sweep(
                state, acc, pos, j, time_ms, inclusive=kind == _TICK, advance=True
            )
            pos = j
            if kind == _TICK:
                self._tick(state, time_ms, acc)
            elif kind == _FAIL:
                self._fail(state, event[3], time_ms, acc)
            elif kind == _GRAY_START:
                rid, slowdown, end_ms = event[3]
                # Unknown ids are a no-op, like Fleet.set_slowdown — but
                # the trace instant is still recorded (the plan said so).
                if rid < len(state.replicas):
                    state.rows().slowdown[rid] = slowdown
                if self.obs is not None:
                    self.obs.on_gray(rid, time_ms, end_ms, slowdown)
            elif kind == _GRAY_END:
                rid = event[3]
                if rid < len(state.replicas):
                    state.rows().slowdown[rid] = 1.0
            else:  # _RECOVER
                self._recover(state, event[3], time_ms)
            if time_ms > state.fv[F_NOW]:
                state.fv[F_NOW] = time_ms
        self._sweep(state, acc, pos, ahi)
        return acc.to_partial()

    def drain_retries(self, state: ColumnarFleetState) -> ShardPartial:
        """Fire every retry still scheduled past the last window's events.

        The event loop's heap empties itself — retries are first-class
        events — so the columnar run drains the retry heap explicitly
        before the final queue drain.
        """
        acc = _Accum()
        end = self.prep.num_requests
        self._sweep(state, acc, end, end, math.inf, inclusive=True)
        return acc.to_partial()

    def drain(self, state: ColumnarFleetState) -> ShardPartial:
        """``Fleet.drain``: flush every remaining queue at its deadline.

        Replicas in id order, each bucket in ``(deadline, bucket)`` order
        — what advancing to an infinite clock does.
        """
        acc = _Accum()
        end = self.prep.num_requests
        self._sweep(state, acc, end, end, math.inf, inclusive=True, advance=True)
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
        rows = state.rows()
        busy_ms = rows.busy_ms.tolist()
        batches = rows.batches.tolist()
        served = rows.served.tolist()
        replica_rows = [
            build_replica_stats(
                rep.replica_id,
                rep.spec.label,
                rep.added_ms,
                rep.retired_ms,
                rep.failures,
                busy_ms[rep.replica_id],
                batches[rep.replica_id],
                served[rep.replica_id],
                rep.downtime_ms,
                duration,
            )
            for rep in state.replicas
        ]
        chaos = None
        if prep.chaos_active:
            # Breaker transitions are counted per breaker (the kernel
            # carries them in its breaker rows, zero without breakers);
            # the rollup here equals the event loop's live tally.
            opens, closes = rows.br[:, 3:].sum(axis=0).tolist()
            chaos = ChaosStats(
                **dict(zip(
                    _KERNEL_COUNTERS, state.iv[I_RETRIES : I_DEESC + 1].tolist()
                )),
                breaker_opens=opens,
                breaker_closes=closes,
            )
        stats = build_fleet_stats_columns(
            duration_ms=duration,
            tenant_names=prep.tenant_names,
            tenant_idx=prep.tenant_idx,
            slo_ms=prep.slo,
            arrival_ms=prep.arrival,
            finish_ms=finish,
            shed_code=shed,
            migrations=int(state.iv[I_MIGRATIONS]),
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


def _kernel_wanted(native: Optional[bool]) -> bool:
    """Whether a run takes the C kernel (else the analytic event loop).

    See :func:`run_scenario_columnar`'s ``native``; an unavailable kernel
    raises when required and is recorded as a warning when auto-detected.
    """
    if native is None:
        setting = os.environ.get("REPRO_COLUMNAR_NATIVE")
        if setting == "0":
            return False
        native = True if setting == "1" else None
    if native is False:
        return False
    if _native.available():
        return True
    if native:
        raise RuntimeError(
            f"the columnar C kernel is required but unavailable: "
            f"{_native.build_error()}"
        )
    warnings.warn(
        f"the columnar C kernel is unavailable ({_native.build_error()}); "
        "running the analytic event loop, whose reports are byte-identical",
        RuntimeWarning,
        stacklevel=3,
    )
    return False


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
    native: Optional[bool] = None,
    obs=None,
    chaos: Optional[ChaosPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
) -> FleetReport:
    """Run one scenario on the columnar engine.

    Same arguments as :func:`repro.fleet.runner.run_scenario`, same
    report — byte-identical ``render()`` and ``to_json()`` output for
    equal inputs (the differential suite pins this against the
    event-loop analytic engine on every scenario class).  The model's
    weights are never touched: the columnar engine is inherently
    analytic, pricing every batch from the accelerator simulator's
    memoized schedule, exactly like ``analytic=True``.  Every sweep,
    resilient or not, runs in the C kernel; without one the run goes to
    that analytic event loop instead.

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
        shards: Split the run into this many deterministic time windows,
            run in turn in this process.
        native: ``True`` requires the C kernel, ``False`` runs the
            analytic event loop.  ``None`` reads ``REPRO_COLUMNAR_NATIVE``
            (``1`` requires, ``0`` turns the kernel off) and otherwise
            auto-detects, falling back to the event loop with a
            :class:`RuntimeWarning` that names
            :func:`repro.fleet._native.build_error`.  Results are
            identical either way.
        obs: Optional :class:`repro.obs.FleetObserver`.  Never changes a
            report byte; metric streams are byte-identical to the
            event-loop runner's at any shard count.
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

    Raises:
        RuntimeError: If the C kernel is required (``native=True`` or
            ``REPRO_COLUMNAR_NATIVE=1``) and cannot be built; the message
            carries :func:`repro.fleet._native.build_error`.
        ValueError: If ``shards < 1``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if not _kernel_wanted(native):
        return run_scenario(
            scenario, model, tokenizer, specs, fleet_config,
            autoscale=autoscale, scale_spec=scale_spec, failures=failures,
            seed=seed, rate_scale=rate_scale, duration_scale=duration_scale,
            analytic=True, obs=obs, chaos=chaos, resilience=resilience,
        )
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
    engine = ColumnarFleetEngine(prep, obs=obs)
    state = engine.initial_state()
    windows = shard_windows(prep, shards)
    partials = []
    for k, (alo, ahi, events) in enumerate(windows):
        partials.append(engine.run_window(state, alo, ahi, events))
        if obs is not None and k + 1 < len(windows):
            # Stream closed windows at each shard edge.  The watermark
            # backs off to the earliest pending batching deadline: a
            # queue carried across the boundary may still flush (and
            # finish) before the edge itself.
            edge = prep.duration_ms * (k + 1) / shards
            next_dl = state.next_dl
            pending = next_dl[np.isfinite(next_dl)].tolist()
            if state.iv[I_HEAP]:
                # A scheduled retry may still shed (or admit work that
                # flushes) at its due instant — hold the watermark back
                # to it.
                pending.append(float(state.h_due[0]))
            obs.advance(min([edge] + pending))
    if state.iv[I_HEAP]:
        partials.append(engine.drain_retries(state))
    partials.append(engine.drain(state))
    report = engine.finalize(state, partials)
    if obs is not None:
        obs.finalize(report)
    return report
