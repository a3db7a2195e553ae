"""The serving engine: request path over the integer model + simulator.

``ServingEngine`` is an offline, trace-driven serving simulator with a real
execution path: logits come from an actual
:class:`~repro.quant.integer_model.IntegerBertForSequenceClassification`
batched forward, while *time* comes from the accelerator simulator's
cycle-level schedule.  The clock is simulated (milliseconds, driven by the
request trace), so a run is deterministic — same trace, same stats, same
logits, every time.

Request lifecycle::

    submit(text)  ->  tokenize (LRU cache)  ->  bucket queue (DynamicBatcher)
                 ->  flush (size/deadline)  ->  DeviceRouter dispatch
                 ->  batched integer encoder + per-row host head
                 ->  RequestResult (logits, timing, SLO)

Bit-exactness contract: the integer encoder is exact integer arithmetic,
invariant to batch composition and to padded length (attention reads only
each sequence's valid tokens as keys); it computes only those tokens, and
in its last layer only the rows the head reads (the model's
``head_rows``, the [CLS] row).  The float host head runs per row.  Engine
logits are therefore bit-identical to one-at-a-time ``model.forward`` on
the same encodings — the property ``tests/serve/test_engine.py`` locks in.

Latency-only ("analytic") mode: with ``ServingConfig(analytic=True)`` the
engine skips the model forward entirely and prices each batch purely from
the simulator's memoized schedule.  Every timing, SLO, and stats quantity
is byte-identical to executed mode (time never came from the host model in
the first place); only logits/predictions are absent.  This decouples
trace scale from model FLOPs — the mode behind million-request fleet
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.config import AcceleratorConfig
from ..accel.devices import FpgaDevice, ZCU102
from ..bert.tokenizer import WordPieceTokenizer
from ..quant.integer_model import IntegerBertForSequenceClassification
from .batching import Batch, BatchingPolicy, DynamicBatcher, PendingRequest
from .cache import LRUCache
from .metrics import ServingStats, build_stats
from .router import DeviceRouter

# The shared placeholder logits of analytic mode (latency-only execution):
# one frozen empty array instead of a fresh allocation per request.
_ANALYTIC_LOGITS = np.zeros(0)
_ANALYTIC_LOGITS.setflags(write=False)


@dataclass(frozen=True)
class ServingConfig:
    """Engine-level policy: batching, fleet size, cache, SLO.

    ``analytic`` selects the latency-only execution mode: batches are
    priced by the accelerator simulator's schedule exactly as in executed
    mode, but the integer model forward is skipped, so results carry no
    logits (``prediction`` is -1).  Every timing and stats quantity is
    identical to executed mode — the mode only decouples simulation scale
    from model FLOPs (million-request traces in seconds).
    """

    max_batch_size: int = 8
    max_wait_ms: float = 10.0
    buckets: Tuple[int, ...] = (16, 32, 48, 64)
    num_devices: int = 1
    cache_capacity: int = 1024
    slo_ms: Optional[float] = None
    analytic: bool = False

    def batching_policy(self) -> BatchingPolicy:
        return BatchingPolicy(
            max_batch_size=self.max_batch_size,
            max_wait_ms=self.max_wait_ms,
            buckets=self.buckets,
        )

    @property
    def max_seq_len(self) -> int:
        return self.buckets[-1]


@dataclass(frozen=True)
class Encoding:
    """Cached tokenizer output, padded to ``max_seq_len``."""

    input_ids: np.ndarray
    attention_mask: np.ndarray
    token_type_ids: np.ndarray
    length: int  # true token count (mask sum)


@dataclass
class Request:
    """One in-flight classification request."""

    request_id: int
    text_a: str
    text_b: Optional[str]
    arrival_ms: float
    encoding: Encoding
    cache_hit: bool


@dataclass
class RequestResult:
    """Completed request: model output plus full timing breakdown."""

    request_id: int
    logits: np.ndarray
    prediction: int
    arrival_ms: float
    start_ms: float        # batch execution start on the device
    finish_ms: float
    queue_ms: float        # arrival -> execution start
    service_ms: float      # batch residency on the device
    latency_ms: float      # arrival -> finish (the SLO quantity)
    device_id: int
    batch_id: int
    batch_size: int
    bucket: int
    length: int
    cache_hit: bool
    slo_met: bool


@dataclass(frozen=True)
class TraceRequest:
    """One line of an offline request trace."""

    text_a: str
    text_b: Optional[str]
    arrival_ms: float


class ServingEngine:
    """Dynamic-batching inference engine over the integer FQ-BERT model."""

    def __init__(
        self,
        model: IntegerBertForSequenceClassification,
        tokenizer: WordPieceTokenizer,
        config: ServingConfig = ServingConfig(),
        accel_config: Optional[AcceleratorConfig] = None,
        device: FpgaDevice = ZCU102,
        device_specs: Optional[Sequence[Tuple[AcceleratorConfig, FpgaDevice]]] = None,
    ):
        if config.max_seq_len > model.config.max_position_embeddings:
            raise ValueError(
                f"largest bucket {config.max_seq_len} exceeds the model's "
                f"max_position_embeddings {model.config.max_position_embeddings}"
            )
        self.model = model
        self.tokenizer = tokenizer
        self.config = config
        self.batcher = DynamicBatcher(config.batching_policy())
        self.router = DeviceRouter(
            model.config,
            num_devices=config.num_devices,
            accel_config=accel_config,
            device=device,
            specs=device_specs,
        )
        self.cache: LRUCache[Encoding] = LRUCache(config.cache_capacity)
        self.now_ms = 0.0
        self.results: Dict[int, RequestResult] = {}
        self._next_id = 0
        self._next_batch_id = 0
        self._first_arrival_ms: Optional[float] = None
        self._last_finish_ms = 0.0
        self._real_tokens = 0
        self._padded_tokens = 0
        # Observability seam: called as on_batch(requests, dispatch, bucket,
        # size) after each executed batch.  None (the default) keeps the hot
        # loop free of instrumentation work.
        self.on_batch = None

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        text_a: str,
        text_b: Optional[str] = None,
        arrival_ms: Optional[float] = None,
    ) -> int:
        """Enqueue one request at (simulated) ``arrival_ms``.

        Arrivals must be non-decreasing — the trace is a timeline, and the
        engine fires every batching deadline that falls before the new
        arrival *before* admitting it, exactly as a live engine would.

        Args:
            text_a: First text segment.
            text_b: Optional second segment (sentence-pair tasks).
            arrival_ms: Simulated arrival time; defaults to the current
                simulated clock.

        Returns:
            The request id (key into the results returned by :meth:`drain`).

        Raises:
            ValueError: If ``arrival_ms`` precedes the simulated clock.
        """
        arrival = self.now_ms if arrival_ms is None else float(arrival_ms)
        if arrival < self.now_ms:
            raise ValueError(
                f"arrivals must be non-decreasing: got {arrival} after {self.now_ms}"
            )
        for batch in self.batcher.due_batches(arrival):
            self._execute(batch)
        self.now_ms = arrival
        if self._first_arrival_ms is None:
            self._first_arrival_ms = arrival

        encoding, cache_hit = self._encode(text_a, text_b)
        request = Request(
            request_id=self._next_id,
            text_a=text_a,
            text_b=text_b,
            arrival_ms=arrival,
            encoding=encoding,
            cache_hit=cache_hit,
        )
        self._next_id += 1
        full = self.batcher.add(
            PendingRequest(payload=request, length=encoding.length, enqueue_ms=arrival),
            now_ms=arrival,
        )
        if full is not None:
            self._execute(full)
        return request.request_id

    def advance(self, now_ms: float) -> None:
        """Advance the simulated clock, firing every due batching deadline.

        The cluster-layer hook: a fleet drives many engines off one shared
        clock, and an idle replica must still flush a partially full batch
        whose deadline passed even if it never sees another ``submit``.
        Advancing backwards is a no-op (the clock is monotonic).

        Args:
            now_ms: Target simulated time.
        """
        for batch in self.batcher.due_batches(now_ms):
            self._execute(batch)
        if now_ms > self.now_ms:
            self.now_ms = now_ms

    def cancel_pending(self, request_id: int) -> bool:
        """Cancel one queued-but-unexecuted request (the hedge seam).

        When a hedged request's other copy dispatches first, the fleet
        cancels this engine's still-queued copy so it never executes.
        Already-executed requests cannot be cancelled (their batch ran).

        Args:
            request_id: Id returned by :meth:`submit`.

        Returns:
            True iff a queued request was removed.
        """
        return self.batcher.cancel(request_id) is not None

    def evict_pending(self) -> List[Request]:
        """Pull every queued-but-unexecuted request out of the batcher.

        The failover hook: when this engine's replica fails or drains for
        scale-down, its queued requests migrate to another replica instead
        of executing here.  Results for already-executed batches are kept —
        only unflushed queue contents move.

        Returns:
            The evicted :class:`Request` objects, oldest first.
        """
        return [pending.payload for pending in self.batcher.evict_all()]

    def drain(self) -> List[RequestResult]:
        """Complete all pending work (deadlines fire in order).

        Returns:
            Every completed :class:`RequestResult` so far, ordered by
            request id.
        """
        while self.batcher.pending:
            deadline = self.batcher.next_deadline()
            self.now_ms = max(self.now_ms, deadline)
            for batch in self.batcher.due_batches(self.now_ms):
                self._execute(batch)
        return [self.results[rid] for rid in sorted(self.results)]

    def run_trace(self, trace: Sequence[TraceRequest]) -> List[RequestResult]:
        """Submit a whole trace (sorted by arrival) and drain.

        Args:
            trace: Offline request trace; submitted in arrival order.

        Returns:
            Every completed :class:`RequestResult`, ordered by request id.
        """
        for item in sorted(trace, key=lambda t: t.arrival_ms):
            self.submit(item.text_a, item.text_b, arrival_ms=item.arrival_ms)
        return self.drain()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def stats(self) -> ServingStats:
        """Aggregate statistics over all completed requests.

        Returns:
            The run's :class:`~repro.serve.metrics.ServingStats`.

        Raises:
            ValueError: If no request has completed yet.
        """
        completed = [self.results[rid] for rid in sorted(self.results)]
        if not completed:
            raise ValueError("no completed requests; submit + drain first")
        start = self._first_arrival_ms or 0.0
        return build_stats(
            latencies_ms=[r.latency_ms for r in completed],
            queue_ms=[r.queue_ms for r in completed],
            num_batches=self._next_batch_id,
            makespan_ms=self._last_finish_ms - start,
            cache_hit_rate=self.cache.hit_rate,
            real_tokens=self._real_tokens,
            padded_tokens=self._padded_tokens,
            slo_met=sum(r.slo_met for r in completed),
            device_busy_ms=self.router.busy_ms_by_device(),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _encode(self, text_a: str, text_b: Optional[str]) -> Tuple[Encoding, bool]:
        key = (text_a, text_b)
        cached = self.cache.get(key)
        if cached is not None:
            return cached, True
        ids, mask, segments = self.tokenizer.encode(
            text_a, text_b, max_length=self.config.max_seq_len
        )
        encoding = Encoding(
            input_ids=ids,
            attention_mask=mask,
            token_type_ids=segments,
            length=int(mask.sum()),
        )
        self.cache.put(key, encoding)
        return encoding, False

    def _execute(self, batch: Batch) -> None:
        """Run one flushed batch: model forward + simulated device timing.

        Requests that hit the tokenization cache share one
        :class:`Encoding` object, so a batch of popular texts contains
        duplicate rows.  The integer encoder is row-independent (exact
        arithmetic, batch-invariant), so each distinct encoding runs once
        and its logits fan back out to every duplicate — bit-identical to
        running the full batch, at a fraction of the compute.  The host
        encoder skips pad tokens and computes only the head's rows in its
        last layer.  Simulated device timing still models the full flushed
        batch (the padded shape the accelerator would execute), so neither
        dedup nor packing changes the latency accounting, only host compute.

        In analytic mode the model forward is skipped entirely: every
        number below except the logits/prediction comes from the batch
        shape and the router's memoized schedule, so the timing produced
        here is identical in both modes.
        """
        bucket = batch.bucket
        requests: List[Request] = [p.payload for p in batch.requests]
        if self.config.analytic:
            logits = None
        else:
            row_of: Dict[int, int] = {}
            distinct: List[Request] = []
            rows = []
            for request in requests:
                row = row_of.get(id(request.encoding))
                if row is None:
                    row = row_of[id(request.encoding)] = len(distinct)
                    distinct.append(request)
                rows.append(row)
            input_ids = np.stack([r.encoding.input_ids[:bucket] for r in distinct])
            mask = np.stack([r.encoding.attention_mask[:bucket] for r in distinct])
            segments = np.stack([r.encoding.token_type_ids[:bucket] for r in distinct])

            # Batched integer encoder (exact arithmetic, batch-invariant) over
            # the valid tokens, returning only the rows the head reads, then
            # the float host head per row — see the module docstring's contract.
            codes = self.model.encode(input_ids, mask, segments, rows=self.model.head_rows)
            logits = self.model.classify_rows(codes)[rows]

        dispatch = self.router.dispatch(bucket, batch.size, ready_ms=batch.flush_ms)
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self._real_tokens += batch.real_tokens
        self._padded_tokens += batch.padded_tokens
        if dispatch.finish_ms > self._last_finish_ms:
            self._last_finish_ms = dispatch.finish_ms

        slo_ms = self.config.slo_ms
        results = self.results
        for i, request in enumerate(requests):
            latency = dispatch.finish_ms - request.arrival_ms
            results[request.request_id] = RequestResult(
                request_id=request.request_id,
                logits=_ANALYTIC_LOGITS if logits is None else logits[i],
                prediction=-1 if logits is None else int(logits[i].argmax()),
                arrival_ms=request.arrival_ms,
                start_ms=dispatch.start_ms,
                finish_ms=dispatch.finish_ms,
                queue_ms=dispatch.start_ms - request.arrival_ms,
                service_ms=dispatch.service_ms,
                latency_ms=latency,
                device_id=dispatch.device_id,
                batch_id=batch_id,
                batch_size=batch.size,
                bucket=bucket,
                length=request.encoding.length,
                cache_hit=request.cache_hit,
                slo_met=slo_ms is None or latency <= slo_ms,
            )
        if self.on_batch is not None:
            self.on_batch(requests, dispatch, bucket, batch.size)


def generate_trace(
    texts: Sequence[Tuple[str, Optional[str]]],
    num_requests: int,
    mean_interarrival_ms: float = 2.0,
    seed: int = 0,
) -> List[TraceRequest]:
    """Sample a Poisson-arrival request trace from a text pool.

    Texts are drawn with replacement, so popular inputs repeat — the
    repetition the LRU tokenization cache exists to exploit.  Fully
    deterministic given ``seed``.

    Args:
        texts: Pool of ``(text_a, text_b)`` pairs to draw from.
        num_requests: Trace length (>= 1).
        mean_interarrival_ms: Mean of the exponential inter-arrival gap.
        seed: RNG seed; equal seeds produce identical traces.

    Returns:
        Trace requests in arrival order.
    """
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if not texts:
        raise ValueError("text pool is empty")
    rng = np.random.default_rng(seed)
    arrival = 0.0
    trace: List[TraceRequest] = []
    for _ in range(num_requests):
        arrival += float(rng.exponential(mean_interarrival_ms))
        text_a, text_b = texts[int(rng.integers(len(texts)))]
        trace.append(TraceRequest(text_a=text_a, text_b=text_b, arrival_ms=arrival))
    return trace
