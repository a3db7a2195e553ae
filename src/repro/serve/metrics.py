"""Serving statistics: latency percentiles, throughput, efficiency ratios.

All times are simulated milliseconds from the engine's deterministic clock,
so every number here is reproducible bit-for-bit across runs — the serving
analogue of the simulator's cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values``.

    Implemented here (rather than ``np.percentile``) so its exact
    semantics are pinned: it is the oracle :func:`latency_summary` must
    match bit for bit.

    Args:
        values: Non-empty sequence of samples (any order).
        q: Percentile rank in [0, 100].

    Returns:
        The linearly interpolated percentile value.

    Raises:
        ValueError: If ``q`` is out of range or ``values`` is empty.  The
            range is checked first: a bad ``q`` is the caller's bug.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    # len(), not truthiness, so numpy columns take the same branches as
    # plain lists.
    if len(values) == 0:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    frac = rank - lower
    return float(ordered[lower] * (1.0 - frac) + ordered[upper] * frac)


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/max of one latency column, all 0.0 when empty.

    The one latency summary behind every serving and fleet report.  Only
    seven order statistics are read (the p50/p95/p99 bracket pairs and
    the max), so one introselect pass places exactly those instead of
    sorting the column: the kth element of a partition is the same double
    a sort puts there, and the interpolation is :func:`percentile`'s
    arithmetic on the same scalars.  The mean is ``np.cumsum``'s
    left-to-right accumulation, the order ``sum(list)`` uses.  So every
    field equals the :func:`percentile` / ``sum(list) / n`` oracle bit
    for bit, which the tests pin.

    Args:
        latencies: Latencies in any order (a float64 column or a list).

    Returns:
        ``{"p50", "p95", "p99", "mean", "max"}`` as Python floats.
    """
    latencies = np.asarray(latencies, dtype=np.float64)
    n = int(latencies.shape[0])
    if n == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    brackets = {}
    wanted = {n - 1}
    for q in (50, 95, 99):
        rank = (q / 100.0) * (n - 1)
        lower = int(rank)
        upper = min(lower + 1, n - 1)
        brackets[q] = (rank, lower, upper)
        wanted.update((lower, upper))
    part = np.partition(latencies, sorted(wanted))

    def interp(q: int) -> float:
        rank, lower, upper = brackets[q]
        frac = rank - lower
        return float(part[lower] * (1.0 - frac) + part[upper] * frac)

    return {
        "p50": interp(50),
        "p95": interp(95),
        "p99": interp(99),
        "mean": float(np.cumsum(latencies)[-1]) / n,
        "max": float(part[n - 1]),
    }


@dataclass
class ServingStats:
    """Aggregate view of one serving run (the engine's ``stats()`` output)."""

    num_requests: int
    num_batches: int
    makespan_ms: float          # first arrival -> last batch completion
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    max_latency_ms: float
    mean_queue_ms: float
    throughput_rps: float       # requests per simulated second
    cache_hit_rate: float
    padding_efficiency: float   # real tokens / padded tokens executed
    mean_batch_size: float
    slo_attainment: float       # fraction of requests meeting the SLO (1.0 if no SLO)
    device_busy_ms: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "ServingStats":
        """The well-defined zero-requests stats object.

        A degenerate trace — everything shed, or nothing submitted — must
        still summarize cleanly: every count is 0, every latency/ratio is
        0.0, and ``slo_attainment`` is 1.0 (no request missed its SLO).
        """
        return cls(
            num_requests=0,
            num_batches=0,
            makespan_ms=0.0,
            p50_latency_ms=0.0,
            p95_latency_ms=0.0,
            p99_latency_ms=0.0,
            mean_latency_ms=0.0,
            max_latency_ms=0.0,
            mean_queue_ms=0.0,
            throughput_rps=0.0,
            cache_hit_rate=0.0,
            padding_efficiency=1.0,
            mean_batch_size=0.0,
            slo_attainment=1.0,
            device_busy_ms={},
        )

    def device_utilization(self) -> Dict[int, float]:
        """Busy fraction of the makespan, per device."""
        if self.makespan_ms <= 0:
            return {device: 0.0 for device in self.device_busy_ms}
        return {
            device: busy / self.makespan_ms
            for device, busy in self.device_busy_ms.items()
        }

    def render(self) -> str:
        """Human-readable multi-line summary (CLI output)."""
        lines = [
            f"requests:           {self.num_requests}",
            f"batches:            {self.num_batches}  (mean size {self.mean_batch_size:.2f})",
            f"makespan:           {self.makespan_ms:.2f} ms",
            f"throughput:         {self.throughput_rps:.2f} req/s",
            f"latency p50/p95/p99: {self.p50_latency_ms:.2f} / "
            f"{self.p95_latency_ms:.2f} / {self.p99_latency_ms:.2f} ms",
            f"latency mean/max:   {self.mean_latency_ms:.2f} / {self.max_latency_ms:.2f} ms",
            f"mean queue wait:    {self.mean_queue_ms:.2f} ms",
            f"cache hit rate:     {self.cache_hit_rate * 100:.1f}%",
            f"padding efficiency: {self.padding_efficiency * 100:.1f}%",
            f"SLO attainment:     {self.slo_attainment * 100:.1f}%",
        ]
        for device, util in sorted(self.device_utilization().items()):
            lines.append(f"device {device} utilization: {util * 100:.1f}%")
        return "\n".join(lines)


def build_stats(
    latencies_ms: List[float],
    queue_ms: List[float],
    num_batches: int,
    makespan_ms: float,
    cache_hit_rate: float,
    real_tokens: int,
    padded_tokens: int,
    slo_met: int,
    device_busy_ms: Dict[int, float],
) -> ServingStats:
    """Assemble :class:`ServingStats` from the engine's raw tallies.

    Args:
        latencies_ms: Per-request end-to-end latency (arrival -> finish).
        queue_ms: Per-request queueing delay (arrival -> execution start).
        num_batches: Number of executed batches.
        makespan_ms: First arrival -> last batch completion.
        cache_hit_rate: Tokenization-cache hit fraction.
        real_tokens: Total true tokens executed.
        padded_tokens: Total padded tokens executed.
        slo_met: Count of requests that met the SLO.
        device_busy_ms: Busy milliseconds per device id.

    Returns:
        The aggregated :class:`ServingStats`; when no request completed
        (a fully shed trace is a legitimate outcome at the fleet layer),
        the well-defined :meth:`ServingStats.empty` object.
    """
    n = len(latencies_ms)
    if n == 0:
        return ServingStats.empty()
    latency = latency_summary(latencies_ms)
    return ServingStats(
        num_requests=n,
        num_batches=num_batches,
        makespan_ms=makespan_ms,
        p50_latency_ms=latency["p50"],
        p95_latency_ms=latency["p95"],
        p99_latency_ms=latency["p99"],
        mean_latency_ms=latency["mean"],
        max_latency_ms=latency["max"],
        mean_queue_ms=sum(queue_ms) / n if queue_ms else 0.0,
        throughput_rps=n / (makespan_ms / 1000.0) if makespan_ms > 0 else float("inf"),
        cache_hit_rate=cache_hit_rate,
        padding_efficiency=real_tokens / padded_tokens if padded_tokens else 1.0,
        mean_batch_size=n / num_batches if num_batches else 0.0,
        slo_attainment=slo_met / n,
        device_busy_ms=dict(device_busy_ms),
    )
