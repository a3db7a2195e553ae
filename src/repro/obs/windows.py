"""Rolling-window streams over the simulated clock.

Splits the run into fixed-width windows (``window_ms``) and aggregates,
per window: arrivals, sheds by reason, completions, SLO attainment,
latency p99/mean/max, goodput, queue depth (admitted-but-unfinished
requests at window end), and autoscaler/failure events.  Windows are
emitted as JSONL lines — during the run when a stream is attached, and in
full via :attr:`WindowTracker.lines` after :meth:`flush_all`.

Determinism contract: every per-window aggregate is a pure function of
the *multiset* of records in that window (counts are summed; latency
percentiles come from a :class:`~repro.obs.analysis.sketch.QuantileSketch`
built at close, whose merge is exactly order-independent), and windows
are flushed in ascending index order.  Two engines that record the same
events in different orders therefore emit byte-identical JSONL.

Flush safety rides the watermark invariant: ``flush(T)`` only closes
windows whose end lies at or before ``T``, and callers only advance the
watermark once every record at or before ``T`` has been made (the event
loop advances after draining due work; the columnar engine advances to
``min(shard edge, earliest pending deadline)``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .analysis.sketch import QuantileSketch

__all__ = ["WindowTracker"]


@dataclass
class _Win:
    """Accumulator for one window; picklable for shard-partial transport."""

    arrivals: int = 0
    completions: int = 0
    slo_met: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    scale_up: int = 0
    scale_down: int = 0
    failures: int = 0
    recoveries: int = 0

    def merge(self, other: "_Win") -> None:
        self.arrivals += other.arrivals
        self.completions += other.completions
        self.slo_met += other.slo_met
        for reason, count in other.shed.items():
            self.shed[reason] = self.shed.get(reason, 0) + count
        self.latencies.extend(other.latencies)
        self.scale_up += other.scale_up
        self.scale_down += other.scale_down
        self.failures += other.failures
        self.recoveries += other.recoveries


class WindowTracker:
    def __init__(self, window_ms: float = 20.0, stream=None, on_close=None) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.window_ms = float(window_ms)
        self.stream = stream
        # callable(index, win, sketch, shed_total), invoked as each window
        # closes — the observer hangs the run-level sketch merge and the
        # burn-rate alert evaluator off this seam.
        self.on_close = on_close
        self._closed: List[tuple] = []  # flushed, not yet rendered to JSON
        self._lines: List[str] = []
        self._live: Dict[int, _Win] = {}
        self._master: Dict[int, _Win] = {}
        self._next_flush = 0
        self._depth = 0  # admitted-but-unfinished carry across windows
        # (index, goodput_rps) per closed window, in flush order — the
        # compact series MTTR is computed from at finalize.
        self.goodput_series: List[tuple] = []

    # ------------------------------------------------------------------
    # recording (always into the live buffer)
    # ------------------------------------------------------------------
    def _win(self, t_ms: float) -> _Win:
        index = int(t_ms / self.window_ms)
        win = self._live.get(index)
        if win is None:
            win = self._live[index] = _Win()
        return win

    # record_arrival / record_completion inline the _win lookup: they run
    # once per request on the hot loop, and the saved call frame is what
    # keeps the bench's obs-overhead gate comfortably under its ceiling.
    def record_arrival(self, t_ms: float) -> None:
        live = self._live
        index = int(t_ms / self.window_ms)
        win = live.get(index)
        if win is None:
            win = live[index] = _Win()
        win.arrivals += 1

    def record_arrivals(self, times_ms) -> None:
        """Bulk arrival recording for a columnar sweep span.

        ``(t / W).astype(int64)`` truncates the same IEEE quotient as the
        scalar ``int(t / W)`` for the non-negative simulated clock, so the
        bulk path lands every record in the same window as the scalar one.
        """

        import numpy as np

        indices = (np.asarray(times_ms, dtype=np.float64) / self.window_ms).astype(
            np.int64
        )
        for index, count in zip(*np.unique(indices, return_counts=True)):
            win = self._live.get(int(index))
            if win is None:
                win = self._live[int(index)] = _Win()
            win.arrivals += int(count)

    def record_shed(self, t_ms: float, reason: str) -> None:
        win = self._win(t_ms)
        win.shed[reason] = win.shed.get(reason, 0) + 1

    def record_sheds(self, times_ms, reason: str) -> None:
        import numpy as np

        indices = (np.asarray(times_ms, dtype=np.float64) / self.window_ms).astype(
            np.int64
        )
        for index, count in zip(*np.unique(indices, return_counts=True)):
            win = self._live.get(int(index))
            if win is None:
                win = self._live[int(index)] = _Win()
            win.shed[reason] = win.shed.get(reason, 0) + int(count)

    def record_completion(self, finish_ms: float, latency_ms: float, slo_met: bool) -> None:
        live = self._live
        index = int(finish_ms / self.window_ms)
        win = live.get(index)
        if win is None:
            win = live[index] = _Win()
        win.completions += 1
        win.latencies.append(float(latency_ms))
        if slo_met:
            win.slo_met += 1

    def record_completions(
        self, finish_ms: float, latencies: List[float], slo_met: int
    ) -> None:
        """One batch's completions in one call (all share a finish time).

        Both engines complete requests a batch at a time with a single
        batch finish, so the window lookup happens once per batch instead
        of once per request — the per-request residue is just the caller's
        list append.  Aggregates stay multiset-determined: the latency
        list order never matters (sorted at flush).
        """
        live = self._live
        index = int(finish_ms / self.window_ms)
        win = live.get(index)
        if win is None:
            win = live[index] = _Win()
        win.completions += len(latencies)
        win.latencies.extend(latencies)
        win.slo_met += slo_met

    def record_completion_columns(self, finish_ms, latencies, slo_met) -> None:
        """Bulk completions: per-row finish, latency and SLO-met columns.

        Rows land in the window ``int(finish / W)`` picks for each, like
        :meth:`record_completion`; latencies are appended per window
        (their order never matters).
        """
        import numpy as np

        indices = (np.asarray(finish_ms, dtype=np.float64) / self.window_ms).astype(
            np.int64
        )
        order = np.argsort(indices, kind="stable")
        indices = indices[order]
        latencies = np.asarray(latencies, dtype=np.float64)[order]
        met = np.asarray(slo_met, dtype=np.int64)[order]
        keys, starts = np.unique(indices, return_index=True)
        ends = np.append(starts[1:], indices.shape[0])
        met_counts = np.add.reduceat(met, starts)
        live = self._live
        for index, lo, hi, met_n in zip(
            keys.tolist(), starts.tolist(), ends.tolist(), met_counts.tolist()
        ):
            win = live.get(index)
            if win is None:
                win = live[index] = _Win()
            win.completions += hi - lo
            win.latencies.extend(latencies[lo:hi].tolist())
            win.slo_met += met_n

    def record_scale(self, t_ms: float, action: str) -> None:
        win = self._win(t_ms)
        if action == "up":
            win.scale_up += 1
        else:
            win.scale_down += 1

    def record_failure(self, t_ms: float) -> None:
        self._win(t_ms).failures += 1

    def record_recovery(self, t_ms: float) -> None:
        self._win(t_ms).recoveries += 1

    # ------------------------------------------------------------------
    # shard-partial plumbing
    # ------------------------------------------------------------------
    def take(self) -> Dict[int, _Win]:
        """Drain the live buffer (picklable; ships across a shard fork)."""

        live, self._live = self._live, {}
        return live

    def absorb(self, partial: Dict[int, _Win]) -> None:
        """Merge a drained buffer into the master state (counts add,
        latency lists concatenate; order is irrelevant post-sort)."""

        for index, win in partial.items():
            mine = self._master.get(index)
            if mine is None:
                self._master[index] = win
            else:
                mine.merge(win)

    def _drain_live(self) -> None:
        if self._live:
            self.absorb(self.take())

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush(self, watermark_ms: float) -> None:
        """Close every window ending at or before ``watermark_ms``."""

        if (self._next_flush + 1) * self.window_ms > watermark_ms:
            return  # nothing to close — skip the live-buffer drain too
        self._drain_live()
        while (self._next_flush + 1) * self.window_ms <= watermark_ms:
            self._flush_one(self._next_flush)

    def flush_all(self, horizon_ms: Optional[float] = None) -> None:
        """Close every remaining window.

        Without a horizon, closes through the last window holding any
        record.  With ``horizon_ms`` (the run duration), also emits
        explicit empty records for trailing event-free windows up to the
        horizon — so two runs of the same duration always align window
        index for window index, which is what ``obs diff`` keys on.  A
        horizon landing exactly on a window boundary closes the window
        ending there and nothing past it.
        """
        self._drain_live()
        target = -1
        if self._master:
            target = max(self._master)
        if horizon_ms is not None and horizon_ms > 0:
            last = int(math.ceil(horizon_ms / self.window_ms)) - 1
            if last > target:
                target = last
        while self._next_flush <= target:
            self._flush_one(self._next_flush)

    def _flush_one(self, index: int) -> None:
        """Close one window: carry the queue depth, build the latency
        sketch, feed ``on_close``, and park the aggregates for rendering.

        Rendering the JSONL document is pure export work, so without an
        attached stream it is deferred to the first :attr:`lines` access —
        closing windows inside an observed run costs one sketch build and
        a few counter folds, nothing more.  With a stream the document
        must leave now (that is what streaming means), so it renders
        immediately.
        """

        win = self._master.pop(index, None) or _Win()
        sketch = QuantileSketch.of(win.latencies)
        shed_total = sum(win.shed.values())
        self._depth += win.arrivals - shed_total - win.completions
        self.goodput_series.append((index, win.slo_met / (self.window_ms / 1000.0)))
        self._closed.append((index, win, sketch, shed_total, self._depth))
        if self.on_close is not None:
            self.on_close(index, win, sketch, shed_total)
        self._next_flush = index + 1
        if self.stream is not None:
            self._render_pending()

    @property
    def lines(self) -> List[str]:
        """JSONL lines for every closed window (rendering pending ones)."""

        self._render_pending()
        return self._lines

    def _render_pending(self) -> None:
        closed, self._closed = self._closed, []
        window_s = self.window_ms / 1000.0
        for index, win, sketch, shed_total, depth in closed:
            doc = {
                "index": index,
                "start_ms": index * self.window_ms,
                "end_ms": (index + 1) * self.window_ms,
                "arrivals": win.arrivals,
                "completions": win.completions,
                "slo_met": win.slo_met,
                "shed": {reason: win.shed[reason] for reason in sorted(win.shed)},
                "shed_total": shed_total,
                "shed_rate": (shed_total / win.arrivals) if win.arrivals else 0.0,
                "latency_p99_ms": sketch.quantile(99.0) if sketch.count else 0.0,
                "latency_mean_ms": sketch.mean,
                "latency_max_ms": sketch.maximum if sketch.count else 0.0,
                "throughput_rps": win.completions / window_s,
                "goodput_rps": win.slo_met / window_s,
                "queue_depth": depth,
                "scale_up": win.scale_up,
                "scale_down": win.scale_down,
                "failures": win.failures,
                "recoveries": win.recoveries,
            }
            line = json.dumps(doc, sort_keys=True)
            self._lines.append(line)
            if self.stream is not None:
                self.stream.write(line + "\n")
