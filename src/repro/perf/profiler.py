"""A lightweight span profiler for attributing wall time to pipeline stages.

``Profiler`` accumulates (call count, total time) per named span.  It is
deliberately tiny — a context manager around ``time.perf_counter`` — so it
can wrap hot-path stages (tokenize / encode / classify / dispatch) without
perturbing what it measures.  The repo benchmark uses it to attribute
per-layer wall time; it is also usable standalone::

    profiler = Profiler()
    with profiler.span("encode"):
        model.encode(ids, mask)
    print(profiler.render())

With ``trace=True`` each span entry is additionally kept as an interval
relative to the profiler's first span start, and
:meth:`Profiler.chrome_trace_json` exports them in the Chrome trace-event
format (the same exporter the fleet observer uses — see
:mod:`repro.obs.tracing`), so wall profiles open in the same trace viewer
as simulated-clock fleet traces.  The default stays aggregate-only:
tracing keeps one tuple per entry, which is exactly the overhead the
aggregate mode avoids.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple


@dataclass
class SpanStats:
    """Accumulated statistics of one named span.

    Attributes:
        calls: Number of completed span entries.
        total_ms: Total wall milliseconds across all entries.
    """

    calls: int = 0
    total_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Mean wall milliseconds per call (0.0 before any call)."""
        return self.total_ms / self.calls if self.calls else 0.0


@dataclass
class Profiler:
    """Accumulates wall time per named span.

    Attributes:
        spans: Mapping of span name to its accumulated :class:`SpanStats`,
            in first-entered order.
        trace: Keep per-entry intervals for Chrome trace export (opt-in;
            aggregate mode stores O(names), trace mode O(entries)).
        entries: With ``trace=True``, one ``(name, start_ms, duration_ms)``
            per completed span entry, start relative to the profiler epoch
            (the first span's start).
    """

    spans: Dict[str, SpanStats] = field(default_factory=dict)
    trace: bool = False
    entries: List[Tuple[str, float, float]] = field(default_factory=list)
    _epoch: float = field(default=None, repr=False)  # type: ignore[assignment]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one entry of span ``name`` (re-entrant across calls).

        Args:
            name: Span label; repeated entries accumulate.
        """
        stats = self.spans.setdefault(name, SpanStats())
        start = time.perf_counter()
        if self.trace and self._epoch is None:
            self._epoch = start
        try:
            yield
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            stats.calls += 1
            stats.total_ms += elapsed_ms
            if self.trace:
                self.entries.append(
                    (name, (start - self._epoch) * 1e3, elapsed_ms)
                )

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so every call is recorded under ``name``.

        Args:
            name: Span label.
            fn: Callable to instrument.

        Returns:
            A callable with the same signature as ``fn``.
        """

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def report(self) -> Dict[str, Dict[str, float]]:
        """Span statistics as plain dicts (JSON-ready).

        Returns:
            ``{name: {"calls": n, "total_ms": t, "mean_ms": m}}`` per span.
        """
        return {
            name: {
                "calls": stats.calls,
                "total_ms": stats.total_ms,
                "mean_ms": stats.mean_ms,
            }
            for name, stats in self.spans.items()
        }

    def render(self) -> str:
        """Human-readable table, spans sorted by total time descending."""
        if not self.spans:
            return "(no spans recorded)"
        ordered = sorted(self.spans.items(), key=lambda kv: -kv[1].total_ms)
        width = max(len(name) for name, _ in ordered)
        lines = [f"{'span':<{width}}  {'calls':>6}  {'total ms':>10}  {'mean ms':>9}"]
        for name, stats in ordered:
            lines.append(
                f"{name:<{width}}  {stats.calls:>6}  {stats.total_ms:>10.2f}  "
                f"{stats.mean_ms:>9.3f}"
            )
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """The recorded entries as a Chrome trace-event document.

        Requires ``trace=True``; raises :class:`ValueError` otherwise so a
        silent empty trace cannot masquerade as a real profile.  All spans
        land on tid 0 (the profiler times one thread of execution);
        timestamps are wall milliseconds since the profiler epoch.

        Returns:
            A dict in the same shape as
            :meth:`repro.obs.tracing.Tracer.to_chrome`.
        """
        if not self.trace:
            raise ValueError("chrome_trace() needs Profiler(trace=True)")
        from ..obs.tracing import Tracer

        tracer = Tracer()
        tracer.add_thread_name(0, "profiler")
        for name, start_ms, duration_ms in self.entries:
            tracer.add_span(name, start_ms, duration_ms, tid=0)
        return tracer.to_chrome()

    def chrome_trace_json(self) -> str:
        """:meth:`chrome_trace` serialized with sorted keys (stable bytes
        for equal entries)."""
        import json

        return json.dumps(self.chrome_trace(), sort_keys=True) + "\n"

    def reset(self) -> None:
        """Drop all accumulated spans (and any trace entries/epoch)."""
        self.spans.clear()
        self.entries.clear()
        self._epoch = None
