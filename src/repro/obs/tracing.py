"""Structured span tracing over the simulated clock.

Spans, instants, and counter tracks are recorded against *simulated*
milliseconds and exported in the Chrome trace-event JSON format, so a
fleet run opens directly in ``chrome://tracing`` or Perfetto.  Because the
clock is simulated, the same seed produces a byte-identical trace file —
something wall-clock tracers cannot offer.

Export is canonicalised: events are sorted by a total-order key before
serialisation, so two engines that *emit* the same events in different
orders (the event loop interleaves per arrival, the columnar engine per
replica sweep) still render the same bytes.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional

__all__ = ["Tracer"]

_PID = 0  # single simulated process; replicas map to threads


def _event_sort_key(event: Dict) -> tuple:
    # Metadata first (ts -1), then by timestamp / thread / phase / name /
    # duration; sorted_events breaks the remaining ties by canonical args.
    return (
        event.get("ts", -1.0),
        event.get("tid", 0),
        event.get("ph", ""),
        event.get("name", ""),
        event.get("dur", 0.0),
    )


def _canonical_args(event: Dict) -> str:
    return json.dumps(event.get("args", {}), sort_keys=True)


def sorted_events(events: List[Dict]) -> List[Dict]:
    """Events in export order: the five cheap key fields, then canonical args.

    The same total order as sorting on the six-field key, but the args
    are serialised only inside runs of events tied on all five fields
    (both sorts are stable, so fully tied events keep their input order
    either way).
    """
    keyed = sorted(((_event_sort_key(e), e) for e in events), key=itemgetter(0))
    ordered: List[Dict] = []
    for _, run in groupby(keyed, key=itemgetter(0)):
        tied = [event for _, event in run]
        if len(tied) > 1:
            tied.sort(key=_canonical_args)
        ordered.extend(tied)
    return ordered


class Tracer:
    """Collect trace events in Chrome trace-event form.

    Timestamps arrive in simulated milliseconds and are stored in the
    microseconds the trace-event format expects (``ms * 1000.0`` — one
    IEEE multiply, identical on every engine).
    """

    def __init__(self) -> None:
        self.events: List[Dict] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        start_ms: float,
        duration_ms: float,
        tid: int = 0,
        args: Optional[Dict] = None,
    ) -> None:
        event = {
            "name": name,
            "ph": "X",
            "ts": float(start_ms) * 1000.0,
            "dur": float(duration_ms) * 1000.0,
            "pid": _PID,
            "tid": int(tid),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def add_instant(
        self, name: str, ts_ms: float, tid: int = 0, args: Optional[Dict] = None
    ) -> None:
        event = {
            "name": name,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": float(ts_ms) * 1000.0,
            "pid": _PID,
            "tid": int(tid),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def add_counter(self, name: str, ts_ms: float, values: Dict[str, float]) -> None:
        self.events.append(
            {
                "name": name,
                "ph": "C",
                "ts": float(ts_ms) * 1000.0,
                "pid": _PID,
                "tid": 0,
                "args": {key: float(values[key]) for key in values},
            }
        )

    def add_thread_name(self, tid: int, label: str) -> None:
        self.events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": int(tid),
                "args": {"name": label},
            }
        )

    # ------------------------------------------------------------------
    # shard-partial plumbing (mirrors ShardPartial merge in the columnar
    # engine: children drain their buffers, the parent absorbs)
    # ------------------------------------------------------------------
    def take(self) -> List[Dict]:
        events, self.events = self.events, []
        return events

    def absorb(self, events: List[Dict]) -> None:
        self.events.extend(events)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome(self) -> Dict:
        return {
            "displayTimeUnit": "ms",
            "traceEvents": sorted_events(self.events),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True) + "\n"
