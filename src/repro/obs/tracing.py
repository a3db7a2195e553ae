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
from typing import Dict, List, Mapping, Optional

import numpy as np

__all__ = ["Tracer", "span_trace_json"]

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
    # export
    # ------------------------------------------------------------------
    def to_chrome(self) -> Dict:
        return {
            "displayTimeUnit": "ms",
            "traceEvents": sorted_events(self.events),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True) + "\n"


def _json_texts(values: np.ndarray) -> List[str]:
    """Each value as ``json.dumps`` writes it, rendering distinct values once."""

    if values.dtype.kind == "f":
        # distinct by bit pattern: -0.0 == 0.0, but they render apart
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        distinct = bits.view(np.float64)
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
    if not distinct.shape[0]:
        return []
    # one C-level dumps for the whole column: float repr, with Infinity,
    # -Infinity and NaN where repr would write inf and nan
    text = json.dumps(distinct.tolist())[1:-1].split(", ")
    return np.array(text, dtype=object)[inverse].tolist()


def span_trace_json(
    events: List[Dict],
    name: str,
    tid: np.ndarray,
    start_ms: np.ndarray,
    duration_ms: np.ndarray,
    args: Mapping[str, np.ndarray],
) -> str:
    """The bytes of :meth:`Tracer.to_json` over ``events`` plus one
    :meth:`Tracer.add_span` per row of the span columns.

    ``tid`` and each of the (one or more) ``args`` columns hold integers
    or float64s, one entry per span, in the order the spans were recorded
    (rows tied on every sort field keep it, as the stable event sort
    does).  No entry of ``events`` may be an ``"X"`` span named ``name``.
    """

    ts = np.asarray(start_ms, dtype=np.float64) * 1000.0
    dur = np.asarray(duration_ms, dtype=np.float64) * 1000.0
    tid = np.asarray(tid, dtype=np.int64)
    order = np.lexsort((dur, tid, ts))
    ts, tid, dur = ts[order], tid[order], dur[order]
    keys = sorted(args)
    # A row is literals[0] texts[0] literals[1] ... texts[-1] literals[-1]:
    # sort_keys order, args first.  Each row carries its ", " separator.
    head = [", " + json.dumps(key) + ": " for key in keys]
    head[0] = ', {"args": {' + head[0][2:]
    literals = head + [
        '}, "dur": ',
        f', "name": {json.dumps(name)}, "ph": "X", "pid": {_PID}, "tid": ',
        ', "ts": ',
        "}",
    ]
    texts = [_json_texts(np.asarray(args[key])[order]) for key in keys]
    texts += [_json_texts(dur), _json_texts(tid), _json_texts(ts)]

    # Rows tied on (ts, tid, dur) order by the text of their args, as in
    # sorted_events; runs of ties are rare and short.
    tied = (ts[1:] == ts[:-1]) & (tid[1:] == tid[:-1]) & (dur[1:] == dur[:-1])
    if tied.any():
        arg_texts = texts[: len(keys)]

        def args_text(i):
            return "".join(h + t[i] for h, t in zip(head, arg_texts)) + "}"

        padded = np.concatenate(([False], tied, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
        for first, last in zip(edges[0::2], edges[1::2]):
            rank = sorted(range(first, last + 1), key=args_text)
            for column in texts:
                column[first : last + 1] = [column[i] for i in rank]

    n, stride = ts.shape[0], 2 * len(texts) + 1
    parts: List[Optional[str]] = [None] * (n * stride)
    for j, literal in enumerate(literals):
        parts[2 * j :: stride] = [literal] * n
    for j, column in enumerate(texts):
        parts[2 * j + 1 :: stride] = column

    # Merge the other events in on the five-field key: an event goes
    # after the rows that sort before it, found by bisecting ts then tid.
    out: List[Optional[str]] = []
    done = 0
    for event in sorted_events(events):
        e_ts, e_tid, e_ph, e_name, _ = _event_sort_key(event)
        if (e_ph, e_name) == ("X", name):
            raise ValueError(f"event list holds an 'X' span named {name!r}")
        lo = np.searchsorted(ts, e_ts, "left")
        hi = np.searchsorted(ts, e_ts, "right")
        lane = tid[lo:hi]  # the rows at the event's ts, ordered by tid
        lo, hi = (
            lo + np.searchsorted(lane, e_tid, "left"),
            lo + np.searchsorted(lane, e_tid, "right"),
        )
        at = int(lo if (e_ph, e_name) < ("X", name) else hi)
        out += parts[done * stride : at * stride]
        out.append(", " + json.dumps(event, sort_keys=True))
        done = at
    out += parts[done * stride :]
    return '{"displayTimeUnit": "ms", "traceEvents": [' + "".join(out)[2:] + "]}\n"
