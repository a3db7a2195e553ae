"""The tracer: Chrome trace-event export with canonical ordering."""

import json
import math
import random

import numpy as np
import pytest

from repro.obs import FleetObserver, Tracer
from repro.obs.tracing import _event_sort_key, sorted_events, span_trace_json


def test_span_units_are_microseconds():
    t = Tracer()
    t.add_span("batch", 2.0, 3.5, tid=1, args={"size": 4})
    (event,) = t.events
    assert event["ph"] == "X"
    assert event["ts"] == 2000.0
    assert event["dur"] == 3500.0
    assert event["tid"] == 1


def test_instant_and_counter_shapes():
    t = Tracer()
    t.add_instant("replica-fail", 10.0, tid=3)
    t.add_counter("autoscaler", 20.0, {"utilization": 0.5})
    fail, counter = t.events
    assert fail["ph"] == "i" and fail["s"] == "t"
    assert counter["ph"] == "C" and counter["args"] == {"utilization": 0.5}


def test_metadata_sorts_first():
    t = Tracer()
    t.add_span("batch", 1.0, 1.0)
    t.add_thread_name(0, "replica-0")
    doc = t.to_chrome()
    assert doc["traceEvents"][0]["ph"] == "M"
    assert doc["displayTimeUnit"] == "ms"


def test_emission_order_does_not_change_bytes():
    events = [
        ("a", 5.0, 1.0, 0),
        ("b", 1.0, 2.0, 1),
        ("c", 1.0, 2.0, 0),
    ]
    forward, backward = Tracer(), Tracer()
    for name, start, dur, tid in events:
        forward.add_span(name, start, dur, tid=tid)
    for name, start, dur, tid in reversed(events):
        backward.add_span(name, start, dur, tid=tid)
    assert forward.to_json() == backward.to_json()


def test_json_is_valid_and_stable():
    t = Tracer()
    t.add_span("batch", 1.0, 1.0, args={"bucket": 16, "size": 8})
    t.add_instant("scale-up", 2.0)
    first = t.to_json()
    assert json.loads(first)["traceEvents"]
    assert t.to_json() == first


def test_tied_sort_matches_full_key_sort():
    # Events deliberately tied on all five cheap fields (ts, tid, ph,
    # name, dur), differing only in args — plus exact duplicates — must
    # come out in the order of the full six-field key sort.
    t = Tracer()
    for ts in (1.0, 2.0):
        for tid in (0, 1):
            for size in (8, 2, 4, 2):
                t.add_span("batch", ts, 1.0, tid=tid, args={"size": size, "b": 16})
                t.add_span("batch", ts, 1.0, tid=tid, args={"b": 16, "size": size})
            t.add_instant("scale-up", ts, args={"replicas": 3})
            t.add_instant("scale-up", ts, args={"replicas": 2})
            t.add_instant("scale-up", ts)
            t.add_counter("autoscaler", ts, {"utilization": 0.5})
    t.add_thread_name(1, "replica-1")
    t.add_thread_name(0, "replica-0")
    events = list(t.events)
    random.Random(0).shuffle(events)

    def full_key(event):
        args = json.dumps(event.get("args", {}), sort_keys=True)
        return _event_sort_key(event) + (args,)

    got = sorted_events(events)
    want = sorted(events, key=full_key)
    # identity, not equality: fully tied events keep their input order
    assert [id(e) for e in got] == [id(e) for e in want]


# ----------------------------------------------------------------------
# span_trace_json: batch spans rendered from columns must give the bytes
# of the dict path (one Tracer.add_span per span, then Tracer.to_json)
# ----------------------------------------------------------------------

# few distinct values, so (ts, tid, dur) ties are common; the w* pool has
# the floats whose text sorts unlike their value (1.5 vs 1.55 before the
# closing brace) plus signed zeros and non-finite values
_STARTS = (0.0, -0.0, 0.5, 1.0, 2.5)
_SERVICES = (0.25, 0.5, 1.0)
_WS = (0.0, -0.0, 1.5, 1.55, 0.1, 2.0, math.inf, -math.inf, math.nan)


def _reference_json(events, spans):
    """Today's dict path: batch spans as add_span dicts, Tracer.to_json()."""
    tracer = Tracer()
    tracer.events = list(events)
    for rid, bucket, size, start, service, wl, wr, wb, wq in spans:
        tracer.add_span(
            "batch", start, service, tid=rid,
            args={"bucket": int(bucket), "size": int(size), "wl": wl,
                  "wr": wr, "wb": wb, "wq": wq},
        )
    return tracer.to_json()


def _columns_json(events, spans):
    rid, bucket, size, start, service, wl, wr, wb, wq = (
        np.array(column, dtype=dtype) for column, dtype in zip(
            zip(*spans) if spans else [()] * 9,
            (np.int64,) * 3 + (np.float64,) * 6,
        )
    )
    return span_trace_json(
        events, "batch", rid, start, service,
        {"bucket": bucket, "size": size, "wl": wl, "wr": wr, "wb": wb, "wq": wq},
    )


def _random_span(rng):
    return (
        rng.randrange(3), rng.choice((16, 128, 32)), rng.randrange(1, 9),
        rng.choice(_STARTS), rng.choice(_SERVICES),
        *(rng.choice(_WS + (rng.random() * 10.0,)) for _ in range(4)),
    )


def _random_events(rng):
    """Non-batch events of every kind, at the span timestamps."""
    tracer = Tracer()
    for _ in range(rng.randrange(12)):
        ts, tid = abs(rng.choice(_STARTS)), rng.randrange(3)
        kind = rng.randrange(6)
        if kind == 0:
            tracer.add_thread_name(tid, f"replica-{tid}")
        elif kind == 1:
            tracer.add_span("cold-start", ts, rng.choice(_SERVICES), tid=tid,
                            args={"label": "zcu102"})
        elif kind == 2:
            tracer.add_span("a-span", ts, rng.choice(_SERVICES), tid=tid)
        elif kind == 3:
            tracer.add_instant("replica-fail", ts, tid=tid, args={"replica": tid})
        elif kind == 4:
            tracer.add_counter("autoscaler", ts, {"utilization": rng.random()})
        else:
            tracer.add_counter("brownout", ts, {"level": 1.0})
    return tracer.events


@pytest.mark.parametrize("seed", range(40))
def test_span_columns_match_dict_path(seed):
    rng = random.Random(seed)
    spans = [_random_span(rng) for _ in range(rng.randrange(60))]
    events = _random_events(rng)
    assert _columns_json(events, spans) == _reference_json(events, spans)


def test_tied_args_sort_as_text():
    # tied on (ts, tid, dur): the args text decides, so bucket 128 sorts
    # before 16 and wr 1.55 before 1.5 ("5" < "}")
    spans = [
        (0, 16, 1, 1.0, 0.5, 0.0, 1.5, 0.0, 0.0),
        (0, 128, 1, 1.0, 0.5, 0.0, 1.5, 0.0, 0.0),
        (0, 16, 1, 1.0, 0.5, 0.0, 1.55, 0.0, 0.0),
        (0, 16, 1, 1.0, 0.5, -0.0, 1.5, 0.0, 0.0),
    ]
    got = _columns_json([], spans)
    assert got == _reference_json([], spans)
    buckets = [e["args"]["bucket"] for e in json.loads(got)["traceEvents"]]
    assert buckets == [128, 16, 16, 16]


def test_signed_zero_and_non_finite_render_like_json():
    spans = [
        (1, 16, 2, -0.0, 0.5, -0.0, math.inf, -math.inf, math.nan),
        (1, 16, 2, 0.0, 0.5, -0.0, math.inf, -math.inf, math.nan),
    ]
    got = _columns_json([], spans)
    assert got == _reference_json([], spans)
    assert '"ts": -0.0' in got and '"wr": Infinity' in got
    assert '"wb": -Infinity' in got and '"wq": NaN' in got


def test_zero_batches():
    rng = random.Random(7)
    events = _random_events(rng)
    assert _columns_json(events, []) == _reference_json(events, [])
    assert _columns_json([], []) == _reference_json([], [])


def test_event_named_like_the_spans_is_rejected():
    tracer = Tracer()
    tracer.add_span("batch", 1.0, 1.0)
    with pytest.raises(ValueError, match="batch"):
        _columns_json(tracer.events, [])


def _batch_columns(rng, n):
    """on_batch_columns inputs for ``n`` random batches, and the span each
    should record (the worst-request rule, looped per batch as the event
    loop does it)."""
    columns = {key: [] for key in (
        "replica", "bucket", "size", "offset", "start", "service", "finish",
        "arrival", "enqueue", "slo",
    )}
    spans = []
    offset = 0
    for _ in range(n):
        size = rng.randrange(1, 5)
        start = rng.choice((1.0, 2.0, 3.5))
        service = rng.choice(_SERVICES)
        finish = start + service
        arrival = [rng.choice((0.0, 0.25, 0.5)) for _ in range(size)]
        enqueue = [a + rng.choice((0.0, 0.25)) for a in arrival]
        rid, bucket = rng.randrange(3), rng.choice((16, 128))
        for key, value in (
            ("replica", rid), ("bucket", bucket), ("size", size),
            ("offset", offset), ("start", start), ("service", service),
            ("finish", finish),
        ):
            columns[key].append(value)
        columns["arrival"] += arrival
        columns["enqueue"] += enqueue
        columns["slo"] += [2.0] * size
        offset += size
        worst_arr = min(arrival)
        worst_enq = min(e for a, e in zip(arrival, enqueue) if a == worst_arr)
        last_enq = max(enqueue)
        spans.append((
            rid, bucket, size, start, service, finish - worst_arr,
            worst_enq - worst_arr, last_enq - worst_enq, start - last_enq,
        ))
    ints = ("replica", "bucket", "size", "offset")
    arrays = [
        np.array(columns[key], dtype=np.int64 if key in ints else np.float64)
        for key in columns
    ]
    return arrays, spans


@pytest.mark.parametrize("seed", range(10))
def test_observer_trace_matches_dict_path(seed):
    # Column chunks (the columnar post-pass) interleaved with per-batch
    # tuples (the event loop) and non-batch events.
    rng = random.Random(seed)
    obs = FleetObserver()
    spans = []
    for step in range(8):
        if rng.random() < 0.5:
            arrays, chunk = _batch_columns(rng, rng.randrange(6))
            if chunk:
                obs.on_batch_columns(*arrays)
            spans += chunk
        else:
            for _ in range(rng.randrange(4)):
                span = _random_span(rng)
                obs.on_batch(span)
                spans.append(span)
        tid = rng.randrange(3)
        obs.on_replica(tid, "zcu102", float(step), rng.choice((0.0, 0.5)))
        obs.on_breaker(tid, float(step), "open")
        obs.on_brownout(float(step), step)
    assert obs.trace_json() == _reference_json(obs.tracer.events, spans)


def test_on_batch_records_after_trace_json():
    # A mid-run export seals the buffered tuples into a chunk; the bound
    # on_batch append must keep recording into the same buffer.
    obs = FleetObserver()
    first = (0, 16, 1, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0)
    second = (1, 16, 1, 2.0, 0.5, 0.5, 0.0, 0.0, 0.0)
    obs.on_batch(first)
    (event,) = json.loads(obs.trace_json())["traceEvents"]
    assert event["tid"] == 0 and event["ts"] == 1000.0
    obs.on_batch(second)
    events = json.loads(obs.trace_json())["traceEvents"]
    assert [(e["tid"], e["ts"]) for e in events] == [(0, 1000.0), (1, 2000.0)]
