"""The tracer: Chrome trace-event export with canonical ordering."""

import json
import random

from repro.obs import Tracer
from repro.obs.tracing import _event_sort_key, sorted_events


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


def test_take_drains_and_absorb_restores():
    t = Tracer()
    t.add_span("batch", 1.0, 1.0)
    shipped = t.take()
    assert t.events == []
    other = Tracer()
    other.absorb(shipped)
    assert other.to_json() == json.dumps(
        {"displayTimeUnit": "ms", "traceEvents": shipped}, sort_keys=True
    ) + "\n"


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
