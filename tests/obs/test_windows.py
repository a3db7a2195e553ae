"""Rolling windows: aggregation, degenerate shapes, shard-split merging."""

import io
import json

import numpy as np
import pytest

from repro.obs import QuantileSketch, WindowTracker


def _docs(tracker):
    return [json.loads(line) for line in tracker.lines]


class TestAggregation:
    def test_one_window_fields(self):
        w = WindowTracker(window_ms=20.0)
        w.record_arrival(1.0)
        w.record_arrival(2.0)
        w.record_shed(3.0, "overload")
        w.record_completion(5.0, 4.0, True)
        w.flush_all()
        (doc,) = _docs(w)
        assert doc["index"] == 0
        assert doc["start_ms"] == 0.0 and doc["end_ms"] == 20.0
        assert doc["arrivals"] == 2
        assert doc["completions"] == 1
        assert doc["shed"] == {"overload": 1}
        assert doc["shed_rate"] == 0.5
        assert doc["latency_p99_ms"] == 4.0
        assert doc["latency_max_ms"] == 4.0
        assert doc["goodput_rps"] == 1 / 0.020
        assert doc["queue_depth"] == 0

    def test_queue_depth_carries_across_windows(self):
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(1.0)
        w.record_arrival(2.0)        # both admitted, neither finished
        w.record_completion(15.0, 14.0, True)
        w.flush_all()
        first, second = _docs(w)
        assert first["queue_depth"] == 2
        assert second["queue_depth"] == 1

    def test_scale_and_failure_events_bucketed(self):
        w = WindowTracker(window_ms=10.0)
        w.record_scale(5.0, "up")
        w.record_scale(15.0, "down")
        w.record_failure(5.0)
        w.record_recovery(15.0)
        w.flush_all()
        first, second = _docs(w)
        assert (first["scale_up"], first["failures"]) == (1, 1)
        assert (second["scale_down"], second["recoveries"]) == (1, 1)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WindowTracker(window_ms=0.0)


class TestDegenerateWindows:
    """The satellite checklist: empty, single-request, gap, and split."""

    def test_empty_run_emits_nothing(self):
        w = WindowTracker(window_ms=20.0)
        w.flush_all()
        assert w.lines == []

    def test_interior_empty_windows_are_emitted_as_zero(self):
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(5.0)
        w.record_arrival(45.0)      # windows 1..3 are empty
        w.flush_all()
        docs = _docs(w)
        assert [d["index"] for d in docs] == [0, 1, 2, 3, 4]
        for doc in docs[1:4]:
            assert doc["arrivals"] == 0
            assert doc["latency_p99_ms"] == 0.0
            assert doc["shed"] == {}
            assert doc["throughput_rps"] == 0.0

    def test_single_request_window_p99_is_its_latency(self):
        w = WindowTracker(window_ms=20.0)
        w.record_arrival(1.0)
        w.record_completion(4.0, 3.0, True)
        w.flush_all()
        (doc,) = _docs(w)
        assert doc["latency_p99_ms"] == 3.0
        assert doc["latency_mean_ms"] == 3.0

    def test_failure_gap_windows_stay_empty_but_flagged(self):
        # a replica fails, traffic sheds during the gap, then it recovers
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(5.0)
        w.record_completion(6.0, 1.0, True)
        w.record_failure(10.0)
        for t in (12.0, 14.0, 22.0):
            w.record_arrival(t)
            w.record_shed(t, "no-capacity")
        w.record_recovery(30.0)
        w.flush_all()
        docs = _docs(w)
        assert docs[1]["failures"] == 1
        assert docs[1]["shed"] == {"no-capacity": 2}
        assert docs[1]["completions"] == 0
        assert docs[2]["shed"] == {"no-capacity": 1}
        assert docs[3]["recoveries"] == 1
        assert all(d["queue_depth"] == 0 for d in docs)

    def test_window_split_at_shard_boundary_merges_identically(self):
        # the same records, once straight through and once drained into
        # two partials mid-window (what a shard boundary does)
        records = [(3.0, 2.0), (7.0, 1.5), (12.0, 4.0), (17.0, 2.5)]

        whole = WindowTracker(window_ms=20.0)
        for finish, lat in records:
            whole.record_arrival(finish - lat)
            whole.record_completion(finish, lat, True)
        whole.flush_all()

        split = WindowTracker(window_ms=20.0)
        for finish, lat in records[:2]:
            split.record_arrival(finish - lat)
            split.record_completion(finish, lat, True)
        first = split.take()            # shard edge at t=10, mid-window
        for finish, lat in records[2:]:
            split.record_arrival(finish - lat)
            split.record_completion(finish, lat, True)
        second = split.take()
        split.absorb(first)
        split.absorb(second)
        split.flush_all()

        assert split.lines == whole.lines


class TestFlushHorizon:
    """The zero-length-window satellite: trailing event-free windows up
    to the run horizon are emitted as explicit empty records."""

    def test_trailing_empty_windows_emitted_to_horizon(self):
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(5.0)
        w.flush_all(horizon_ms=45.0)
        docs = _docs(w)
        assert [d["index"] for d in docs] == [0, 1, 2, 3, 4]
        for doc in docs[1:]:
            assert doc["arrivals"] == 0
            assert doc["completions"] == 0
            assert doc["shed"] == {}
            assert doc["latency_p99_ms"] == 0.0

    def test_horizon_on_boundary_closes_boundary_window_only(self):
        # horizon exactly at a window edge: the window ending there is
        # flushed, nothing past it
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(5.0)
        w.flush_all(horizon_ms=30.0)
        assert [d["index"] for d in _docs(w)] == [0, 1, 2]

    def test_empty_run_with_horizon_emits_empty_records(self):
        w = WindowTracker(window_ms=10.0)
        w.flush_all(horizon_ms=25.0)
        docs = _docs(w)
        assert [d["index"] for d in docs] == [0, 1, 2]
        assert all(d["arrivals"] == 0 for d in docs)

    def test_horizon_never_truncates_recorded_windows(self):
        # records past the horizon still flush (horizon only extends)
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(55.0)
        w.flush_all(horizon_ms=20.0)
        assert [d["index"] for d in _docs(w)] == [0, 1, 2, 3, 4, 5]

    def test_no_horizon_behavior_unchanged(self):
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(5.0)
        w.flush_all()
        assert [d["index"] for d in _docs(w)] == [0]

    def test_two_equal_duration_runs_align_window_for_window(self):
        # the property obs diff keys on: same horizon, same indices,
        # regardless of where the last event landed
        early = WindowTracker(window_ms=10.0)
        early.record_arrival(5.0)
        early.flush_all(horizon_ms=50.0)
        late = WindowTracker(window_ms=10.0)
        late.record_arrival(45.0)
        late.flush_all(horizon_ms=50.0)
        assert [d["index"] for d in _docs(early)] == [
            d["index"] for d in _docs(late)
        ]


class TestFlushWatermark:
    def test_flush_closes_only_elapsed_windows(self):
        w = WindowTracker(window_ms=10.0)
        w.record_arrival(5.0)
        w.record_arrival(15.0)
        w.flush(10.0)
        assert [d["index"] for d in _docs(w)] == [0]
        w.flush(19.9)               # window 1 ends at 20.0: not yet
        assert len(w.lines) == 1
        w.flush_all()
        assert [d["index"] for d in _docs(w)] == [0, 1]

    def test_stream_receives_lines_at_flush_time(self):
        stream = io.StringIO()
        w = WindowTracker(window_ms=10.0, stream=stream)
        w.record_arrival(5.0)
        w.flush(10.0)
        assert stream.getvalue() == w.lines[0] + "\n"

    def test_on_close_gets_window_sketch(self):
        seen = []
        w = WindowTracker(
            window_ms=10.0,
            on_close=lambda index, win, sketch, shed_total: seen.append(
                (index, sketch, shed_total)
            ),
        )
        w.record_completion(5.0, 3.0, True)
        w.record_completion(6.0, 1.0, True)
        w.record_shed(7.0, "overload")
        w.flush_all()
        assert len(seen) == 1
        index, sketch, shed_total = seen[0]
        assert index == 0
        assert shed_total == 1
        assert sketch.count == 2
        assert (sketch.minimum, sketch.maximum) == (1.0, 3.0)
        assert sketch == QuantileSketch.of([3.0, 1.0])  # order-free


class TestBulkPaths:
    def test_record_arrivals_matches_scalar_loop(self):
        times = np.array([0.0, 5.0, 19.999, 20.0, 45.0])
        bulk = WindowTracker(window_ms=20.0)
        bulk.record_arrivals(times)
        scalar = WindowTracker(window_ms=20.0)
        for t in times:
            scalar.record_arrival(float(t))
        bulk.flush_all()
        scalar.flush_all()
        assert bulk.lines == scalar.lines

    def test_record_sheds_matches_scalar_loop(self):
        times = np.array([1.0, 21.0, 21.5])
        bulk = WindowTracker(window_ms=20.0)
        bulk.record_sheds(times, "no-capacity")
        scalar = WindowTracker(window_ms=20.0)
        for t in times:
            scalar.record_shed(float(t), "no-capacity")
        bulk.flush_all()
        scalar.flush_all()
        assert bulk.lines == scalar.lines

    def test_record_completions_matches_scalar_loop(self):
        batch = WindowTracker(window_ms=20.0)
        batch.record_completions(7.0, [3.0, 1.0], 1)
        scalar = WindowTracker(window_ms=20.0)
        scalar.record_completion(7.0, 3.0, True)
        scalar.record_completion(7.0, 1.0, False)
        batch.flush_all()
        scalar.flush_all()
        assert batch.lines == scalar.lines

    def test_record_completion_columns_matches_scalar_loop(self):
        finish = np.array([45.0, 7.0, 19.999, 20.0, 7.0, 45.0])
        latency = np.array([4.0, 3.0, 0.5, 2.0, 1.0, 9.0])
        met = latency <= 3.0
        columns = WindowTracker(window_ms=20.0)
        columns.record_completion_columns(finish, latency, met)
        columns.record_completion_columns(finish[:0], latency[:0], met[:0])
        scalar = WindowTracker(window_ms=20.0)
        for f, l, m in zip(finish, latency, met):
            scalar.record_completion(float(f), float(l), bool(m))
        columns.flush_all()
        scalar.flush_all()
        assert columns.lines == scalar.lines
