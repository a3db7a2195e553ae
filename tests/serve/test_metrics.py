"""Serving metrics: percentile semantics and stats assembly."""

import pytest

from repro.serve import ServingStats, build_stats, latency_summary, percentile


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([0.0, 10.0], 95) == 9.5

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_singleton(self):
        assert percentile([7.0], 95) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_order_invariant(self):
        assert percentile([9.0, 1.0, 5.0, 3.0], 75) == percentile(
            [1.0, 3.0, 5.0, 9.0], 75
        )

    def test_error_ordering_matches_sorted_variant(self):
        # empty + out-of-range q: report the range error (the caller's
        # bug) rather than the emptiness error
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([], 150)


class TestLatencySummary:
    """The introselect latency summary must be bit-identical to the
    `percentile` / ``sum(list) / n`` / ``max`` oracle."""

    def test_matches_percentile_on_random_data(self):
        import random

        rng = random.Random(7)
        for n in (2, 3, 8, 100, 257, 1000):
            values = [rng.uniform(0.0, 100.0) for _ in range(n)]
            # ties: percentile brackets that straddle equal values
            values += values[: n // 4]
            rng.shuffle(values)
            summary = latency_summary(values)
            for q in (50, 95, 99):
                assert summary[f"p{q}"] == percentile(values, q)
            assert summary["mean"] == sum(values) / len(values)
            assert summary["max"] == max(values)

    def test_singleton_and_empty(self):
        assert latency_summary([7.0]) == {
            "p50": 7.0, "p95": 7.0, "p99": 7.0, "mean": 7.0, "max": 7.0
        }
        assert latency_summary([]) == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0
        }


@pytest.fixture
def stats():
    return build_stats(
        latencies_ms=[1.0, 2.0, 3.0, 4.0],
        queue_ms=[0.5, 0.5, 1.0, 1.0],
        num_batches=2,
        makespan_ms=8.0,
        cache_hit_rate=0.25,
        real_tokens=30,
        padded_tokens=40,
        slo_met=3,
        device_busy_ms={0: 4.0, 1: 2.0},
    )


class TestBuildStats:
    def test_counts_and_ratios(self, stats):
        assert stats.num_requests == 4
        assert stats.mean_batch_size == 2.0
        assert stats.padding_efficiency == pytest.approx(0.75)
        assert stats.slo_attainment == pytest.approx(0.75)
        assert stats.throughput_rps == pytest.approx(4 / 0.008)

    def test_latency_percentiles_ordered(self, stats):
        assert (
            stats.p50_latency_ms
            <= stats.p95_latency_ms
            <= stats.p99_latency_ms
            <= stats.max_latency_ms
        )
        assert stats.mean_latency_ms == pytest.approx(2.5)

    def test_device_utilization(self, stats):
        util = stats.device_utilization()
        assert util[0] == pytest.approx(0.5)
        assert util[1] == pytest.approx(0.25)

    def test_render_mentions_key_numbers(self, stats):
        text = stats.render()
        assert "throughput" in text and "p50" in text
        assert "75.0%" in text           # padding efficiency
        assert "device 1" in text

    def test_empty_trace_yields_empty_stats(self):
        """A trace that completes zero requests (e.g. everything shed) must
        summarize to the well-defined empty object, not raise."""
        empty = build_stats(
            latencies_ms=[],
            queue_ms=[],
            num_batches=0,
            makespan_ms=0.0,
            cache_hit_rate=0.0,
            real_tokens=0,
            padded_tokens=0,
            slo_met=0,
            device_busy_ms={},
        )
        assert empty == ServingStats.empty()
        assert empty.num_requests == 0
        assert empty.p99_latency_ms == 0.0
        assert empty.throughput_rps == 0.0
        assert empty.slo_attainment == 1.0
        assert empty.device_utilization() == {}
        assert "requests:           0" in empty.render()

    def test_zero_makespan_utilization(self):
        stats = ServingStats(
            num_requests=1, num_batches=1, makespan_ms=0.0,
            p50_latency_ms=0.0, p95_latency_ms=0.0, p99_latency_ms=0.0,
            mean_latency_ms=0.0, max_latency_ms=0.0, mean_queue_ms=0.0,
            throughput_rps=0.0, cache_hit_rate=0.0, padding_efficiency=1.0,
            mean_batch_size=1.0, slo_attainment=1.0, device_busy_ms={0: 0.0},
        )
        assert stats.device_utilization() == {0: 0.0}
