"""Property-based shard tests: any split of the trace, the same bytes.

Sharding is a pure checkpointing of one globally ordered event sequence,
so the merged report must be bit-exact under *any* shard count, any
scenario, any seed — including when requests are still queued (in flight)
as the clock crosses a window boundary, and when a window is degenerate
(no arrivals at all).  Hypothesis drives seeded randomized scenarios
through shard counts 1, 2, 5, and 7; the merge layer's bookkeeping
(drop / double-count detection, empty merges) is pinned directly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FailureEvent,
    FleetRequest,
    ShardPartial,
    merge_shard_partials,
    run_scenario_columnar,
)
from repro.fleet.columnar import shard_windows, _prepare

SHARD_COUNTS = (1, 2, 5, 7)


class TestShardInvariance:
    # the fixtures are immutable value objects, so not resetting them
    # between generated inputs is safe
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        scenario=st.sampled_from(
            ["steady", "diurnal", "flash-crowd", "ramp", "multi-tenant"]
        ),
        seed=st.integers(min_value=0, max_value=999),
        rate_scale=st.floats(min_value=0.05, max_value=0.8),
    )
    def test_shard_count_invariance(
        self, scenario, seed, rate_scale,
        cluster_model, hash_tokenizer, weak_spec, fleet_config,
    ):
        """1, 2, 5, and 7 shards merge to the same bytes."""
        reports = [
            run_scenario_columnar(
                scenario, cluster_model, hash_tokenizer, [weak_spec] * 2,
                fleet_config, seed=seed, rate_scale=rate_scale,
                duration_scale=0.4, shards=shards,
            )
            for shards in SHARD_COUNTS
        ]
        baseline = reports[0].to_json()
        for report in reports[1:]:
            assert report.to_json() == baseline
        # nothing dropped, nothing double-counted
        stats = reports[0].stats
        assert stats.completed + stats.shed == stats.submitted

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=99))
    def test_shards_with_autoscale_and_failures(
        self, seed, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Control events (ticks, failures) land in the right windows."""
        from repro.fleet import AutoscalePolicy

        kw = dict(
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_ms=150.0
            ),
            scale_spec=weak_spec,
            failures=(FailureEvent(replica_id=0, fail_ms=200.0, recover_ms=700.0),),
            seed=seed, rate_scale=0.4, duration_scale=0.5,
        )
        reports = [
            run_scenario_columnar(
                "flash-crowd", cluster_model, hash_tokenizer, [weak_spec] * 2,
                fleet_config, shards=shards, **kw,
            )
            for shards in SHARD_COUNTS
        ]
        baseline = reports[0].to_json()
        for report in reports[1:]:
            assert report.to_json() == baseline

    def test_in_flight_across_boundary(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Requests queued as the clock crosses a window edge are neither
        dropped nor double-counted — the shard state hands them across."""
        # A dense burst right before the midpoint of the trace: on a weak
        # replica these are still queued (in flight) when a 2-shard split
        # cuts the window at half the duration.
        trace = [
            FleetRequest(
                arrival_ms=490.0 + i, tenant="default", slo_ms=10_000.0,
                text_a="payload " * 3, text_b=None,
            )
            for i in range(32)
        ] + [
            FleetRequest(
                arrival_ms=1000.0, tenant="default", slo_ms=10_000.0,
                text_a="tail", text_b=None,
            )
        ]
        single = run_scenario_columnar(
            trace, cluster_model, hash_tokenizer, [weak_spec], fleet_config,
        )
        for shards in (2, 5, 7):
            split = run_scenario_columnar(
                trace, cluster_model, hash_tokenizer, [weak_spec],
                fleet_config, shards=shards,
            )
            assert split.to_json() == single.to_json()
        assert single.stats.submitted == 33
        assert single.stats.completed + single.stats.shed == 33

    def test_windows_partition_the_arrivals(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Window [alo, ahi) ranges tile 0..n with no gap or overlap."""
        prep = _prepare(
            "diurnal", cluster_model, hash_tokenizer, [weak_spec],
            fleet_config, None, None, (), 3, 0.5, 0.5,
        )
        for shards in SHARD_COUNTS + (3, 11):
            windows = shard_windows(prep, shards)
            assert len(windows) == shards
            pos = 0
            for alo, ahi, _events in windows:
                assert alo == pos
                assert ahi >= alo
                pos = ahi
            assert pos == prep.num_requests


class TestMergeShardPartials:
    def _partial(self, done=(), fins=(), shed=(), codes=()):
        return ShardPartial(
            done_idx=np.asarray(done, dtype=np.int64),
            done_fin=np.asarray(fins, dtype=np.float64),
            shed_idx=np.asarray(shed, dtype=np.int64),
            shed_code=np.asarray(codes, dtype=np.uint8),
        )

    def test_empty_partial_list(self):
        """No shards at all merge to all-zero columns (explicitly legal)."""
        finish, shed = merge_shard_partials([], 4)
        assert finish.tolist() == [0.0] * 4
        assert shed.tolist() == [0] * 4

    def test_empty_and_degenerate_shards(self):
        """Empty, single-request, and all-shed shards merge cleanly."""
        parts = [
            self._partial(),                                   # empty shard
            self._partial(done=[2], fins=[50.0]),              # single request
            self._partial(shed=[0, 1], codes=[1, 2]),          # all shed
        ]
        finish, shed = merge_shard_partials(parts, 3)
        assert finish.tolist() == [0.0, 0.0, 50.0]
        assert shed.tolist() == [1, 2, 0]

    def test_double_count_rejected(self):
        """The same request claimed by two shards is an error, not a wish."""
        parts = [
            self._partial(done=[1], fins=[10.0]),
            self._partial(shed=[1], codes=[1]),
        ]
        with pytest.raises(ValueError, match="double-counted"):
            merge_shard_partials(parts, 3)

    def test_double_count_within_one_shard_rejected(self):
        parts = [self._partial(done=[2, 2], fins=[10.0, 11.0])]
        with pytest.raises(ValueError, match="double-counted"):
            merge_shard_partials(parts, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            merge_shard_partials([self._partial(done=[3], fins=[1.0])], 3)
        with pytest.raises(ValueError, match="out-of-range"):
            merge_shard_partials([self._partial(shed=[-1], codes=[1])], 3)

    def test_prefix_merge_leaves_unclaimed_rows_zero(self):
        """Merging a prefix of shards is legal: unclaimed rows stay 0."""
        finish, shed = merge_shard_partials(
            [self._partial(done=[0], fins=[5.0])], 3
        )
        assert finish.tolist() == [5.0, 0.0, 0.0]
        assert shed.tolist() == [0, 0, 0]
