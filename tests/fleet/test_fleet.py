"""Fleet model: routing, admission/shedding, failure + recovery."""

import pytest

from repro.accel import AcceleratorConfig
from repro.accel.devices import ZCU111
from repro.fleet import (
    SHED_OVERLOAD,
    FailureEvent,
    Fleet,
    FleetConfig,
    FleetRequest,
    ReplicaSpec,
    builtin_scenarios,
    run_scenario,
)
from repro.serve import ServingConfig


def _request(arrival_ms, text="hello fleet world", tenant="t", slo_ms=100.0):
    return FleetRequest(
        tenant=tenant, slo_ms=slo_ms, text_a=text, text_b=None, arrival_ms=arrival_ms
    )


class TestConstruction:
    def test_needs_a_replica(self, cluster_model, hash_tokenizer, fleet_config):
        with pytest.raises(ValueError):
            Fleet(cluster_model, hash_tokenizer, [], fleet_config)

    def test_multi_device_serving_config_rejected(self):
        with pytest.raises(ValueError, match="num_devices"):
            FleetConfig(serving=ServingConfig(num_devices=2))

    def test_replica_labels_name_design_points(self, weak_spec):
        assert weak_spec.label == "weak"
        default = ReplicaSpec()
        assert default.label == "ZCU102/H12N8M16"


class TestRoutingAndBalance:
    def test_load_spreads_across_replicas(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config)
        trace = builtin_scenarios()["steady"].generate(seed=1, rate_scale=0.5)
        for request in trace:
            fleet.advance(request.arrival_ms)
            fleet.submit(request)
        fleet.drain()
        records = fleet.collect()
        used = {r.replica_id for r in records if not r.shed}
        assert used == {0, 1}

    def test_faster_replica_attracts_more_traffic(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Heterogeneous fleet: the stronger design point serves more."""
        strong = ReplicaSpec(
            accel_config=AcceleratorConfig.zcu111_n16_m16(), device=ZCU111,
            name="strong",
        )
        fleet = Fleet(
            cluster_model, hash_tokenizer, [weak_spec, strong], fleet_config
        )
        trace = builtin_scenarios()["steady"].generate(seed=1, rate_scale=1.0)
        for request in trace:
            fleet.advance(request.arrival_ms)
            fleet.submit(request)
        fleet.drain()
        records = fleet.collect()
        by_replica = {0: 0, 1: 0}
        for r in records:
            if not r.shed:
                by_replica[r.replica_id] += 1
        assert by_replica[1] > by_replica[0]

    def test_all_accepted_complete(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec], fleet_config)
        for i in range(10):
            fleet.advance(float(i))
            fleet.submit(_request(float(i), text=f"req number {i} words"))
        fleet.drain()
        records = fleet.collect()
        assert all(r.completed for r in records if not r.shed)
        assert all(r.finish_ms - r.arrival_ms > 0 for r in records if r.completed)


class TestAdmissionControl:
    def test_flash_crowd_sheds_on_fixed_fleet(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        report = run_scenario(
            "flash-crowd",
            cluster_model,
            hash_tokenizer,
            [weak_spec],
            fleet_config,
            seed=7,
            rate_scale=3.0,
        )
        stats = report.stats
        assert stats.shed > 0, "overload scenario must engage load shedding"
        assert stats.shed_by_reason == {SHED_OVERLOAD: stats.shed}
        assert stats.completed + stats.shed == stats.submitted
        # Shedding is the point: the accepted requests keep a bounded tail
        # instead of unbounded queueing.
        assert stats.p99_latency_ms <= 2 * fleet_config.serving.max_batch_size * 25

    def test_shed_everything_when_projection_hopeless(
        self, cluster_model, hash_tokenizer, weak_spec
    ):
        """An SLO far below the service time sheds every request — and the
        empty-stats path must summarize that cleanly (degenerate trace)."""
        config = FleetConfig(
            serving=ServingConfig(
                max_batch_size=8, max_wait_ms=5.0, buckets=(16, 32, 64),
                num_devices=1,
            ),
            admit_slo_factor=1.0,
        )
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec], config)
        for i in range(5):
            fleet.advance(float(i))
            fleet.submit(_request(float(i), slo_ms=0.001))
        fleet.drain()
        records = fleet.collect()
        assert all(r.shed for r in records)


class TestFailureRecovery:
    def test_failure_migrates_queue_no_lost_requests(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        report = run_scenario(
            "steady",
            cluster_model,
            hash_tokenizer,
            [weak_spec] * 2,
            fleet_config,
            failures=[FailureEvent(replica_id=0, fail_ms=60.0, recover_ms=150.0)],
            seed=7,
        )
        stats = report.stats
        assert stats.shed == 0
        assert stats.completed == stats.submitted, "failure lost accepted requests"
        replica0 = next(r for r in stats.replicas if r.replica_id == 0)
        assert replica0.failures == 1
        assert replica0.retired_ms < 0  # recovered, live at the end

    def test_failed_replica_takes_no_traffic_while_down(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config)
        fleet.advance(10.0)
        fleet.fail_replica(0, 10.0)
        for i in range(12):
            t = 11.0 + i
            fleet.advance(t)
            fleet.submit(_request(t, text=f"after failure {i}"))
        fleet.drain()
        records = fleet.collect()
        assert all(r.replica_id == 1 for r in records if not r.shed)

    def test_recovered_replica_serves_again(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config)
        fleet.advance(1.0)
        fleet.fail_replica(0, 1.0)
        fleet.recover_replica(0, 2.0)
        cold_until = 2.0 + fleet.cold_start_ms(fleet.replicas[0])
        # After the cold start window, replica 0 is routable again.
        t = cold_until + 200.0
        fleet.advance(t)
        for i in range(32):
            fleet.advance(t + i * 0.1)
            fleet.submit(_request(t + i * 0.1, text=f"post recovery {i % 8}"))
        fleet.drain()
        records = fleet.collect()
        assert {r.replica_id for r in records if not r.shed} == {0, 1}

    def test_migration_keeps_original_arrival_accounting(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config)
        fleet.advance(0.0)
        record = None
        # Unique texts so nothing dedups; queue on replica picked for req 0.
        for i in range(3):
            fleet.advance(float(i))
            rec = fleet.submit(_request(float(i), text=f"migration probe {i}"))
            record = record or rec
        target = record.replica_id
        fleet.fail_replica(target, 4.0)
        fleet.drain()
        fleet.collect()
        migrated = [r for r in fleet.records if r.migrations > 0]
        assert migrated, "failing the routed replica must migrate its queue"
        for r in migrated:
            assert r.completed
            # latency (finish_ms - arrival_ms) counts from the original
            # arrival at r.index ms, not from the resubmission at 4 ms
            assert r.arrival_ms == float(r.index)
            assert r.finish_ms > 4.0

    def test_downtime_excluded_from_live_time(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config)
        fleet.advance(10.0)
        fleet.fail_replica(0, 10.0)
        fleet.recover_replica(0, 70.0)
        assert fleet.replicas[0].downtime_ms == pytest.approx(60.0)

    def test_failing_unknown_replica_is_noop(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """A failure plan may target a replica the autoscaler never created."""
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec], fleet_config)
        fleet.fail_replica(99, 5.0)
        fleet.recover_replica(99, 6.0)
        assert len(fleet.live_replicas()) == 1

    def test_failing_everything_sheds_with_no_capacity(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        from repro.fleet import SHED_NO_CAPACITY

        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec], fleet_config)
        fleet.advance(0.0)
        fleet.fail_replica(0, 0.0)
        record = fleet.submit(_request(1.0))
        assert record.shed and record.shed_reason == SHED_NO_CAPACITY
        fleet.drain()
        fleet.collect()  # must not raise: nothing accepted was lost


class TestElasticity:
    def test_add_replica_pays_cold_start(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec], fleet_config)
        fleet.advance(50.0)
        replica = fleet.add_replica(weak_spec, now_ms=50.0, cold=True)
        penalty = fleet.cold_start_ms(replica)
        assert penalty > 0
        device = replica.engine.router.devices[0]
        assert device.busy_until_ms == pytest.approx(50.0 + penalty)

    def test_remove_last_replica_refused(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec], fleet_config)
        with pytest.raises(ValueError, match="last live replica"):
            fleet.remove_replica(0, 1.0)

    def test_graceful_removal_migrates_queue(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config)
        for i in range(6):
            fleet.advance(float(i))
            fleet.submit(_request(float(i), text=f"drain probe {i}"))
        fleet.remove_replica(0, 6.0)
        fleet.drain()
        records = fleet.collect()
        assert all(r.completed for r in records if not r.shed)
        assert not fleet.replicas[0].live
