"""Autoscaler: signals, scale decisions, goodput under flash crowds."""

import pytest

from repro.fleet import (
    AutoscalePolicy,
    Autoscaler,
    Fleet,
    run_scenario,
)
from repro.fleet.autoscale import tick_signals


class TestPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(interval_ms=0.0)
        with pytest.raises(ValueError):
            AutoscalePolicy(utilization_low=0.9, utilization_high=0.8)


class TestDecide:
    """``AutoscalePolicy.decide``: the one scaling rule of both engines."""

    POLICY = AutoscalePolicy(min_replicas=1, max_replicas=3, cooldown_ticks=2)

    def test_scale_up_reasons_in_priority_order(self):
        decide = self.POLICY.decide
        assert decide(0, 0.9, 2.0, 99, 2, 8) == (2, "up", "utilization 0.90 > 0.80")
        assert decide(0, 0.5, 2.0, 99, 2, 8) == (2, "up", "p99 2.00x SLO > 1.00x")
        assert decide(0, 0.5, 0.5, 17, 2, 8) == (2, "up", "queue depth 17 > 16")

    def test_scale_down_and_clamps(self):
        decide = self.POLICY.decide
        assert decide(0, 0.1, 0.5, 0, 2, 8) == (2, "down", "utilization 0.10 < 0.25")
        assert decide(0, 0.9, 0.5, 0, 3, 8) == (0, None, "")  # at max_replicas
        assert decide(0, 0.1, 0.5, 0, 1, 8) == (0, None, "")  # at min_replicas
        assert decide(0, 0.1, 0.5, 1, 2, 8) == (0, None, "")  # queue not empty

    def test_cooldown_counts_down_without_acting(self):
        assert self.POLICY.decide(2, 0.9, 0.0, 0, 1, 8) == (1, None, "")
        assert self.POLICY.decide(1, 0.9, 0.0, 0, 1, 8) == (0, None, "")


class TestSignals:
    def test_idle_fleet_reads_zero_utilization(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec], fleet_config)
        scaler = Autoscaler(fleet, AutoscalePolicy(interval_ms=10.0))
        fleet.advance(10.0)
        assert scaler.window_signals(10.0) == (0.0, 0.0)
        assert scaler.queue_depth() == 0

    def test_tick_signals_read_zero_on_empty_inputs(self):
        assert tick_signals(0.0, 5.0, 2, [10.0], 20.0) == (0.0, 0.5)
        assert tick_signals(10.0, 5.0, 0, [], 20.0) == (0.0, 0.0)
        assert tick_signals(10.0, 50.0, 2, [10.0], None) == (1.0, 0.0)
        assert tick_signals(10.0, 5.0, 2, [10.0, 30.0], 10.0)[0] == 0.25

    def test_no_scaling_when_idle(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config)
        scaler = Autoscaler(
            fleet, AutoscalePolicy(min_replicas=2, max_replicas=4, interval_ms=10.0)
        )
        for tick in range(1, 6):
            fleet.advance(tick * 10.0)
            scaler.tick(tick * 10.0)
        assert scaler.events == []
        assert len(fleet.live_replicas()) == 2

    def test_scale_down_when_overprovisioned(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 3, fleet_config)
        scaler = Autoscaler(
            fleet,
            AutoscalePolicy(
                min_replicas=1, max_replicas=3, interval_ms=10.0, cooldown_ticks=0
            ),
        )
        for tick in range(1, 6):
            fleet.advance(tick * 10.0)
            scaler.tick(tick * 10.0)
        assert len(fleet.live_replicas()) < 3
        assert all(e.action == "down" for e in scaler.events)


class TestFlashCrowd:
    @pytest.fixture(scope="class")
    def flash_reports(self, cluster_model, hash_tokenizer):
        """Fixed vs autoscaled on the same flash-crowd trace."""
        from repro.accel import AcceleratorConfig
        from repro.fleet import FleetConfig, ReplicaSpec
        from repro.serve import ServingConfig

        weak = ReplicaSpec(
            accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
            name="weak",
        )
        config = FleetConfig(
            serving=ServingConfig(
                max_batch_size=8, max_wait_ms=5.0, buckets=(16, 32, 64),
                num_devices=1, cache_capacity=512,
            ),
            admit_slo_factor=1.0,
        )
        common = dict(
            scenario="flash-crowd",
            model=cluster_model,
            tokenizer=hash_tokenizer,
            specs=[weak],
            fleet_config=config,
            seed=7,
            rate_scale=3.0,
        )
        fixed = run_scenario(**common)
        autoscaled = run_scenario(
            **common,
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=5, interval_ms=15.0
            ),
        )
        return fixed, autoscaled

    def test_fixed_fleet_sheds(self, flash_reports):
        fixed, _ = flash_reports
        assert fixed.stats.shed > 0

    def test_autoscaler_strictly_improves_goodput(self, flash_reports):
        fixed, autoscaled = flash_reports
        assert autoscaled.stats.goodput_rps > fixed.stats.goodput_rps
        assert autoscaled.stats.shed < fixed.stats.shed

    def test_autoscaler_scales_up_during_burst(self, flash_reports):
        _, autoscaled = flash_reports
        ups = [e for e in autoscaled.stats.scale_events if e.action == "up"]
        assert ups, "flash crowd must trigger at least one scale-up"
        scenario_burst_start = 80.0
        assert all(e.time_ms >= scenario_burst_start for e in ups)
        for e in ups:
            assert e.replicas_after >= 2

    def test_autoscaler_improves_tail_latency(self, flash_reports):
        fixed, autoscaled = flash_reports
        assert autoscaled.stats.p99_latency_ms < fixed.stats.p99_latency_ms

    def test_reports_deterministic(self, flash_reports, cluster_model, hash_tokenizer):
        """Same seed, byte-identical report."""
        from repro.accel import AcceleratorConfig
        from repro.fleet import FleetConfig, ReplicaSpec
        from repro.serve import ServingConfig

        fixed, _ = flash_reports
        weak = ReplicaSpec(
            accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
            name="weak",
        )
        config = FleetConfig(
            serving=ServingConfig(
                max_batch_size=8, max_wait_ms=5.0, buckets=(16, 32, 64),
                num_devices=1, cache_capacity=512,
            ),
            admit_slo_factor=1.0,
        )
        again = run_scenario(
            "flash-crowd", cluster_model, hash_tokenizer, [weak], config,
            seed=7, rate_scale=3.0,
        )
        assert again.render() == fixed.render()
        assert again.to_json() == fixed.to_json()


class TestCooldown:
    def test_cooldown_spaces_actions(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        fleet = Fleet(cluster_model, hash_tokenizer, [weak_spec] * 3, fleet_config)
        scaler = Autoscaler(
            fleet,
            AutoscalePolicy(
                min_replicas=1, max_replicas=3, interval_ms=10.0, cooldown_ticks=2
            ),
        )
        for tick in range(1, 9):
            fleet.advance(tick * 10.0)
            scaler.tick(tick * 10.0)
        times = [e.time_ms for e in scaler.events]
        assert all(b - a >= 30.0 for a, b in zip(times, times[1:]))
