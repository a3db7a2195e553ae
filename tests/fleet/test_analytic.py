"""Analytic (latency-only) execution mode: the equivalence contract.

The tentpole claim is that analytic mode changes *nothing* except host
compute: every timing, SLO, and stats quantity derives from the
accelerator simulator's schedule in both modes, so an analytic
:class:`~repro.fleet.runner.FleetReport` must be byte-identical to the
executed one for the same seed/scenario/fleet.  These tests pin that
contract at the fleet layer, the engine layer, and the CLI.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.fleet import (
    AutoscalePolicy,
    FailureEvent,
    FleetConfig,
    ReplicaSpec,
    run_scenario,
)
from repro.serve import ServingConfig, ServingEngine, TraceRequest


class TestFleetEquivalence:
    def _pair(self, cluster_model, hash_tokenizer, specs, fleet_config, **kwargs):
        executed = run_scenario(
            "steady", cluster_model, hash_tokenizer, specs, fleet_config, **kwargs
        )
        analytic = run_scenario(
            "steady", cluster_model, hash_tokenizer, specs, fleet_config,
            analytic=True, **kwargs
        )
        return executed, analytic

    def test_reports_byte_identical(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        executed, analytic = self._pair(
            cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config,
            seed=3, rate_scale=0.5,
        )
        assert executed.to_json() == analytic.to_json()
        assert executed.render() == analytic.render()

    def test_equivalence_under_autoscale_and_failures(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """The hard case: scaling decisions and failover both read engine
        state, so any analytic-mode drift would compound into different
        cluster decisions — byte equality proves there is none."""
        kwargs = dict(
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=4, interval_ms=15.0),
            failures=[FailureEvent(replica_id=0, fail_ms=60.0, recover_ms=150.0)],
            seed=5,
            rate_scale=1.5,
        )
        executed = run_scenario(
            "flash-crowd", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, **kwargs
        )
        analytic = run_scenario(
            "flash-crowd", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, analytic=True, **kwargs
        )
        assert executed.to_json() == analytic.to_json()

    def test_analytic_via_serving_config(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """``ServingConfig(analytic=True)`` is the primitive the runner
        flag threads down to; setting it directly is equivalent."""
        from dataclasses import replace

        direct = run_scenario(
            "steady", cluster_model, hash_tokenizer, [weak_spec],
            replace(fleet_config, serving=replace(fleet_config.serving, analytic=True)),
            seed=3, rate_scale=0.3,
        )
        via_flag = run_scenario(
            "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
            seed=3, rate_scale=0.3, analytic=True,
        )
        assert direct.to_json() == via_flag.to_json()

    def test_analytic_is_deterministic(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        a = run_scenario(
            "multi-tenant", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, seed=9, rate_scale=0.5, analytic=True,
        )
        b = run_scenario(
            "multi-tenant", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, seed=9, rate_scale=0.5, analytic=True,
        )
        assert a.to_json() == b.to_json()


class TestEngineAnalytic:
    @pytest.fixture()
    def trace(self):
        return [
            TraceRequest(text_a=f"request number {i % 5}", text_b=None, arrival_ms=2.0 * i)
            for i in range(24)
        ]

    def _engines(self, cluster_model, hash_tokenizer):
        def build(analytic):
            return ServingEngine(
                cluster_model,
                hash_tokenizer,
                ServingConfig(
                    max_batch_size=4,
                    max_wait_ms=5.0,
                    buckets=(16, 32, 64),
                    cache_capacity=64,
                    slo_ms=50.0,
                    analytic=analytic,
                ),
            )
        return build(False), build(True)

    def test_timing_fields_identical(self, cluster_model, hash_tokenizer, trace):
        executed, analytic = self._engines(cluster_model, hash_tokenizer)
        ex_results = executed.run_trace(trace)
        an_results = analytic.run_trace(trace)
        assert len(ex_results) == len(an_results)
        for ex, an in zip(ex_results, an_results):
            for field in (
                "request_id", "arrival_ms", "start_ms", "finish_ms", "queue_ms",
                "service_ms", "latency_ms", "device_id", "batch_id", "batch_size",
                "bucket", "length", "cache_hit", "slo_met",
            ):
                assert getattr(ex, field) == getattr(an, field), field

    def test_stats_identical(self, cluster_model, hash_tokenizer, trace):
        executed, analytic = self._engines(cluster_model, hash_tokenizer)
        executed.run_trace(trace)
        analytic.run_trace(trace)
        assert executed.stats() == analytic.stats()

    def test_analytic_results_carry_no_logits(
        self, cluster_model, hash_tokenizer, trace
    ):
        _, analytic = self._engines(cluster_model, hash_tokenizer)
        for result in analytic.run_trace(trace):
            assert result.prediction == -1
            assert result.logits.size == 0

    def test_executed_results_still_have_logits(
        self, cluster_model, hash_tokenizer, trace
    ):
        executed, _ = self._engines(cluster_model, hash_tokenizer)
        for result in executed.run_trace(trace):
            assert result.logits.size > 0
            assert result.prediction == int(np.argmax(result.logits))


class TestCliAnalytic:
    def test_loadtest_analytic_report_matches_executed(self, capsys):
        args = [
            "loadtest", "--replicas", "1", "--rate-scale", "0.25",
            "--seed", "11", "--scenario", "steady",
        ]
        assert main(args) == 0
        executed_out = capsys.readouterr().out
        assert main(args + ["--engine", "analytic"]) == 0
        analytic_out = capsys.readouterr().out
        assert analytic_out == executed_out
