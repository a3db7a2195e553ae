"""Scenario runner + fleet metrics: determinism, reports, empty-safety."""

import json

import numpy as np
import pytest

from repro.fleet import (
    FailureEvent,
    FleetRequest,
    build_fleet_stats_columns,
    builtin_scenarios,
    run_scenario,
)


class TestRunScenario:
    def test_accepts_name_scenario_or_trace(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        by_name = run_scenario(
            "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
            seed=3, rate_scale=0.3,
        )
        by_object = run_scenario(
            builtin_scenarios()["steady"], cluster_model, hash_tokenizer,
            [weak_spec], fleet_config, seed=3, rate_scale=0.3,
        )
        assert by_name.to_json() == by_object.to_json()
        trace = builtin_scenarios()["steady"].generate(seed=3, rate_scale=0.3)
        by_trace = run_scenario(
            trace, cluster_model, hash_tokenizer, [weak_spec], fleet_config,
        )
        assert by_trace.scenario == "custom-trace"
        assert by_trace.stats.submitted == by_name.stats.submitted

    def test_unknown_name_rejected(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario(
                "tsunami", cluster_model, hash_tokenizer, [weak_spec], fleet_config
            )

    def test_report_json_round_trips(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        report = run_scenario(
            "multi-tenant", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, seed=5, rate_scale=0.5,
        )
        doc = json.loads(report.to_json())
        assert doc["scenario"] == "multi-tenant"
        assert set(doc["stats"]["tenants"]) == {"interactive", "standard", "batch"}
        assert doc["stats"]["submitted"] == report.stats.submitted
        assert len(doc["stats"]["replicas"]) == 2

    def test_per_tenant_slos_tracked_separately(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        report = run_scenario(
            "multi-tenant", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, seed=5,
        )
        tenants = report.stats.tenants
        # batch tolerates 10x the latency of interactive, so with the same
        # latency distribution its attainment can only be >= interactive's.
        assert tenants["batch"].slo_attainment >= tenants["interactive"].slo_attainment

    def test_failure_plan_runs_inside_runner(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        report = run_scenario(
            "steady", cluster_model, hash_tokenizer, [weak_spec] * 2, fleet_config,
            failures=[FailureEvent(replica_id=1, fail_ms=50.0)],
            seed=3, rate_scale=0.5,
        )
        stats = report.stats
        assert stats.completed + stats.shed == stats.submitted
        replica1 = next(r for r in stats.replicas if r.replica_id == 1)
        assert replica1.failures == 1
        assert replica1.retired_ms == pytest.approx(50.0)

    def test_failure_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(replica_id=0, fail_ms=10.0, recover_ms=5.0)


class TestEmptySafety:
    def test_stats_from_no_records(self):
        empty = np.empty(0)
        stats = build_fleet_stats_columns(
            duration_ms=0.0, tenant_names=[],
            tenant_idx=empty.astype(np.int64), slo_ms=empty, arrival_ms=empty,
            finish_ms=empty, shed_code=empty.astype(np.uint8), migrations=0,
            replicas=[], scale_events=[],
        )
        assert stats.submitted == 0
        assert stats.shed_rate == 0.0
        assert stats.slo_attainment == 1.0
        assert stats.goodput_rps == 0.0
        assert stats.p99_latency_ms == 0.0
        assert "requests:       0 submitted" in stats.render()
        json.loads(json.dumps(stats.to_dict()))  # serializable

    def test_empty_trace_runs_clean(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        report = run_scenario(
            [], cluster_model, hash_tokenizer, [weak_spec], fleet_config
        )
        assert report.stats.submitted == 0
        assert report.stats.throughput_rps == 0.0

    def test_fully_shed_trace_summarizes(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Everything shed -> zero completions, still a full report."""
        trace = [
            FleetRequest(
                tenant="t", slo_ms=0.001, text_a=f"impossible {i}", text_b=None,
                arrival_ms=float(i),
            )
            for i in range(6)
        ]
        report = run_scenario(
            trace, cluster_model, hash_tokenizer, [weak_spec], fleet_config
        )
        stats = report.stats
        assert stats.completed == 0
        assert stats.shed == stats.submitted == 6
        assert stats.p99_latency_ms == 0.0
        assert stats.tenants["t"].shed_rate == 1.0
        assert "shed (100.0%)" in stats.render()
