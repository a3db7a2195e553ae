"""The bench harness: its pinned workloads and contracts.

Deterministic contracts are pinned here exactly: the simulated-clock
statistics of the serve, cluster, design-search and mega-trace runs, and
the chaos drill's recovery, alerting and cross-engine stream equality.
Any change to one of these values is a functional change, not noise.
The wall-clock contracts run in ``repro.cli bench``; its failure path is
tested at the bottom without running its 100M-request trace.
"""

import json

import numpy as np
import pytest

from repro.accel import AcceleratorConfig
from repro.accel.devices import ZCU111
from repro.cli import main
from repro.fleet import (
    AutoscalePolicy,
    ChaosPlan,
    FleetConfig,
    GrayWindow,
    ReplicaSpec,
    ResiliencePolicy,
    ZoneOutage,
    run_scenario,
    run_scenario_columnar,
)
from repro.obs import FleetObserver
from repro.perf import HashTokenizer, bench_text_pool, build_synthetic_integer_model
from repro.perf import bench
from repro.perf.bench import BENCH_BATCH, _kernel_config, cluster_model_config
from repro.serve import ServingConfig, ServingEngine, generate_trace

FLEET_SERVING = ServingConfig(
    max_batch_size=BENCH_BATCH,
    max_wait_ms=5.0,
    buckets=(16, 32, 64),
    num_devices=1,
    cache_capacity=512,
)
# A deliberately slow design point: overload is reachable with a few
# hundred requests.
WEAK = ReplicaSpec(
    accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
    name="weak",
)


@pytest.fixture(scope="module")
def fleet_model():
    return build_synthetic_integer_model(cluster_model_config(), seed=0)


@pytest.fixture(scope="module")
def fleet_tokenizer():
    return HashTokenizer(vocab_size=cluster_model_config().vocab_size)


class TestWorkloads:
    def test_synthetic_model_is_deterministic(self):
        a = build_synthetic_integer_model(seed=5)
        b = build_synthetic_integer_model(seed=5)
        np.testing.assert_array_equal(
            a.layers[0].ffn1.weight_codes, b.layers[0].ffn1.weight_codes
        )
        ids = np.arange(12).reshape(2, 6)
        np.testing.assert_array_equal(a.forward(ids), b.forward(ids))

    def test_text_pool_deterministic(self):
        assert bench_text_pool(8, seed=1) == bench_text_pool(8, seed=1)
        assert bench_text_pool(8, seed=1) != bench_text_pool(8, seed=2)

    def test_hash_tokenizer_contract(self):
        tok = HashTokenizer(vocab_size=64)
        ids, mask, segments = tok.encode("hello world", "again", max_length=8)
        assert ids.shape == mask.shape == segments.shape == (8,)
        assert ids[0] == 1 and mask.sum() == 4
        assert (segments[:4] == np.array([0, 0, 0, 1])).all()
        ids2, _, _ = tok.encode("hello world", "again", max_length=8)
        np.testing.assert_array_equal(ids, ids2)

    def test_hash_tokenizer_truncates(self):
        tok = HashTokenizer(vocab_size=64)
        ids, mask, _ = tok.encode(" ".join(["w"] * 50), max_length=8)
        assert mask.sum() == 8 and ids.shape == (8,)


class TestServeSuite:
    """96 Poisson requests through the full serving engine on the kernel
    shape, two simulated devices."""

    def test_simulated_metrics_are_deterministic(self):
        config = _kernel_config()
        engine = ServingEngine(
            build_synthetic_integer_model(config, seed=0),
            HashTokenizer(vocab_size=config.vocab_size),
            ServingConfig(
                max_batch_size=BENCH_BATCH,
                max_wait_ms=8.0,
                buckets=(16, 32, 64),
                num_devices=2,
                cache_capacity=256,
                slo_ms=400.0,
            ),
        )
        engine.run_trace(
            generate_trace(
                bench_text_pool(48, seed=0),
                num_requests=96,
                mean_interarrival_ms=2.0,
                seed=0,
            )
        )
        stats = engine.stats()
        assert {
            "sim_p50_latency_ms": stats.p50_latency_ms,
            "sim_p95_latency_ms": stats.p95_latency_ms,
            "sim_throughput_rps": stats.throughput_rps,
            "sim_mean_batch_size": stats.mean_batch_size,
            "sim_cache_hit_rate": stats.cache_hit_rate,
            "sim_padding_efficiency": stats.padding_efficiency,
        } == {
            "sim_p50_latency_ms": 6.564190318952846,
            "sim_p95_latency_ms": 9.184822429906546,
            "sim_throughput_rps": 441.8883570105057,
            "sim_mean_batch_size": 2.823529411764706,
            "sim_cache_hit_rate": 0.5416666666666666,
            "sim_padding_efficiency": 0.6375932835820896,
        }


class TestClusterSuite:
    """A 3x flash crowd against one weak replica, fixed and autoscaled,
    plus a steady trace on a heterogeneous ZCU102 + ZCU111 fleet."""

    @pytest.fixture(scope="class")
    def cluster_runs(self, fleet_model, fleet_tokenizer):
        def run(scenario, specs, fleet_config, **kwargs):
            return run_scenario(
                scenario, fleet_model, fleet_tokenizer, specs, fleet_config,
                seed=0, rate_scale=3.0, **kwargs,
            )

        shedding = FleetConfig(serving=FLEET_SERVING, admit_slo_factor=1.0)
        fixed = run("flash-crowd", [WEAK], shedding)
        autoscaled = run(
            "flash-crowd", [WEAK], shedding,
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=5, interval_ms=15.0),
        )
        hetero = run(
            "steady",
            [
                ReplicaSpec(accel_config=AcceleratorConfig.zcu102_n8_m16()),
                ReplicaSpec(
                    accel_config=AcceleratorConfig.zcu111_n16_m16(), device=ZCU111
                ),
            ],
            FleetConfig(serving=FLEET_SERVING),
        )
        return fixed.stats, autoscaled.stats, hetero.stats

    def test_simulated_metrics_are_deterministic(self, cluster_runs):
        fixed, auto, hetero = cluster_runs
        assert {
            "sim_fixed_goodput_rps": fixed.goodput_rps,
            "sim_fixed_shed_rate": fixed.shed_rate,
            "sim_fixed_p99_latency_ms": fixed.p99_latency_ms,
            "sim_auto_goodput_rps": auto.goodput_rps,
            "sim_auto_p99_latency_ms": auto.p99_latency_ms,
            "sim_auto_slo_attainment": auto.slo_attainment,
            "sim_auto_scale_ups": sum(e.action == "up" for e in auto.scale_events),
            "sim_hetero_p99_latency_ms": hetero.p99_latency_ms,
            "sim_hetero_throughput_rps": hetero.throughput_rps,
        } == {
            "sim_fixed_goodput_rps": 1231.0270724320544,
            "sim_fixed_shed_rate": 0.30029154518950435,
            "sim_fixed_p99_latency_ms": 136.5412048500659,
            "sim_auto_goodput_rps": 2243.132333567934,
            "sim_auto_p99_latency_ms": 103.75664521015108,
            "sim_auto_slo_attainment": 1.0,
            "sim_auto_scale_ups": 2,
            "sim_hetero_p99_latency_ms": 5.456186915887855,
            "sim_hetero_throughput_rps": 2697.1642930289427,
        }

    def test_fixed_fleet_sheds(self, cluster_runs):
        fixed, _, _ = cluster_runs
        assert fixed.shed > 0

    def test_hetero_fleet_sheds_nothing_and_completes_everything(self, cluster_runs):
        _, _, hetero = cluster_runs
        assert hetero.shed == 0
        assert hetero.completed == hetero.submitted


class TestDseSuite:
    """The ``table3`` Pareto front and a capacity plan for a 4x flash
    crowd over a weak/mid/default design ladder."""

    @pytest.fixture(scope="class")
    def front(self):
        from repro.search import builtin_spaces, explore

        return explore(builtin_spaces()["table3"], seed=0)

    @pytest.fixture(scope="class")
    def best_plan(self, fleet_model, fleet_tokenizer):
        from repro.search import SloTarget, plan_capacity

        designs = [
            WEAK,
            ReplicaSpec(
                accel_config=AcceleratorConfig(num_pus=4, num_pes=4, num_multipliers=8),
                name="mid",
            ),
            ReplicaSpec(name="default"),
        ]
        return plan_capacity(
            "flash-crowd",
            designs,
            SloTarget(p99_ms=150.0),
            fleet_model,
            fleet_tokenizer,
            fleet_config=FleetConfig(serving=FLEET_SERVING),
            max_replicas=3,
            seed=0,
            rate_scale=4.0,
        ).best

    def test_sim_metrics_reproduce(self, front, best_plan):
        assert {
            "sim_front_size": len(front.front),
            "sim_front_feasible": front.feasible,
            "sim_front_min_latency_ms": min(r.latency_ms for r in front.front),
            "sim_front_min_energy_mj": min(
                r.energy_per_inference_mj for r in front.front
            ),
            "sim_plan_replicas": len(best_plan.plan.replicas),
            "sim_plan_replica_seconds": best_plan.replica_seconds,
            "sim_plan_energy_j": best_plan.energy_j,
            "sim_plan_p99_latency_ms": best_plan.p99_ms,
            "sim_plan_shed_rate": best_plan.shed_rate,
            "sim_plan_goodput_rps": best_plan.goodput_rps,
        } == {
            "sim_front_size": 23,
            "sim_front_feasible": 23,
            "sim_front_min_latency_ms": 24.4788785046729,
            "sim_front_min_energy_mj": 323.2625495456075,
            "sim_plan_replicas": 1,
            "sim_plan_replica_seconds": 0.30255069003958446,
            "sim_plan_energy_j": 2.966763204591724,
            "sim_plan_p99_latency_ms": 5.329383177570094,
            "sim_plan_shed_rate": 0.0,
            "sim_plan_goodput_rps": 3166.411551977156,
        }

    def test_plan_is_feasible_and_pinned(self, best_plan):
        assert best_plan is not None and best_plan.feasible


# The chaos drill: three weak replicas; two share a zone that goes dark
# over 300-500 ms while the third runs 4x gray over the same window.
# Tight admission (1.0x SLO) and a 25 ms timeout make retries, timeouts
# and breaker opens all fire.
DRILL_PLAN = ChaosPlan(
    name="bench-zone-outage",
    zones=(("zone-a", (0, 1)),),
    outages=(ZoneOutage(zone="zone-a", at_ms=300.0, recover_ms=500.0),),
    grays=(GrayWindow(replica_id=2, start_ms=300.0, end_ms=500.0, slowdown=4.0),),
)
DRILL_POLICY = ResiliencePolicy(
    max_retries=2,
    backoff_base_ms=3.0,
    retry_budget_ratio=1.0,
    retry_budget_burst=20.0,
    breaker=True,
    breaker_straggle_factor=2.0,
    breaker_window=6,
    breaker_min_samples=3,
    breaker_open_ms=30.0,
    timeout_ms=25.0,
)


class TestChaosDrill:
    @pytest.fixture(scope="class")
    def drill(self, fleet_model, fleet_tokenizer):
        """``run(engine, **kwargs) -> (report, observer)`` for the drill."""

        def run(engine, **kwargs):
            obs = FleetObserver()
            report = engine(
                "steady",
                fleet_model,
                fleet_tokenizer,
                [WEAK] * 3,
                FleetConfig(serving=FLEET_SERVING, admit_slo_factor=1.0),
                seed=0,
                rate_scale=6.0,
                duration_scale=4.0,
                scale_spec=WEAK,
                autoscale=AutoscalePolicy(
                    min_replicas=1, max_replicas=6, interval_ms=50.0, cooldown_ticks=1
                ),
                chaos=DRILL_PLAN,
                resilience=DRILL_POLICY,
                obs=obs,
                **kwargs,
            )
            return report, obs

        return run

    @pytest.fixture(scope="class")
    def event_loop(self, drill):
        return drill(run_scenario, analytic=True)

    def test_recovers_from_zone_outage(self, event_loop):
        _, obs = event_loop
        mttr_ms = next(
            float(line.split()[-1])
            for line in obs.render_prometheus().splitlines()
            if line.startswith("repro_mttr_ms ")
        )
        windows = [json.loads(line) for line in obs.window_lines()]
        before = [w["goodput_rps"] for w in windows if w["end_ms"] <= 300.0]
        after = [w["goodput_rps"] for w in windows if w["start_ms"] >= 500.0]
        recovery = (sum(after) / len(after)) / (sum(before) / len(before))
        assert mttr_ms == 60.0
        assert recovery == 1.0576923076923077
        assert recovery >= 0.9  # the sustained-recovery floor

    def test_resilience_mechanisms_fire(self, event_loop):
        report, obs = event_loop
        assert len(obs.alerts.transitions) == 8
        chaos = report.stats.chaos
        assert chaos.retries > 0
        assert chaos.timeouts > 0
        assert chaos.breaker_opens > 0

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_columnar_streams_match_event_loop(self, drill, event_loop, shards):
        _, obs = event_loop
        _, shard_obs = drill(run_scenario_columnar, shards=shards)
        assert shard_obs.render_prometheus() == obs.render_prometheus()
        assert shard_obs.window_lines() == obs.window_lines()
        assert shard_obs.trace_json() == obs.trace_json()


class TestMegaTrace:
    def test_columnar_sim_metrics(self, fleet_model, fleet_tokenizer):
        """The ~1.06M-request flash crowd on 8 default replicas; its wall
        clock and event-loop equality are ``repro.cli bench`` contracts."""
        stats = run_scenario_columnar(
            "flash-crowd",
            fleet_model,
            fleet_tokenizer,
            [ReplicaSpec()] * 8,
            FleetConfig(serving=FLEET_SERVING),
            seed=0,
            rate_scale=64.0,
            duration_scale=70.0,
        ).stats
        assert {
            "sim_mega_submitted": stats.submitted,
            "sim_mega_shed_rate": stats.shed_rate,
            "sim_mega_goodput_rps": stats.goodput_rps,
            "sim_mega_throughput_rps": stats.throughput_rps,
            "sim_mega_p99_latency_ms": stats.p99_latency_ms,
        } == {
            "sim_mega_submitted": 1062020,
            "sim_mega_shed_rate": 0.0,
            "sim_mega_goodput_rps": 50561.84832027998,
            "sim_mega_throughput_rps": 50561.84832027998,
            "sim_mega_p99_latency_ms": 5.139177570094034,
        }


# Measured values that meet every contract.
HEALTHY = {
    "analytic_report_identical": True,
    "analytic_speedup_vs_executed": 25.6,
    "observed_report_identical": True,
    "obs_overhead_ratio": 1.05,
    "chaos_disabled_overhead_ratio": 0.97,
    "sim_mega_submitted": 1062020,
    "columnar_report_identical": True,
    "columnar_speedup_vs_analytic": 100.0,
    "sim_giga_submitted": 100867030,
    "sim_giga_shed_rate": 0.668794491123611,
    "sim_giga_goodput_rps": 977.5759458406835,
    "sim_giga_p99_latency_ms": 295.1700331099593,
    "dse_memoized_evals_per_s": 567612.0,
}


class TestCliBench:
    def test_regression_fails_with_exit_1(self, monkeypatch, capsys):
        breached = dict(
            HEALTHY, obs_overhead_ratio=1.2, sim_giga_shed_rate=0.6687944911236
        )
        monkeypatch.setattr(bench, "measure", lambda seed=0: breached)
        assert main(["bench"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == (
            "[bench] FAILED: obs_overhead_ratio < 1.1; "
            "sim_giga_shed_rate == 0.668794491123611"
        )
        assert sum(line.endswith("BREACH") for line in out.splitlines()) == 2

    def test_healthy_run_exits_0(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "measure", lambda seed=0: dict(HEALTHY))
        assert main(["bench"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(bench.CONTRACTS) + 1
        assert all(line.endswith(" ok") for line in lines[:-1])
        assert lines[-1] == f"[bench] OK: all {len(bench.CONTRACTS)} contracts hold"

    def test_retired_options_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--quick"])
