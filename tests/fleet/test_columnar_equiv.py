"""Differential equivalence suite: columnar engine vs event-loop analytic.

The columnar engine's whole contract is *byte-identical* reports — not
statistically close, identical.  Every test here renders both engines'
reports to their stable JSON and human-readable forms and compares the
bytes, across every scenario class x {autoscale on/off, failures on/off},
across the runtime-compiled C kernel and the pure-Python event loop a
run without it falls back to, and across every input form the runner
accepts.
"""

import pytest

from repro.accel import AcceleratorConfig
from repro.fleet import (
    AutoscalePolicy,
    FailureEvent,
    ReplicaSpec,
    ResiliencePolicy,
    builtin_scenarios,
    native_available,
    run_scenario,
    run_scenario_columnar,
)
from repro.fleet.columnar import ColumnarFleetEngine, shard_windows
from repro.fleet.scenarios import SCENARIO_NAMES

AUTOSCALE = AutoscalePolicy(
    min_replicas=1, max_replicas=5, interval_ms=200.0, cooldown_ticks=2
)
FAILURES = (FailureEvent(replica_id=0, fail_ms=300.0, recover_ms=900.0),)


@pytest.fixture
def hetero_specs(weak_spec):
    """Two design points, so routing ties and projections are exercised."""
    strong = ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=4, num_pes=2, num_multipliers=8),
        name="strong",
    )
    return [weak_spec, strong]


def _both(scenario, cluster_model, hash_tokenizer, specs, fleet_config, **kw):
    ref = run_scenario(
        scenario, cluster_model, hash_tokenizer, specs, fleet_config,
        analytic=True, **kw,
    )
    got = run_scenario_columnar(
        scenario, cluster_model, hash_tokenizer, specs, fleet_config, **kw,
    )
    return ref, got


class TestScenarioMatrix:
    """Every scenario class x autoscale x failures: identical bytes."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_NAMES))
    @pytest.mark.parametrize("autoscaled", [False, True], ids=["fixed", "autoscale"])
    @pytest.mark.parametrize("failing", [False, True], ids=["healthy", "failures"])
    def test_byte_identical(
        self, scenario, autoscaled, failing,
        cluster_model, hash_tokenizer, hetero_specs, fleet_config,
    ):
        ref, got = _both(
            scenario, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            autoscale=AUTOSCALE if autoscaled else None,
            scale_spec=hetero_specs[0] if autoscaled else None,
            failures=FAILURES if failing else (),
            seed=2, rate_scale=0.4, duration_scale=0.5,
        )
        assert got.to_json() == ref.to_json()
        assert got.render() == ref.render()


class TestSweepImplementations:
    """The C kernel and the Python sweep — the event loop — agree."""

    def test_python_sweep_matches_event_loop(
        self, monkeypatch, cluster_model, hash_tokenizer, hetero_specs,
        fleet_config,
    ):
        ref = run_scenario(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, seed=4, rate_scale=0.5,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("native=False built the columnar engine")

        # native=False hands the whole run to the event loop.
        monkeypatch.setattr(ColumnarFleetEngine, "__init__", refuse)
        got = run_scenario_columnar(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, seed=4, rate_scale=0.5, native=False,
        )
        assert got.to_json() == ref.to_json()

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_native_kernel_matches_python_sweep(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        kw = dict(seed=4, rate_scale=0.6)
        with_native = run_scenario_columnar(
            "multi-tenant", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, native=True, **kw,
        )
        event_loop = run_scenario(
            "multi-tenant", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, **kw,
        )
        assert with_native.to_json() == event_loop.to_json()


class TestInputForms:
    """Name, Scenario, ColumnarTrace, and request-list inputs all agree."""

    def test_columnar_trace_input(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        scen = builtin_scenarios()["diurnal"]
        cols = scen.generate_columns(seed=3, rate_scale=0.5)
        by_name = run_scenario_columnar(
            "diurnal", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, seed=3, rate_scale=0.5,
        )
        by_cols = run_scenario_columnar(
            cols, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
        )
        assert by_cols.to_json() == by_name.to_json()
        # the prebuilt trace carries its own generation seed
        assert by_cols.seed == 3

    def test_request_list_input(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        trace = builtin_scenarios()["steady"].generate(seed=5, rate_scale=0.4)
        ref = run_scenario(
            trace, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            analytic=True,
        )
        got = run_scenario_columnar(
            trace, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
        )
        assert got.scenario == "custom-trace"
        assert got.to_json() == ref.to_json()

    def test_empty_trace(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        ref = run_scenario(
            [], cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            analytic=True,
        )
        got = run_scenario_columnar(
            [], cluster_model, hash_tokenizer, hetero_specs, fleet_config,
        )
        assert got.stats.submitted == 0
        assert got.to_json() == ref.to_json()


class TestPostPass:
    """The post-pass that turns sweep columns into autoscaler inputs."""

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    @pytest.mark.parametrize(
        "resilience", [None, ResiliencePolicy(max_retries=3, backoff_base_ms=40.0)],
        ids=["kernel", "retries"],
    )
    def test_min_slo_is_tightest_accepted_slo(
        self, resilience, cluster_model, hash_tokenizer, hetero_specs,
        fleet_config,
    ):
        from repro.fleet import FleetRequest
        from repro.fleet.columnar import _prepare

        # Loose-SLO traffic first; the tight tenant only arrives after
        # several ticks have split the trace into separate sweeps.
        trace = [
            FleetRequest("loose", 500.0, f"text {i}", None, 2.0 * i)
            for i in range(60)
        ] + [
            FleetRequest("tight", 40.0 + i, f"late {i}", None, 130.0 + i)
            for i in range(5)
        ]
        prep = _prepare(
            trace, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            AutoscalePolicy(min_replicas=2, max_replicas=3, interval_ms=20.0),
            None, (), 0, 1.0, 1.0, resilience=resilience,
        )
        engine = ColumnarFleetEngine(prep)
        state = engine.initial_state()
        partials = [
            engine.run_window(state, alo, ahi, events)
            for alo, ahi, events in shard_windows(prep, 2)
        ]
        # A request whose retry is still pending has not been admitted.
        unadmitted = {int(i) for p in partials for i in p.shed_idx}
        unadmitted |= {idx for _, _, idx, _ in state.retry_heap}
        accepted = [r.slo_ms for i, r in enumerate(trace) if i not in unadmitted]
        assert state.min_slo == min(accepted)
        if resilience is None:
            assert state.min_slo == 40.0
