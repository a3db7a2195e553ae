"""The observability contracts, differentially enforced.

Two byte-level contracts from the module docstring of
:mod:`repro.obs.observer`:

1. **Transparency** — attaching a :class:`FleetObserver` never changes a
   report byte, on either engine.
2. **Engine equivalence** — the event-loop and columnar engines emit
   byte-identical Prometheus dumps, window JSONL, and Chrome trace JSON,
   at any shard count.

The matrix mirrors ``tests/fleet/test_columnar_equiv.py`` (same frozen
model, same weak/strong specs, same autoscale policy and failure plan) so
the underlying reports are runs the fleet suite already proves identical.
"""

import io
import json
from dataclasses import replace

import pytest

from repro.fleet import (
    AutoscalePolicy,
    ChaosPlan,
    FailureEvent,
    GrayWindow,
    ReplicaSpec,
    chaos_plan_from_dict,
    native_available,
    run_scenario,
    run_scenario_columnar,
)
from repro.fleet import columnar
from repro.fleet.scenarios import SCENARIO_NAMES
from repro.obs import FleetObserver, NullObserver

AUTOSCALE = AutoscalePolicy(
    min_replicas=1, max_replicas=5, interval_ms=200.0, cooldown_ticks=2
)
FAILURES = (FailureEvent(replica_id=0, fail_ms=300.0, recover_ms=900.0),)
KW = dict(seed=2, rate_scale=0.4, duration_scale=0.5)


def _streams(obs):
    return (obs.render_prometheus(), obs.window_lines(), obs.trace_json())


class TestScenarioMatrix:
    """Every scenario class x autoscale x failures: identical streams."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_NAMES))
    @pytest.mark.parametrize("autoscaled", [False, True], ids=["fixed", "autoscale"])
    @pytest.mark.parametrize("failing", [False, True], ids=["healthy", "failures"])
    def test_byte_identical_streams(
        self, scenario, autoscaled, failing,
        cluster_model, hash_tokenizer, hetero_specs, fleet_config,
    ):
        kw = dict(
            autoscale=AUTOSCALE if autoscaled else None,
            failures=FAILURES if failing else (),
            **KW,
        )
        ref_obs, col_obs = FleetObserver(), FleetObserver()
        ref = run_scenario(
            scenario, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            analytic=True, obs=ref_obs,
            scale_spec=hetero_specs[0] if autoscaled else None, **kw,
        )
        got = run_scenario_columnar(
            scenario, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            shards=3, obs=col_obs,
            scale_spec=hetero_specs[0] if autoscaled else None, **kw,
        )
        plain = run_scenario_columnar(
            scenario, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            shards=3,
            scale_spec=hetero_specs[0] if autoscaled else None, **kw,
        )
        # transparency: the observer moved nothing, on either engine
        assert ref.to_json() == plain.to_json()
        assert got.to_json() == plain.to_json()
        # equivalence: every stream matches byte for byte
        assert _streams(col_obs) == _streams(ref_obs)


class TestShardCounts:
    """One loaded scenario across shard counts."""

    @pytest.mark.parametrize(
        "shards", [1, 2, 5], ids=["shards1", "shards2", "shards5"]
    )
    def test_any_shard_count_same_streams(
        self, shards,
        cluster_model, hash_tokenizer, hetero_specs, fleet_config,
    ):
        kw = dict(autoscale=AUTOSCALE, failures=FAILURES, **KW)
        ref_obs, col_obs = FleetObserver(), FleetObserver()
        ref = run_scenario(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, obs=ref_obs,
            scale_spec=hetero_specs[0], **kw,
        )
        got = run_scenario_columnar(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, shards=shards, obs=col_obs,
            scale_spec=hetero_specs[0], **kw,
        )
        assert got.to_json() == ref.to_json()
        assert _streams(col_obs) == _streams(ref_obs)


class TestDeterminism:
    def test_same_seed_same_bytes(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        def one():
            obs = FleetObserver()
            run_scenario(
                "diurnal", cluster_model, hash_tokenizer, hetero_specs,
                fleet_config, analytic=True, obs=obs, failures=FAILURES, **KW,
            )
            return _streams(obs)

        assert one() == one()

    def test_trace_json_loads(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        obs = FleetObserver()
        run_scenario(
            "steady", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, obs=obs, **KW,
        )
        doc = json.loads(obs.trace_json())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        assert doc["displayTimeUnit"] == "ms"

    def test_windows_stream_matches_lines(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        stream = io.StringIO()
        obs = FleetObserver(windows_stream=stream)
        run_scenario(
            "steady", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, obs=obs, **KW,
        )
        assert stream.getvalue() == "".join(l + "\n" for l in obs.window_lines())


class TestLateControlEvents:
    """A control event past the trace's end closes no extra windows.

    A fail of a replica that never existed, landing after the last
    record, once made the event loop stream empty windows up to its
    instant (and feed them to the burn-rate alerts) while the columnar
    engine stopped at the run's duration.
    """

    def _streams_both(self, scenario, model, tokenizer, specs, config, **kw):
        ref_obs, col_obs = FleetObserver(), FleetObserver()
        ref = run_scenario(
            scenario, model, tokenizer, specs, config, analytic=True,
            obs=ref_obs, **kw,
        )
        got = run_scenario_columnar(
            scenario, model, tokenizer, specs, config, obs=col_obs, **kw,
        )
        assert got.to_json() == ref.to_json()
        return _streams(ref_obs), _streams(col_obs)

    def test_fail_after_the_trace(
        self, cluster_model, hash_tokenizer, fleet_config
    ):
        ref, col = self._streams_both(
            "flash-crowd", cluster_model, hash_tokenizer,
            [ReplicaSpec()] * 2, fleet_config, seed=7,
            failures=[FailureEvent(replica_id=5, fail_ms=400.0)],
        )
        assert len(ref[1]) == len(col[1])
        assert ref == col

    def test_late_fail_keeps_the_alert_state(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        plan = chaos_plan_from_dict({
            "name": "late-fail",
            "events": [{"kind": "fail", "replica": 1, "at_ms": 160.0}],
        })
        ref, col = self._streams_both(
            "diurnal", cluster_model, hash_tokenizer, hetero_specs[1:],
            replace(fleet_config, admit_slo_factor=0.2), seed=0,
            rate_scale=8.0, duration_scale=0.5, chaos=plan,
        )
        assert 'repro_alerts_firing{alert="page-slo-burn"} 1' in col[0]
        assert ref == col


class TestDisabledPaths:
    def test_null_observer_is_transparent(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        plain = run_scenario(
            "steady", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, **KW,
        )
        nulled = run_scenario(
            "steady", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, obs=NullObserver(), **KW,
        )
        assert nulled.to_json() == plain.to_json()

    def test_null_observer_is_falsy_noop(self):
        null = NullObserver()
        assert not null
        assert null.on_arrivals([1.0]) is None
        assert null.finalize(None) is None

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_obs_disables_native_kernel_gate(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config
    ):
        # an attached observer no longer gates the native sweep off; it
        # must still see every completion whichever sweep ran
        obs = FleetObserver()
        report = run_scenario_columnar(
            "steady", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, native=True, obs=obs, **KW,
        )
        assert report.stats.completed > 0
        prom = obs.render_prometheus()
        assert f"repro_requests_completed_total {report.stats.completed}" in prom


GRAY = ChaosPlan(
    name="gray-replica-1",
    grays=(GrayWindow(replica_id=1, start_ms=100.0, end_ms=400.0, slowdown=3.0),),
)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
class TestKernelTakesWatchedRuns:
    """Observed, autoscaled and gray runs take the C kernel, byte-exactly.

    The Python sweep — the event loop — is the reference: the kernel run
    must match it on the report and on every stream, and must not fall
    back to it.  The load is heavy enough to shed, scale up, migrate off
    the failed replica and feel the gray window.
    """

    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("gray", [False, True], ids=["healthy", "gray"])
    @pytest.mark.parametrize("autoscaled", [False, True], ids=["fixed", "autoscale"])
    @pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
    def test_kernel_matches_python_sweep(
        self, observed, autoscaled, gray, shards, monkeypatch,
        cluster_model, hash_tokenizer, hetero_specs, fleet_config,
    ):
        def run(engine):
            obs = FleetObserver() if observed else None
            report = engine(
                "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
                fleet_config, obs=obs,
                autoscale=AUTOSCALE if autoscaled else None,
                scale_spec=hetero_specs[0] if autoscaled else None,
                failures=FAILURES, chaos=GRAY if gray else None,
                seed=2, rate_scale=8.0, duration_scale=2.0,
            )
            return report.to_json(), _streams(obs) if observed else None

        reference = run(lambda *a, **kw: run_scenario(*a, analytic=True, **kw))

        def refuse(*args, **kwargs):
            raise AssertionError("the columnar run fell back to the event loop")

        monkeypatch.setattr(columnar, "run_scenario", refuse)
        assert run(
            lambda *a, **kw: run_scenario_columnar(*a, native=True, shards=shards, **kw)
        ) == reference
