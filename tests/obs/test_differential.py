"""The observability contracts, differentially enforced.

Two byte-level contracts from the module docstring of
:mod:`repro.obs.observer`:

1. **Transparency** — attaching a :class:`FleetObserver` never changes a
   report byte, on either engine.
2. **Engine equivalence** — the event-loop and columnar engines emit
   byte-identical Prometheus dumps, window JSONL, and Chrome trace JSON,
   at any shard count, forked workers included.

The matrix mirrors ``tests/fleet/test_columnar_equiv.py`` (same frozen
model, same weak/strong specs, same autoscale policy and failure plan) so
the underlying reports are runs the fleet suite already proves identical.
"""

import io
import json

import pytest

from repro.fleet import (
    AutoscalePolicy,
    ChaosPlan,
    FailureEvent,
    GrayWindow,
    native_available,
    run_scenario,
    run_scenario_columnar,
)
from repro.fleet.columnar import ColumnarFleetEngine
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
    """One loaded scenario across shard counts and forked workers."""

    @pytest.mark.parametrize(
        "shards,procs", [(1, False), (2, False), (5, False), (4, True)],
        ids=["shards1", "shards2", "shards5", "fork4"],
    )
    def test_any_shard_count_same_streams(
        self, shards, procs,
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
            fleet_config, shards=shards, shard_processes=procs, obs=col_obs,
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
        assert null.on_arrival(1.0) is None
        assert null.finalize(None) is None

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

    The per-arrival Python path is the reference: the kernel run must
    match it on the report and on every stream, and it must not touch
    the Python path at all.  The load is heavy enough to shed, scale up, migrate
    off the failed replica and feel the gray window.
    """

    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("gray", [False, True], ids=["healthy", "gray"])
    @pytest.mark.parametrize("autoscaled", [False, True], ids=["fixed", "autoscale"])
    @pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
    def test_kernel_matches_python_sweep(
        self, observed, autoscaled, gray, shards, monkeypatch,
        cluster_model, hash_tokenizer, hetero_specs, fleet_config,
    ):
        def run(native):
            obs = FleetObserver() if observed else None
            report = run_scenario_columnar(
                "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
                fleet_config, native=native, obs=obs, shards=shards,
                autoscale=AUTOSCALE if autoscaled else None,
                scale_spec=hetero_specs[0] if autoscaled else None,
                failures=FAILURES, chaos=GRAY if gray else None,
                seed=2, rate_scale=8.0, duration_scale=2.0,
            )
            return report.to_json(), _streams(obs) if observed else None

        reference = run(native=False)

        def refuse(*args, **kwargs):
            raise AssertionError("the Python sweep ran with the kernel on")

        monkeypatch.setattr(
            ColumnarFleetEngine, "_run_arrivals_python", refuse
        )
        assert run(native=True) == reference
