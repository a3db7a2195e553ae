"""Randomised cross-engine differential: two engines, one report.

The hand-picked matrices in ``test_columnar_equiv.py`` and
``test_chaos.py`` pin chosen corners.  Here hypothesis draws the whole
configuration — scenario class and rate, a replica mix, the serving
knobs (a bucket subset, batch size, batching wait), an autoscale policy
with random thresholds, the admission bound, a resilience policy (none,
the all-off default, or random valid knobs), an optional chaos plan of
gray, fail-stop and zone-outage events, and a shard count — and the
event-loop analytic engine and the columnar engine's C kernel, each
with an observer attached, must render the same ``to_json()``,
Prometheus, window and trace bytes.  Both engines make every admission,
retry and scaling decision by the same rules (the kernel compiles
``chaos.admit`` and ``chaos.retry_delay``), so this guards that shared
core.  ``derandomize`` keeps the drawn examples fixed from
run to run; every draw that ever failed is replayed first from
:mod:`tests.fleet.fuzz_corpus`.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.accel import AcceleratorConfig
from repro.fleet import (
    AutoscalePolicy,
    ReplicaSpec,
    ResiliencePolicy,
    chaos_plan_from_dict,
    native_available,
    run_scenario,
    run_scenario_columnar,
)
from repro.fleet.scenarios import SCENARIO_NAMES
from repro.obs import FleetObserver

from .fuzz_corpus import FAILED_DRAWS

SPECS = {
    "weak": ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
        name="weak",
    ),
    "strong": ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=4, num_pes=2, num_multipliers=8),
        name="strong",
    ),
}

# Hypothesis favours small draws, so draws that load the fleet are
# mirrored: the smallest draw is the heaviest rate, the tightest
# admission bound, the most retries and every mechanism on.
def _mirrored(lo, hi):
    return st.floats(lo, hi).map(lambda x: lo + hi - x)


ON = st.booleans().map(lambda off: not off)

AUTOSCALE = st.builds(
    lambda bounds, **knobs: AutoscalePolicy(
        utilization_low=min(bounds), utilization_high=max(bounds), **knobs
    ),
    bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
        lambda b: b[0] != b[1]
    ),
    slo_headroom=st.floats(0.2, 3.0),
    cooldown_ticks=st.integers(0, 3),
    interval_ms=st.floats(10.0, 120.0),
    max_replicas=st.integers(1, 5),
)

# Every knob in its valid range; mechanisms switch on independently.
POLICIES = st.builds(
    ResiliencePolicy,
    max_retries=st.integers(0, 3).map(lambda n: 3 - n),
    backoff_base_ms=st.floats(0.5, 20.0),
    backoff_jitter=st.floats(0.0, 1.0),
    retry_budget_ratio=st.floats(0.0, 2.0),
    retry_budget_burst=st.floats(0.0, 20.0),
    hedge=ON,
    hedge_factor=st.floats(0.1, 1.5),
    timeout_ms=st.none() | st.floats(5.0, 500.0),
    breaker=ON,
    breaker_straggle_factor=st.floats(1.5, 4.0),
    breaker_window=st.integers(1, 8),
    breaker_threshold=st.floats(0.1, 1.0),
    breaker_min_samples=st.integers(1, 6),
    breaker_open_ms=st.floats(0.0, 150.0),
    breaker_probes=st.integers(1, 3),
    brownout=ON,
    brownout_levels=st.sampled_from([(1.0,), (1.0, 1.5, 2.0), (1.0, 2.0, 4.0)]),
    brownout_dwell_ms=st.floats(0.0, 100.0),
)

GRAY_EVENTS = st.fixed_dictionaries({
    "kind": st.just("gray"),
    "replica": st.integers(0, 3),
    "start_ms": st.floats(0.0, 300.0),
    "end_ms": st.floats(300.0, 600.0, exclude_min=True),
    "slowdown": st.floats(1.5, 5.0),
})
FAIL_EVENTS = st.fixed_dictionaries({
    "kind": st.just("fail"),
    "replica": st.integers(0, 3),
    "at_ms": st.floats(0.0, 300.0),
    "recover_ms": st.none() | st.floats(300.0, 600.0, exclude_min=True),
})
ZONE_EVENTS = st.fixed_dictionaries({
    "kind": st.just("zone"),
    "zone": st.just("z"),
    "at_ms": st.floats(0.0, 300.0),
    "recover_ms": st.none() | st.floats(300.0, 600.0, exclude_min=True),
})
PLANS = st.none() | st.builds(
    lambda events, members: chaos_plan_from_dict(
        {"name": "fuzz", "zones": {"z": members}, "events": events}
    ),
    st.lists(GRAY_EVENTS | FAIL_EVENTS | ZONE_EVENTS, min_size=1, max_size=3),
    st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
)

# (buckets, max_batch_size, max_wait_ms); the model takes 64 positions.
SERVING = st.tuples(
    st.sets(st.sampled_from([8, 16, 32, 48, 64]), min_size=1).map(
        lambda b: tuple(sorted(b))
    ),
    st.integers(1, 8),
    st.just(0.0) | st.floats(0.0, 20.0),
)


def _with_draws(test):
    for draw in reversed(FAILED_DRAWS):
        test = example(**draw)(test)
    return test


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    scenario=st.sampled_from(sorted(SCENARIO_NAMES)),
    rate_scale=_mirrored(1.0, 8.0),
    replicas=st.lists(st.sampled_from(sorted(SPECS)), min_size=1, max_size=3),
    serving=SERVING,
    autoscale=st.none() | AUTOSCALE,
    admit_slo_factor=_mirrored(0.2, 1.0),
    resilience=POLICIES | st.sampled_from([None, ResiliencePolicy()]),
    plan=PLANS,
    shards=st.integers(1, 5),
    seed=st.integers(0, 999),
)
@_with_draws
def test_engines_render_the_same_report(
    scenario, rate_scale, replicas, serving, autoscale, admit_slo_factor,
    resilience, plan, shards, seed, cluster_model, hash_tokenizer, fleet_config,
):
    specs = [SPECS[name] for name in replicas]
    buckets, max_batch_size, max_wait_ms = serving
    fleet_config = replace(
        fleet_config,
        admit_slo_factor=admit_slo_factor,
        serving=replace(
            fleet_config.serving, buckets=buckets,
            max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
        ),
    )
    kw = dict(
        autoscale=autoscale,
        scale_spec=specs[0] if autoscale else None,
        chaos=plan,
        resilience=resilience,
        seed=seed,
        rate_scale=rate_scale,
        duration_scale=0.5,
    )

    def artifacts(report, obs):
        return (
            report.to_json(), obs.render_prometheus(), obs.window_lines(),
            obs.trace_json(),
        )

    obs = FleetObserver()
    reference = artifacts(
        run_scenario(
            scenario, cluster_model, hash_tokenizer, specs, fleet_config,
            analytic=True, obs=obs, **kw,
        ),
        obs,
    )
    obs = FleetObserver()
    got = run_scenario_columnar(
        scenario, cluster_model, hash_tokenizer, specs, fleet_config,
        shards=shards, native=True, obs=obs, **kw,
    )
    assert artifacts(got, obs) == reference


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("shards", [1, 2, 5])
def test_shard_edges_carry_hedged_and_retrying_queues(
    shards, cluster_model, hash_tokenizer, weak_spec, fleet_config
):
    """The fuzz above hands state across shard edges on random loads.
    Here the load is chosen so that the state at the edges holds hedged
    copies and scheduled retries (checked on a replay of the same
    windows), and the sharded run still matches the event loop."""
    from repro.fleet._native import I_HEAP
    from repro.fleet.columnar import ColumnarFleetEngine, _prepare, shard_windows

    fleet_config = replace(fleet_config, admit_slo_factor=0.3)
    specs = [weak_spec, weak_spec]
    policy = ResiliencePolicy(
        max_retries=2, backoff_base_ms=40.0, hedge=True, hedge_factor=0.1
    )
    kw = dict(seed=1, rate_scale=4.0, resilience=policy)

    prep = _prepare(
        "flash-crowd", cluster_model, hash_tokenizer, specs, fleet_config,
        None, None, (), 1, 4.0, 1.0, resilience=policy, chaos_active=True,
    )
    engine = ColumnarFleetEngine(prep)
    state = engine.initial_state()
    hedged = retrying = 0
    for alo, ahi, events in shard_windows(prep, shards):
        engine.run_window(state, alo, ahi, events)
        rows = state.rows()
        queued = np.arange(engine.M) < rows.depth[:, :, None]
        hedged += int(((rows.qhedge >= 0) & queued).sum())
        retrying += int(state.iv[I_HEAP])
    assert hedged and retrying

    obs = FleetObserver()
    reference = run_scenario(
        "flash-crowd", cluster_model, hash_tokenizer, specs, fleet_config,
        analytic=True, obs=obs, **kw,
    )
    want = (
        reference.to_json(), obs.render_prometheus(), obs.window_lines(),
        obs.trace_json(),
    )
    obs = FleetObserver()
    got = run_scenario_columnar(
        "flash-crowd", cluster_model, hash_tokenizer, specs, fleet_config,
        shards=shards, native=True, obs=obs, **kw,
    )
    assert (
        got.to_json(), obs.render_prometheus(), obs.window_lines(),
        obs.trace_json(),
    ) == want
