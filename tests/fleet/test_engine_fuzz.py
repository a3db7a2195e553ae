"""Randomised cross-engine differential: three engines, one report.

The hand-picked matrices in ``test_columnar_equiv.py`` and
``test_chaos.py`` pin chosen corners.  Here hypothesis draws the whole
configuration — scenario class and rate, a replica mix, autoscaling,
the admission bound, a resilience policy (none, the all-off default, or
random valid knobs), an optional gray or fail-stop plan, and a shard
count — and the event-loop analytic engine, the columnar engine's
per-arrival Python path and its C kernel must all render the same
``to_json()`` bytes.  ``derandomize``
keeps the drawn examples fixed from run to run.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
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

AUTOSCALE = AutoscalePolicy(
    min_replicas=1, max_replicas=4, interval_ms=60.0, cooldown_ticks=1
)


# Hypothesis favours small draws, so draws that load the fleet are
# mirrored: the smallest draw is the heaviest rate, the tightest
# admission bound, the most retries and every mechanism on.
def _mirrored(lo, hi):
    return st.floats(lo, hi).map(lambda x: lo + hi - x)


ON = st.booleans().map(lambda off: not off)

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
    "end_ms": st.floats(300.0, 600.0),
    "slowdown": st.floats(1.5, 5.0),
})
FAIL_EVENTS = st.fixed_dictionaries({
    "kind": st.just("fail"),
    "replica": st.integers(0, 3),
    "at_ms": st.floats(0.0, 300.0),
    "recover_ms": st.none() | st.floats(300.0, 600.0),
})
PLANS = st.none() | st.builds(
    lambda event: chaos_plan_from_dict({"name": event["kind"], "events": [event]}),
    GRAY_EVENTS | FAIL_EVENTS,
)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    scenario=st.sampled_from(sorted(SCENARIO_NAMES)),
    rate_scale=_mirrored(1.0, 8.0),
    replicas=st.lists(st.sampled_from(sorted(SPECS)), min_size=1, max_size=3),
    autoscaled=st.booleans(),
    admit_slo_factor=_mirrored(0.2, 1.0),
    resilience=POLICIES | st.sampled_from([None, ResiliencePolicy()]),
    plan=PLANS,
    shards=st.integers(1, 5),
    seed=st.integers(0, 999),
)
def test_engines_render_the_same_report(
    scenario, rate_scale, replicas, autoscaled, admit_slo_factor, resilience,
    plan, shards, seed, cluster_model, hash_tokenizer, fleet_config,
):
    specs = [SPECS[name] for name in replicas]
    fleet_config = replace(fleet_config, admit_slo_factor=admit_slo_factor)
    kw = dict(
        autoscale=AUTOSCALE if autoscaled else None,
        scale_spec=specs[0] if autoscaled else None,
        chaos=plan,
        resilience=resilience,
        seed=seed,
        rate_scale=rate_scale,
        duration_scale=0.5,
    )
    reference = run_scenario(
        scenario, cluster_model, hash_tokenizer, specs, fleet_config,
        analytic=True, **kw,
    ).to_json()
    for native in (False, True) if native_available() else (False,):
        got = run_scenario_columnar(
            scenario, cluster_model, hash_tokenizer, specs, fleet_config,
            shards=shards, native=native, **kw,
        )
        assert got.to_json() == reference, f"native={native}"
