"""The kernel's packed buffers are the columnar engine's replica state.

Every kernel call updates them in place; Python rebuilds them only when
the live set changes (add, fail, recover, remove), and grows the retry
heap when a call fills it.
"""

from dataclasses import replace

import pytest

from repro.fleet import (
    AutoscalePolicy,
    ResiliencePolicy,
    chaos_plan_from_dict,
    native_available,
    run_scenario,
    run_scenario_columnar,
)
from repro.fleet import columnar
from repro.fleet.columnar import ColumnarFleetEngine

pytestmark = pytest.mark.skipif(not native_available(), reason="no C compiler")


def test_a_steady_live_set_packs_state_once(
    monkeypatch, cluster_model, hash_tokenizer, weak_spec, fleet_config
):
    # Two replicas pinned at two: every tick decides, none acts.
    autoscale = AutoscalePolicy(min_replicas=2, max_replicas=2, interval_ms=20.0)
    buffers = []
    ticks = []
    bind, tick = ColumnarFleetEngine._bind, ColumnarFleetEngine._tick

    def spy_bind(self, state):
        buffers.append((
            state.prices, state.rf, state.ri, state.li, state.live_ids,
            state.qidx, state.qenq,
        ))
        return bind(self, state)

    def spy_tick(self, state, now, acc):
        ticks.append(now)
        return tick(self, state, now, acc)

    monkeypatch.setattr(ColumnarFleetEngine, "_bind", spy_bind)
    monkeypatch.setattr(ColumnarFleetEngine, "_tick", spy_tick)
    report = run_scenario_columnar(
        "flash-crowd", cluster_model, hash_tokenizer, [weak_spec, weak_spec],
        fleet_config, autoscale=autoscale, native=True, seed=1, rate_scale=0.5,
    )
    assert not report.stats.scale_events
    assert len(ticks) > 5 and len(buffers) > len(ticks)
    first = buffers[0]
    assert all(
        all(a is b for a, b in zip(call, first)) for call in buffers
    ), "a kernel call saw rebuilt replica buffers"


@pytest.mark.parametrize("shards", [1, 3])
def test_retry_heap_growth_is_invisible(
    monkeypatch, shards, cluster_model, hash_tokenizer, weak_spec, fleet_config
):
    # A one-entry heap makes every call that schedules a second retry
    # stop, double the heap and resume.
    monkeypatch.setattr(columnar, "_HEAP_START", 1)
    grown = []
    grow = ColumnarFleetEngine._grow_heap

    def spy_grow(state):
        grown.append(state.h_due.shape[0])
        grow(state)

    monkeypatch.setattr(ColumnarFleetEngine, "_grow_heap", staticmethod(spy_grow))
    kw = dict(
        seed=1, rate_scale=4.0,
        resilience=ResiliencePolicy(max_retries=2, backoff_base_ms=40.0),
    )
    specs = [weak_spec, weak_spec]
    reference = run_scenario(
        "flash-crowd", cluster_model, hash_tokenizer, specs, fleet_config,
        analytic=True, **kw,
    )
    got = run_scenario_columnar(
        "flash-crowd", cluster_model, hash_tokenizer, specs, fleet_config,
        shards=shards, native=True, **kw,
    )
    assert len(grown) >= 4  # from 1 entry to at least 16
    assert got.stats.chaos.retries > 16
    assert got.to_json() == reference.to_json()


@pytest.mark.parametrize("at_ms", [120.0, 150.0, 180.0])
def test_failover_drops_hedged_copies_and_unmarks_their_twins(
    at_ms, cluster_model, hash_tokenizer, weak_spec, fleet_config
):
    # Under this load most queued requests are hedged pairs, so the
    # failed replica holds hedged copies whose twins must flush alone.
    plan = chaos_plan_from_dict({
        "name": "fail-hedged",
        "events": [{"kind": "fail", "replica": 0, "at_ms": at_ms, "recover_ms": 260.0}],
    })
    kw = dict(
        seed=1, rate_scale=4.0, chaos=plan,
        resilience=ResiliencePolicy(hedge=True, hedge_factor=0.1),
    )
    fleet_config = replace(fleet_config, admit_slo_factor=0.3)
    specs = [weak_spec, weak_spec, weak_spec]
    reference = run_scenario(
        "flash-crowd", cluster_model, hash_tokenizer, specs, fleet_config,
        analytic=True, **kw,
    )
    got = run_scenario_columnar(
        "flash-crowd", cluster_model, hash_tokenizer, specs, fleet_config,
        native=True, **kw,
    )
    assert got.stats.chaos.hedges > 0
    assert got.to_json() == reference.to_json()
