"""A shared trace is tokenized once: its bucket column is memoized on it.

:func:`repro.search.plan_capacity` runs every candidate plan, clean and
under chaos, over one :class:`~repro.fleet.scenarios.ColumnarTrace`.  The
columnar engine memoizes the trace's per-request bucket column per
(tokenizer, max_seq_len, buckets), so each pool text is tokenized once
per planning call, and the memo never changes a report byte.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.accel import AcceleratorConfig
from repro.fleet import (
    ReplicaSpec,
    ResiliencePolicy,
    chaos_plan_from_dict,
    native_available,
    run_scenario_columnar,
)
from repro.fleet.scenarios import builtin_scenarios
from repro.perf.workloads import HashTokenizer
from repro.search import SloTarget, plan_capacity

needs_kernel = pytest.mark.skipif(not native_available(), reason="no C compiler")

TRACE = dict(seed=2, rate_scale=0.5, duration_scale=0.3)


class CountingTokenizer(HashTokenizer):
    """Counts the encode calls per text pair."""

    def __init__(self):
        super().__init__(vocab_size=512)
        self.calls = Counter()

    def encode(self, text_a, text_b=None, max_length=64):
        self.calls[(text_a, text_b)] += 1
        return super().encode(text_a, text_b, max_length=max_length)


class DoublingTokenizer(HashTokenizer):
    """Two tokens per word: the same traffic in longer buckets."""

    def encode(self, text_a, text_b=None, max_length=64):
        return super().encode(f"{text_a} {text_a}", text_b, max_length=max_length)


def test_generated_columns_are_read_only():
    trace = builtin_scenarios()["multi-tenant"].generate_columns(**TRACE)
    for column in (trace.arrival_ms, trace.tenant_idx, trace.draw):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0


@needs_kernel
def test_each_pool_text_is_tokenized_once_per_plan(
    monkeypatch, cluster_model, weak_spec, fleet_config
):
    # plan_capacity takes the kernel unless the environment turns it off.
    monkeypatch.delenv("REPRO_COLUMNAR_NATIVE", raising=False)
    tokenizer = CountingTokenizer()
    strong = ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=4, num_pes=2, num_multipliers=8),
        name="strong",
    )
    plan = chaos_plan_from_dict({
        "name": "outage",
        "events": [{"kind": "fail", "replica": 0, "at_ms": 40.0, "recover_ms": 90.0}],
    })
    result = plan_capacity(
        "multi-tenant", [weak_spec, strong], SloTarget(p99_ms=150.0),
        cluster_model, tokenizer, fleet_config=fleet_config, max_replicas=2,
        chaos=plan, resilience=ResiliencePolicy(max_retries=1), **TRACE,
    )
    # Every candidate ran twice (clean and chaos) over one shared trace.
    assert len(result.outcomes) == 7
    trace = builtin_scenarios()["multi-tenant"].generate_columns(**TRACE)
    texts = {(text, None) for pool in trace.pools() for text in pool}
    assert set(tokenizer.calls) == texts
    assert set(tokenizer.calls.values()) == {1}


@needs_kernel
def test_reused_trace_matches_a_fresh_trace(
    cluster_model, hash_tokenizer, weak_spec, fleet_config
):
    scenario = builtin_scenarios()["multi-tenant"]
    serving = fleet_config.serving
    narrow = replace(fleet_config, serving=replace(serving, buckets=(32, 64)))
    short = replace(fleet_config, serving=replace(serving, buckets=(16, 32, 48)))
    doubling = DoublingTokenizer(vocab_size=512)
    shared = scenario.generate_columns(**TRACE)
    reports = []
    for config, tokenizer in (
        (fleet_config, hash_tokenizer),
        (narrow, hash_tokenizer),            # other buckets
        (short, hash_tokenizer),             # other max_seq_len
        (fleet_config, doubling),            # other tokenizer
        (fleet_config, hash_tokenizer),      # the first key again
    ):
        got = run_scenario_columnar(
            shared, cluster_model, tokenizer, [weak_spec], config, native=True
        ).to_json()
        fresh = run_scenario_columnar(
            scenario.generate_columns(**TRACE), cluster_model, tokenizer,
            [weak_spec], config, native=True,
        ).to_json()
        assert got == fresh
        reports.append(got)
    # The keys matter: each policy prices this traffic differently.
    assert len(set(reports)) == 4
    assert len(shared.bucket_memo) == 4
