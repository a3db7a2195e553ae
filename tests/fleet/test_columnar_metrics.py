"""The fleet stats builder against a small list oracle.

:func:`build_fleet_stats_columns` is the only fleet stats builder: the
event loop and the columnar engine both hand it per-request columns.  Its
output must equal, bit for bit, what plain list arithmetic over the same
requests gives: :func:`~repro.serve.metrics.percentile` for the
percentiles, ``sum(list) / n`` for the means.  Hypothesis draws the
columns (several tenants, fully shed tenants, every shed code, empty and
single-request traces); the degenerate cases the shard merge can produce
are pinned with exact values as well.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.columnar import SHED_REASON_OF_CODE
from repro.fleet.metrics import (
    FleetStats,
    TenantStats,
    build_fleet_stats_columns,
)
from repro.serve.metrics import latency_summary, percentile

TENANTS = ("default",)
# declaration order differs from name order, so the report's sorted
# tenant order is exercised
NAMES = ("zeta", "alpha", "mid", "beta")


def _oracle_block(latencies):
    if not latencies:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": percentile(latencies, 50),
        "p95": percentile(latencies, 95),
        "p99": percentile(latencies, 99),
        "mean": sum(latencies) / len(latencies),
        "max": max(latencies),
    }


def _oracle(names, tenant, slo, arrival, finish, code, duration_ms):
    """FleetStats from Python lists, one request at a time."""
    seconds = duration_ms / 1000.0 if duration_ms > 0 else 0.0

    def rate(count):
        return count / seconds if seconds else 0.0

    rows = range(len(arrival))
    done = [i for i in rows if code[i] == 0]
    latency = {i: finish[i] - arrival[i] for i in done}
    met = {i for i in done if latency[i] <= slo[i]}
    shed_by_reason = {}
    for c in code:
        if c:
            reason = SHED_REASON_OF_CODE[c]
            shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
    tenants = {}
    for tid in sorted(set(tenant), key=lambda t: names[t]):
        t_rows = [i for i in rows if tenant[i] == tid]
        t_done = [i for i in t_rows if code[i] == 0]
        block = _oracle_block([latency[i] for i in t_done])
        t_met = len([i for i in t_done if i in met])
        tenants[names[tid]] = TenantStats(
            tenant=names[tid],
            submitted=len(t_rows),
            completed=len(t_done),
            shed=len(t_rows) - len(t_done),
            slo_met=t_met,
            p50_latency_ms=block["p50"],
            p95_latency_ms=block["p95"],
            p99_latency_ms=block["p99"],
            mean_latency_ms=block["mean"],
            goodput_rps=rate(t_met),
        )
    block = _oracle_block([latency[i] for i in done])
    return FleetStats(
        duration_ms=duration_ms,
        submitted=len(arrival),
        completed=len(done),
        shed=len(arrival) - len(done),
        migrations=0,
        slo_met=len(met),
        p50_latency_ms=block["p50"],
        p95_latency_ms=block["p95"],
        p99_latency_ms=block["p99"],
        mean_latency_ms=block["mean"],
        max_latency_ms=block["max"],
        throughput_rps=rate(len(done)),
        goodput_rps=rate(len(met)),
        shed_by_reason=shed_by_reason,
        tenants=tenants,
    )


def _columns(names, tenant, slo, arrival, finish, code, duration_ms):
    return build_fleet_stats_columns(
        duration_ms=duration_ms,
        tenant_names=list(names),
        tenant_idx=np.asarray(tenant, dtype=np.int64),
        slo_ms=np.asarray(slo, dtype=np.float64),
        arrival_ms=np.asarray(arrival, dtype=np.float64),
        finish_ms=np.asarray(finish, dtype=np.float64),
        shed_code=np.asarray(code, dtype=np.uint8),
        migrations=0,
        replicas=[],
        scale_events=[],
    )


def _assert_same(got, ref):
    # json.dumps also rejects numpy integer leaks into the report
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
        ref.to_dict(), sort_keys=True
    )
    assert got.render() == ref.render()


def _both_stats(arrival, finish, shed_code, slo, duration_ms):
    tenant = [0] * len(arrival)
    args = (TENANTS, tenant, slo, arrival, finish, shed_code, duration_ms)
    return _oracle(*args), _columns(*args)


_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


@st.composite
def _traces(draw):
    num_tenants = draw(st.integers(1, len(NAMES)))
    names = NAMES[:num_tenants]
    n = draw(st.integers(0, 40))
    tenant = draw(st.lists(st.integers(0, num_tenants - 1), min_size=n, max_size=n))
    code = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        # shed every request of one tenant
        victim = draw(st.sampled_from(sorted(set(tenant))))
        fill = draw(st.integers(1, 4))
        code = [fill if t == victim else c for t, c in zip(tenant, code)]
    arrival = draw(st.lists(_times, min_size=n, max_size=n))
    wait = draw(st.lists(_times, min_size=n, max_size=n))
    finish = [a + w if c == 0 else 0.0 for a, w, c in zip(arrival, wait, code)]
    slo = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        min_size=n, max_size=n,
    ))
    duration_ms = draw(st.one_of(st.just(0.0), _times))
    return names, tenant, slo, arrival, finish, code, duration_ms


class TestBuilderAgainstListOracle:
    @settings(max_examples=300, deadline=None)
    @given(_traces())
    def test_random_traces(self, trace):
        _assert_same(_columns(*trace), _oracle(*trace))

    def test_every_shed_code_and_an_all_shed_tenant(self):
        # tenant 1 ("alpha") is fully shed, tenant 3 ("beta") never
        # submits: it is declared but absent from the report
        tenant = [0, 1, 1, 1, 1, 0, 2, 2, 0]
        code = [0, 1, 2, 3, 4, 0, 4, 0, 1]
        arrival = [float(i) for i in range(9)]
        finish = [a + 2.5 * (i + 1) if c == 0 else 0.0
                  for i, (a, c) in enumerate(zip(arrival, code))]
        slo = [5.0] * 9
        trace = (NAMES, tenant, slo, arrival, finish, code, 250.0)
        got = _columns(*trace)
        _assert_same(got, _oracle(*trace))
        assert got.shed_by_reason == {
            SHED_REASON_OF_CODE[1]: 2,
            SHED_REASON_OF_CODE[2]: 1,
            SHED_REASON_OF_CODE[3]: 1,
            SHED_REASON_OF_CODE[4]: 2,
        }
        assert list(got.tenants) == ["alpha", "mid", "zeta"]
        alpha = got.tenants["alpha"]
        assert (alpha.submitted, alpha.completed, alpha.shed) == (4, 0, 4)
        assert alpha.p99_latency_ms == 0.0 and alpha.goodput_rps == 0.0


class TestDegenerateColumns:
    def test_empty_columns(self):
        """Zero submitted requests: all-zero stats, no division, no crash."""
        ref, got = _both_stats([], [], [], [], duration_ms=0.0)
        assert got.to_dict() == ref.to_dict()
        assert got.submitted == 0
        assert got.p99_latency_ms == 0.0
        assert got.tenants == {}

    def test_single_request(self):
        """One completed request: every percentile is that one latency."""
        ref, got = _both_stats(
            [10.0], [35.0], [0], [100.0], duration_ms=1000.0
        )
        assert got.to_dict() == ref.to_dict()
        assert got.p50_latency_ms == 25.0
        assert got.p99_latency_ms == 25.0
        assert got.mean_latency_ms == 25.0

    def test_all_shed(self):
        """Every request shed: zero latencies, shed reasons still counted."""
        ref, got = _both_stats(
            [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1, 2, 1],
            [50.0, 50.0, 50.0], duration_ms=500.0,
        )
        assert got.to_dict() == ref.to_dict()
        assert got.completed == 0
        assert got.p99_latency_ms == 0.0
        assert got.shed_by_reason == {
            SHED_REASON_OF_CODE[1]: 2,
            SHED_REASON_OF_CODE[2]: 1,
        }
        # an all-shed tenant still reports its submission count
        assert got.tenants["default"].submitted == 3
        assert got.tenants["default"].completed == 0

    def test_mixed_shed_and_completed(self):
        ref, got = _both_stats(
            [0.0, 1.0, 2.0, 3.0], [5.0, 0.0, 9.0, 0.0], [0, 1, 0, 2],
            [6.0, 6.0, 6.0, 6.0], duration_ms=100.0,
        )
        assert got.to_dict() == ref.to_dict()
        assert got.completed == 2
        assert got.shed == 2
        # 5.0 <= 6.0 met, 7.0 > 6.0 missed
        assert got.slo_met == 1


class TestPercentileColumns:
    def test_percentile_accepts_numpy_columns(self):
        assert percentile(np.array([4.0]), 50) == 4.0
        column = np.array([3.0, 1.0, 2.0])
        assert percentile(column, 50) == percentile([3.0, 1.0, 2.0], 50)

    def test_latency_block_columns_matches_list_path(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 7, 100, 101, 1000):
            column = rng.exponential(10.0, size=n)
            by_list = _oracle_block(column.tolist())
            by_column = latency_summary(column)
            assert by_column == by_list  # bit-identical, not approx

    def test_latency_block_columns_empty(self):
        block = latency_summary(np.array([]))
        assert block == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0
        }
