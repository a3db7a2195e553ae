"""Device router: latency estimates, load balancing, busy accounting."""

import pytest

from repro.accel import AcceleratorConfig
from repro.accel.devices import ZCU102, ZCU111
from repro.bert import BertConfig
from repro.serve import DeviceRouter


@pytest.fixture(scope="module")
def router2():
    return DeviceRouter(BertConfig.tiny(), num_devices=2)


class TestLatencyEstimates:
    def test_positive_and_memoized(self):
        router = DeviceRouter(BertConfig.tiny(), num_devices=1)
        first = router.estimate_latency_ms(16, 4)
        assert first > 0
        assert router.estimate_latency_ms(16, 4) == first
        assert len(router._latency_cache) == 1

    def test_batching_amortizes_weight_stream(self):
        """Batch latency grows sublinearly: the resident weight tile serves
        the whole batch, so latency(B) < B * latency(1)."""
        router = DeviceRouter(BertConfig.tiny(), num_devices=1)
        single = router.estimate_latency_ms(16, 1)
        for batch in (2, 4, 8):
            assert router.estimate_latency_ms(16, batch) < batch * single

    def test_longer_sequences_cost_more(self):
        router = DeviceRouter(BertConfig.tiny(), num_devices=1)
        assert router.estimate_latency_ms(32, 1) > router.estimate_latency_ms(8, 1)

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            DeviceRouter(BertConfig.tiny(), num_devices=0)


class TestLatencyCacheSharing:
    """The docstring's memoization contract, now asserted: identical design
    points share cache entries; distinct design points do not."""

    def test_identical_design_points_share_entries(self):
        config = AcceleratorConfig()
        router = DeviceRouter(
            BertConfig.tiny(), specs=[(config, ZCU102), (config, ZCU102)]
        )
        first = router.estimate_latency_ms(16, 4, device_id=0)
        assert len(router._latency_cache) == 1
        # The second instance's estimate is a cache hit, not a new entry.
        assert router.estimate_latency_ms(16, 4, device_id=1) == first
        assert len(router._latency_cache) == 1

    def test_distinct_design_points_get_their_own_entries(self):
        fast = AcceleratorConfig()
        slow = AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4)
        router = DeviceRouter(
            BertConfig.tiny(), specs=[(fast, ZCU102), (slow, ZCU102), (fast, ZCU111)]
        )
        router.estimate_latency_ms(16, 4, device_id=0)
        router.estimate_latency_ms(16, 4, device_id=1)  # different config
        assert len(router._latency_cache) == 2
        router.estimate_latency_ms(16, 4, device_id=2)  # different FPGA part
        assert len(router._latency_cache) == 3

    def test_shapes_key_the_cache_too(self):
        config = AcceleratorConfig()
        router = DeviceRouter(BertConfig.tiny(), specs=[(config, ZCU102)] * 2)
        router.estimate_latency_ms(16, 4, device_id=0)
        router.estimate_latency_ms(16, 8, device_id=0)
        router.estimate_latency_ms(32, 4, device_id=1)
        assert len(router._latency_cache) == 3


class TestDispatch:
    def test_round_robins_idle_devices(self, router2):
        a = router2.dispatch(16, 1, ready_ms=0.0)
        b = router2.dispatch(16, 1, ready_ms=0.0)
        assert {a.device_id, b.device_id} == {0, 1}
        # Both start immediately: two devices, two batches.
        assert a.start_ms == 0.0 and b.start_ms == 0.0

    def test_queues_behind_busy_devices(self):
        router = DeviceRouter(BertConfig.tiny(), num_devices=1)
        first = router.dispatch(16, 1, ready_ms=0.0)
        second = router.dispatch(16, 1, ready_ms=0.0)
        assert second.start_ms == first.finish_ms
        assert second.finish_ms == second.start_ms + second.service_ms

    def test_ready_time_respected(self):
        router = DeviceRouter(BertConfig.tiny(), num_devices=1)
        dispatch = router.dispatch(16, 1, ready_ms=42.0)
        assert dispatch.start_ms == 42.0

    def test_busy_accounting(self):
        router = DeviceRouter(BertConfig.tiny(), num_devices=2)
        for _ in range(4):
            router.dispatch(16, 2, ready_ms=0.0)
        busy = router.busy_ms_by_device()
        assert set(busy) == {0, 1}
        expected = 2 * router.estimate_latency_ms(16, 2)
        assert busy[0] == pytest.approx(expected)
        assert busy[1] == pytest.approx(expected)
        assert router.devices[0].batches_served == 2
        assert router.devices[0].requests_served == 4

    def test_two_devices_halve_makespan(self):
        """N devices drain a backlog of identical batches ~N x faster."""
        single = DeviceRouter(BertConfig.tiny(), num_devices=1)
        dual = DeviceRouter(BertConfig.tiny(), num_devices=2)
        finish_single = max(single.dispatch(16, 4, 0.0).finish_ms for _ in range(8))
        finish_dual = max(dual.dispatch(16, 4, 0.0).finish_ms for _ in range(8))
        assert finish_dual == pytest.approx(finish_single / 2)


def _hetero_specs():
    """A scaled-down (2, 2, 4) design point next to the full (12, 8, 16).

    The full point is unambiguously faster at every shape (strictly more
    PUs, PEs, and multipliers), which is what the dispatch-ordering
    assertions below need.
    """
    return [
        (AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4), ZCU102),
        (AcceleratorConfig.zcu102_n8_m16(), ZCU111),
    ]


class TestHeterogeneousFleet:
    """Replicas with different design points: estimates and dispatch."""

    def test_specs_override_num_devices(self):
        router = DeviceRouter(BertConfig.tiny(), num_devices=7, specs=_hetero_specs())
        assert router.num_devices == 2
        assert router.devices[0].spec != router.devices[1].spec

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            DeviceRouter(BertConfig.tiny(), specs=[])

    def test_per_device_estimates_differ_and_memoize(self):
        router = DeviceRouter(BertConfig.tiny(), specs=_hetero_specs())
        slow = router.estimate_latency_ms(32, 4, device_id=0)
        fast = router.estimate_latency_ms(32, 4, device_id=1)
        assert fast < slow  # (16, 16) outruns (8, 16)
        # Memoized per design point: repeated queries hit the cache and
        # stay bit-identical.
        assert router.estimate_latency_ms(32, 4, device_id=0) == slow
        assert router.estimate_latency_ms(32, 4, device_id=1) == fast
        assert len(router._latency_cache) == 2

    def test_identical_design_points_share_cache_entries(self):
        spec = (AcceleratorConfig.zcu102_n8_m16(), ZCU102)
        router = DeviceRouter(BertConfig.tiny(), specs=[spec, spec])
        a = router.estimate_latency_ms(16, 2, device_id=0)
        b = router.estimate_latency_ms(16, 2, device_id=1)
        assert a == b
        assert len(router._latency_cache) == 1

    def test_earliest_finish_prefers_fast_idle_device(self):
        router = DeviceRouter(BertConfig.tiny(), specs=_hetero_specs())
        dispatch = router.dispatch(32, 4, ready_ms=0.0)
        assert dispatch.device_id == 1
        assert dispatch.service_ms == router.estimate_latency_ms(32, 4, device_id=1)

    def test_slow_idle_device_wins_over_queued_fast_one(self):
        """Earliest *finish*, not earliest available: once the fast device
        queues deep enough, starting later on the slow idle one finishes
        sooner."""
        router = DeviceRouter(BertConfig.tiny(), specs=_hetero_specs())
        slow = router.estimate_latency_ms(32, 4, device_id=0)
        fast = router.estimate_latency_ms(32, 4, device_id=1)
        seen = []
        while len(seen) < 30 and {d.device_id for d in seen} != {0, 1}:
            seen.append(router.dispatch(32, 4, ready_ms=0.0))
        # The fast device serves first; the slow one joins once the fast
        # queue's wait exceeds the service-time gap.
        assert seen[0].device_id == 1
        assert {d.device_id for d in seen} == {0, 1}
        for d in seen:
            expected = slow if d.device_id == 0 else fast
            assert d.service_ms == expected
            assert d.finish_ms == d.start_ms + d.service_ms

    def test_hetero_dispatch_is_optimal_per_batch(self):
        """Every dispatch finishes no later than the alternative would have."""
        router = DeviceRouter(BertConfig.tiny(), specs=_hetero_specs())
        shadow = {0: 0.0, 1: 0.0}  # busy_until per device, tracked outside
        for i in range(10):
            ready = 0.5 * i
            candidates = {
                dev: max(ready, shadow[dev]) + router.estimate_latency_ms(32, 4, dev)
                for dev in shadow
            }
            dispatch = router.dispatch(32, 4, ready_ms=ready)
            assert dispatch.finish_ms == pytest.approx(min(candidates.values()))
            shadow[dispatch.device_id] = dispatch.finish_ms

    def test_busy_accounting_tracks_per_device_service(self):
        router = DeviceRouter(BertConfig.tiny(), specs=_hetero_specs())
        for _ in range(4):
            router.dispatch(16, 2, ready_ms=0.0)
        busy = router.busy_ms_by_device()
        total_expected = sum(
            d.batches_served * router.estimate_latency_ms(16, 2, d.device_id)
            for d in router.devices
        )
        assert sum(busy.values()) == pytest.approx(total_expected)

    def test_block_until_delays_start(self):
        router = DeviceRouter(BertConfig.tiny(), specs=_hetero_specs())
        router.block_until(100.0)
        dispatch = router.dispatch(16, 2, ready_ms=0.0)
        assert dispatch.start_ms == 100.0


class TestServiceTableMemo:
    """service_table is memoized process-wide, read-only, and dropped by
    the evaluation-cache cold-start hook."""

    def test_memoized_read_only_and_cleared(self):
        from repro.search import clear_evaluation_cache
        from repro.serve.router import service_table

        args = (BertConfig.tiny(), AcceleratorConfig(), ZCU102, [16, 32], 4)
        first = service_table(*args)
        assert service_table(*args) is first
        assert service_table(BertConfig.tiny(), AcceleratorConfig(), ZCU102, (16, 32), 4) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 1] = 0.0
        assert first.shape == (2, 5) and (first[:, 1:] > 0).all()
        clear_evaluation_cache()
        again = service_table(*args)
        assert again is not first
        assert (again == first).all()
