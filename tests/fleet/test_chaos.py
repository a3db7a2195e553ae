"""Chaos & resilience subsystem: plans, policies, and byte-exact engines.

Three layers under test:

- the chaos primitives themselves (plan parsing/validation, the seeded
  backoff hash, the retry budget, the circuit-breaker state machine,
  the brownout ladder);
- the lifecycle contracts both engines share (recovery of a replica the
  autoscaler scaled away is a silent no-op; failure plans racing
  autoscaler downscale resolve identically);
- the differential matrix: every chaos primitive, replayed through the
  event-loop and columnar engines, must produce *byte-identical*
  reports and observability streams — the same contract the rest of
  the columnar suite pins for plain runs.
"""

import json
import math

import pytest

from repro.accel import AcceleratorConfig
from repro.fleet import (
    AutoscalePolicy,
    BrownoutLadder,
    ChaosPlan,
    ChaosStats,
    CircuitBreaker,
    FailureEvent,
    Fleet,
    GrayWindow,
    ReplicaSpec,
    ResiliencePolicy,
    RetryBudget,
    ZoneOutage,
    backoff_delay_ms,
    chaos_plan_from_dict,
    load_chaos_plan,
    run_scenario,
    run_scenario_columnar,
)
from repro.fleet.chaos import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)

AUTOSCALE = AutoscalePolicy(
    min_replicas=1, max_replicas=5, interval_ms=100.0, cooldown_ticks=1
)

# The drill plan exercises every chaos primitive: a gray window, a
# correlated zone outage, and a direct fail-stop with recovery.
PLAN = ChaosPlan(
    name="drill",
    zones=(("east", (0,)), ("west", (1,))),
    grays=(GrayWindow(replica_id=1, start_ms=40.0, end_ms=250.0, slowdown=4.0),),
    outages=(ZoneOutage(zone="east", at_ms=80.0, recover_ms=200.0),),
    failures=(FailureEvent(replica_id=1, fail_ms=400.0, recover_ms=450.0),),
)

# Every resilience mechanism on at once, tuned hot enough that each one
# actually fires against the drill plan at the test's traffic rate.
FULL_POLICY = ResiliencePolicy(
    max_retries=2,
    backoff_base_ms=3.0,
    backoff_jitter=0.5,
    retry_budget_ratio=1.0,
    retry_budget_burst=20.0,
    hedge=True,
    hedge_factor=0.4,
    timeout_ms=400.0,
    breaker=True,
    breaker_straggle_factor=2.0,
    breaker_window=6,
    breaker_threshold=0.5,
    breaker_min_samples=3,
    breaker_open_ms=30.0,
    breaker_probes=2,
    brownout=True,
    brownout_levels=(1.0, 2.0, 4.0),
    brownout_dwell_ms=10.0,
)


@pytest.fixture
def hetero_specs(weak_spec):
    strong = ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=4, num_pes=2, num_multipliers=8),
        name="strong",
    )
    return [weak_spec, strong]


# ----------------------------------------------------------------------
# plan parsing and validation
# ----------------------------------------------------------------------
class TestChaosPlanParsing:
    DOC = {
        "name": "rack-trouble",
        "zones": {"rack0": [0, 1], "rack1": [2]},
        "events": [
            {"kind": "fail", "replica": 0, "at_ms": 100.0, "recover_ms": 300.0},
            {"kind": "gray", "replica": 1, "start_ms": 50.0, "end_ms": 150.0,
             "slowdown": 3.0},
            {"kind": "zone", "zone": "rack0", "at_ms": 200.0, "recover_ms": 400.0},
        ],
    }

    def test_round_trip(self):
        plan = chaos_plan_from_dict(self.DOC)
        assert plan.name == "rack-trouble"
        assert plan.zone_map() == {"rack0": (0, 1), "rack1": (2,)}
        assert plan.grays[0].slowdown == 3.0
        assert plan.outages[0].zone == "rack0"

    def test_zone_outage_expands_to_member_failures(self):
        events = chaos_plan_from_dict(self.DOC).failure_events()
        assert isinstance(events, tuple)
        # 1 direct fail + 2 rack0 members
        assert len(events) == 3
        zone_fails = [e for e in events if e.fail_ms == 200.0]
        assert sorted(e.replica_id for e in zone_fails) == [0, 1]
        assert all(e.recover_ms == 400.0 for e in zone_fails)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.DOC))
        assert load_chaos_plan(str(path)).name == "rack-trouble"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_chaos_plan(str(path))

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown chaos plan keys"):
            chaos_plan_from_dict({"name": "x", "surprise": 1})

    def test_unknown_event_kind(self):
        with pytest.raises(ValueError, match="unknown chaos event kind"):
            chaos_plan_from_dict({"events": [{"kind": "meteor"}]})

    def test_missing_event_field(self):
        with pytest.raises(ValueError, match="missing field"):
            chaos_plan_from_dict({"events": [{"kind": "fail", "at_ms": 1.0}]})

    @pytest.mark.parametrize("bad_time", [float("nan"), float("inf"), -1.0])
    def test_non_finite_and_negative_times_rejected(self, bad_time):
        with pytest.raises(ValueError):
            chaos_plan_from_dict(
                {"events": [{"kind": "fail", "replica": 0, "at_ms": bad_time}]}
            )

    def test_recover_before_fail_rejected(self):
        with pytest.raises(ValueError, match="recover_ms"):
            chaos_plan_from_dict(
                {"events": [
                    {"kind": "fail", "replica": 0, "at_ms": 100.0, "recover_ms": 50.0}
                ]}
            )

    def test_outage_against_undeclared_zone_rejected(self):
        with pytest.raises(ValueError, match="zone"):
            ChaosPlan(
                name="x",
                zones=(("east", (0,)),),
                outages=(ZoneOutage(zone="west", at_ms=10.0),),
            )

    def test_gray_window_validation(self):
        with pytest.raises(ValueError):
            GrayWindow(replica_id=0, start_ms=100.0, end_ms=50.0, slowdown=2.0)
        with pytest.raises(ValueError):
            GrayWindow(replica_id=0, start_ms=0.0, end_ms=50.0, slowdown=0.0)


class TestResiliencePolicyValidation:
    def test_disabled_by_default(self):
        assert not ResiliencePolicy().enabled

    def test_each_mechanism_enables(self):
        assert ResiliencePolicy(max_retries=1).enabled
        assert ResiliencePolicy(hedge=True).enabled
        assert ResiliencePolicy(breaker=True).enabled
        assert ResiliencePolicy(brownout=True).enabled
        assert ResiliencePolicy(timeout_ms=50.0).enabled

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="max_retries"):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="timeout_ms"):
            ResiliencePolicy(timeout_ms=0.0)
        with pytest.raises(ValueError, match="straggle_factor"):
            ResiliencePolicy(breaker_straggle_factor=1.0)
        with pytest.raises(ValueError, match="brownout_levels"):
            ResiliencePolicy(brownout_levels=(1.5, 2.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            ResiliencePolicy(brownout_levels=(1.0, 3.0, 2.0))


# ----------------------------------------------------------------------
# the resilience primitives
# ----------------------------------------------------------------------
class TestBackoff:
    POLICY = ResiliencePolicy(max_retries=3, backoff_base_ms=5.0, backoff_jitter=0.5)

    def test_deterministic(self):
        a = backoff_delay_ms(self.POLICY, seed=7, index=42, attempt=1)
        b = backoff_delay_ms(self.POLICY, seed=7, index=42, attempt=1)
        assert a == b

    def test_distinct_across_requests_and_attempts(self):
        delays = {
            backoff_delay_ms(self.POLICY, seed=7, index=i, attempt=a)
            for i in range(8)
            for a in (1, 2)
        }
        assert len(delays) == 16

    def test_jitter_bounds_and_doubling(self):
        for attempt in (1, 2, 3):
            base = 5.0 * 2 ** (attempt - 1)
            delay = backoff_delay_ms(self.POLICY, seed=0, index=3, attempt=attempt)
            assert base <= delay < base * 1.5

    def test_zero_jitter_is_exact_exponential(self):
        policy = ResiliencePolicy(max_retries=2, backoff_base_ms=4.0, backoff_jitter=0.0)
        assert backoff_delay_ms(policy, seed=1, index=0, attempt=1) == 4.0
        assert backoff_delay_ms(policy, seed=1, index=0, attempt=2) == 8.0


class TestRetryBudget:
    def test_zero_ratio_never_blocks(self):
        budget = RetryBudget(ratio=0.0, burst=1.0, tokens=0.0)
        assert all(budget.spend() for _ in range(100))

    def test_spend_drains_and_denies(self):
        budget = RetryBudget(ratio=1.0, burst=2.0, tokens=2.0)
        assert budget.spend() and budget.spend()
        assert not budget.spend()

    def test_accrue_caps_at_burst(self):
        budget = RetryBudget(ratio=0.5, burst=3.0, tokens=3.0)
        budget.accrue()
        assert budget.tokens == 3.0
        budget.spend()
        budget.accrue()
        assert budget.tokens == 2.5


class TestCircuitBreaker:
    def _breaker(self):
        return CircuitBreaker(
            straggle_factor=2.0, window=4, threshold=0.5, min_samples=2,
            open_ms=100.0, probes=2,
        )

    def test_opens_on_straggle_fraction(self):
        breaker = self._breaker()
        assert breaker.observe(10.0, True) is None  # below min_samples
        assert breaker.observe(20.0, True) == BREAKER_OPEN
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 1
        assert breaker.open_until_ms == 120.0

    def test_blocks_during_hold_then_half_opens(self):
        breaker = self._breaker()
        breaker.observe(10.0, True)
        breaker.observe(20.0, True)
        assert not breaker.allows(50.0)
        assert breaker.allows(120.0)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_clean_probes_close(self):
        breaker = self._breaker()
        breaker.observe(10.0, True)
        breaker.observe(20.0, True)
        breaker.allows(200.0)
        assert breaker.observe(210.0, False) is None
        assert breaker.observe(220.0, False) == BREAKER_CLOSED
        assert breaker.state == BREAKER_CLOSED
        assert breaker.closes == 1

    def test_straggle_in_half_open_reopens(self):
        breaker = self._breaker()
        breaker.observe(10.0, True)
        breaker.observe(20.0, True)
        breaker.allows(200.0)
        assert breaker.observe(210.0, True) == BREAKER_OPEN
        assert breaker.opens == 2

    def test_open_observations_carry_no_information(self):
        breaker = self._breaker()
        breaker.observe(10.0, True)
        breaker.observe(20.0, True)
        # In-flight batches landing while open never transition anything.
        assert breaker.observe(30.0, False) is None
        assert breaker.state == BREAKER_OPEN


class TestBrownoutLadder:
    def test_from_policy(self):
        ladder = BrownoutLadder.from_policy(
            ResiliencePolicy(brownout=True, brownout_levels=(1.0, 2.0),
                             brownout_dwell_ms=25.0)
        )
        assert ladder.levels == (1.0, 2.0)
        assert ladder.dwell_ms == 25.0
        assert ladder.level == 0

    def test_step_escalates_at_once_and_steps_down_after_dwell(self):
        ladder = BrownoutLadder(levels=(1.0, 1.5, 2.0), dwell_ms=50.0)
        chaos = ChaosStats()
        # 1.8x the base bound climbs two levels in one admission
        assert ladder.step(18.0, 10.0, 0.0, chaos, None) == 20.0
        assert (ladder.level, chaos.brownout_escalations) == (2, 2)
        # within the dwell nothing moves back, even when the load fits
        assert ladder.step(5.0, 10.0, 49.0, chaos, None) == 20.0
        # past it, one level per admission
        assert ladder.step(5.0, 10.0, 50.0, chaos, None) == 15.0
        assert (ladder.level, chaos.brownout_deescalations) == (1, 1)


# ----------------------------------------------------------------------
# lifecycle contracts: recovery vs the autoscaler
# ----------------------------------------------------------------------
class TestRecoverContract:
    """``recover_replica`` only resurrects fail-stopped replicas.

    Pins the contract documented on :meth:`Fleet.recover_replica`: a
    replica that is down because the *autoscaler scaled it away* must
    stay gone — only the explicit down-by-failure flag makes recovery
    meaningful.
    """

    def _fleet(self, cluster_model, hash_tokenizer, hetero_specs, fleet_config):
        return Fleet(cluster_model, hash_tokenizer, hetero_specs, fleet_config)

    def test_fail_then_recover_restores(self, cluster_model, hash_tokenizer,
                                        hetero_specs, fleet_config):
        fleet = self._fleet(cluster_model, hash_tokenizer, hetero_specs, fleet_config)
        fleet.fail_replica(0, 100.0)
        assert not fleet.replicas[0].live
        fleet.recover_replica(0, 200.0)
        assert fleet.replicas[0].live

    def test_scaled_away_replica_stays_gone(self, cluster_model, hash_tokenizer,
                                            hetero_specs, fleet_config):
        fleet = self._fleet(cluster_model, hash_tokenizer, hetero_specs, fleet_config)
        fleet.remove_replica(0, 100.0)  # autoscaler-style scale-down
        fleet.recover_replica(0, 200.0)
        assert not fleet.replicas[0].live
        assert fleet.replicas[0].retired_ms == 100.0

    def test_failed_then_scaled_away_stays_gone(self, cluster_model, hash_tokenizer,
                                                hetero_specs, fleet_config):
        fleet = self._fleet(cluster_model, hash_tokenizer, hetero_specs, fleet_config)
        fleet.fail_replica(0, 50.0)
        fleet.recover_replica(0, 80.0)
        fleet.remove_replica(0, 100.0)
        fleet.recover_replica(0, 200.0)  # must not fight the autoscaler
        assert not fleet.replicas[0].live

    def test_fail_after_scale_down_is_noop(self, cluster_model, hash_tokenizer,
                                           hetero_specs, fleet_config):
        fleet = self._fleet(cluster_model, hash_tokenizer, hetero_specs, fleet_config)
        fleet.remove_replica(0, 100.0)
        fleet.fail_replica(0, 150.0)
        assert fleet.replicas[0].failures == 0  # no-op, not a counted failure
        fleet.recover_replica(0, 250.0)
        assert not fleet.replicas[0].live

    def test_unknown_ids_are_noops(self, cluster_model, hash_tokenizer,
                                   hetero_specs, fleet_config):
        fleet = self._fleet(cluster_model, hash_tokenizer, hetero_specs, fleet_config)
        fleet.fail_replica(99, 10.0)
        fleet.recover_replica(99, 20.0)
        fleet.recover_replica(1, 20.0)  # live replica: nothing to do
        assert fleet.replicas[1].live


class TestFailureRacesAutoscaler:
    """Failure plans racing autoscaler downscale: byte-identical engines.

    Low traffic plus an aggressive autoscaler guarantees downscale; the
    failure plan then targets ids the autoscaler may already have
    retired, and gray windows straddle scaling decisions.  Whatever
    interleaving results, both engines must resolve it identically.
    """

    DOWNSCALE = AutoscalePolicy(
        min_replicas=1, max_replicas=4, interval_ms=50.0, cooldown_ticks=1
    )

    def _both(self, cluster_model, hash_tokenizer, specs, fleet_config, **kw):
        ref = run_scenario(
            "steady", cluster_model, hash_tokenizer, specs, fleet_config,
            analytic=True, **kw,
        )
        got = run_scenario_columnar(
            "steady", cluster_model, hash_tokenizer, specs, fleet_config, **kw,
        )
        assert got.to_json() == ref.to_json()
        assert got.render() == ref.render()
        return ref

    def test_fail_recover_straddles_downscale(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config, weak_spec
    ):
        specs = hetero_specs + [weak_spec]
        failures = (
            FailureEvent(replica_id=2, fail_ms=600.0, recover_ms=800.0),
            FailureEvent(replica_id=1, fail_ms=700.0),
        )
        report = self._both(
            cluster_model, hash_tokenizer, specs, fleet_config,
            autoscale=self.DOWNSCALE, scale_spec=weak_spec,
            failures=failures, seed=5, rate_scale=0.2, duration_scale=0.5,
        )
        # The run completed; whether each failure landed or no-opped is
        # the engines' shared business — the report just has to agree.
        assert report.stats.completed > 0

    def test_gray_window_straddles_scaling(
        self, cluster_model, hash_tokenizer, hetero_specs, fleet_config, weak_spec
    ):
        plan = ChaosPlan(
            name="gray-race",
            grays=(
                GrayWindow(replica_id=1, start_ms=100.0, end_ms=700.0, slowdown=5.0),
                GrayWindow(replica_id=7, start_ms=50.0, end_ms=120.0, slowdown=2.0),
            ),
        )
        self._both(
            cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            autoscale=self.DOWNSCALE, scale_spec=weak_spec,
            chaos=plan, seed=5, rate_scale=0.3, duration_scale=0.5,
        )


# ----------------------------------------------------------------------
# the differential chaos matrix
# ----------------------------------------------------------------------
def _run_pair(scenario, cluster_model, hash_tokenizer, specs, fleet_config,
              shards, **kw):
    ref = run_scenario(
        scenario, cluster_model, hash_tokenizer, specs, fleet_config,
        analytic=True, **kw,
    )
    got = run_scenario_columnar(
        scenario, cluster_model, hash_tokenizer, specs, fleet_config,
        shards=shards, **kw,
    )
    assert got.to_json() == ref.to_json()
    assert got.render() == ref.render()
    return ref


class TestDifferentialChaosMatrix:
    """scenario x autoscale x chaos x shards: identical bytes."""

    @pytest.mark.parametrize("scenario", ["flash-crowd", "multi-tenant"])
    @pytest.mark.parametrize(
        "chaos,resilience",
        [(PLAN, None), (None, FULL_POLICY), (PLAN, FULL_POLICY)],
        ids=["plan-only", "policy-only", "plan+policy"],
    )
    @pytest.mark.parametrize("shards", [1, 3])
    def test_autoscaled(self, scenario, chaos, resilience, shards,
                        cluster_model, hash_tokenizer, hetero_specs,
                        fleet_config, weak_spec):
        report = _run_pair(
            scenario, cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            shards, autoscale=AUTOSCALE, scale_spec=weak_spec,
            chaos=chaos, resilience=resilience, seed=7,
            rate_scale=4.0, duration_scale=0.5,
        )
        if resilience is not None:
            assert report.stats.chaos is not None

    def test_fixed_fleet(self, cluster_model, hash_tokenizer, hetero_specs,
                         fleet_config):
        _run_pair(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, 2, chaos=PLAN, resilience=FULL_POLICY, seed=7,
            rate_scale=4.0, duration_scale=0.5,
        )

    def test_every_mechanism_fires(self, cluster_model, hash_tokenizer,
                                   hetero_specs, fleet_config, weak_spec):
        """The matrix is vacuous if the knobs never trip — pin that the
        drill actually exercises retries, timeouts, and the breaker."""
        report = _run_pair(
            "multi-tenant", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, 3, autoscale=AUTOSCALE, scale_spec=weak_spec,
            chaos=PLAN, resilience=FULL_POLICY, seed=7,
            rate_scale=6.0, duration_scale=0.5,
        )
        chaos = report.stats.chaos
        assert chaos is not None
        assert chaos.retries > 0
        assert chaos.breaker_opens > 0

    def test_outage_of_the_whole_fleet_retries(self, cluster_model, hash_tokenizer,
                                              weak_spec, fleet_config):
        """With no live replica every attempt sheds no-capacity; a retry
        policy turns each of those into a scheduled retry instead."""
        from repro.fleet import FailureEvent

        report = _run_pair(
            "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
            2, failures=(FailureEvent(replica_id=0, fail_ms=100.0, recover_ms=160.0),),
            resilience=ResiliencePolicy(max_retries=3, backoff_base_ms=20.0),
            seed=7, rate_scale=1.0, duration_scale=0.5,
        )
        assert report.stats.chaos.retries > 0

    def test_chaos_section_only_when_active(self, cluster_model, hash_tokenizer,
                                            hetero_specs, fleet_config):
        plain = run_scenario(
            "steady", cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            analytic=True, seed=3, rate_scale=0.5, duration_scale=0.5,
        )
        assert plain.stats.chaos is None
        assert "retries:" not in plain.render()
        chaotic = run_scenario(
            "steady", cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            analytic=True, seed=3, rate_scale=0.5, duration_scale=0.5,
            resilience=ResiliencePolicy(max_retries=1),
        )
        assert chaotic.stats.chaos is not None
        assert "retries:" in chaotic.render()

    def test_same_arguments_same_bytes(self, cluster_model, hash_tokenizer,
                                       hetero_specs, fleet_config, weak_spec):
        kw = dict(
            autoscale=AUTOSCALE, scale_spec=weak_spec, chaos=PLAN,
            resilience=FULL_POLICY, seed=7, rate_scale=4.0, duration_scale=0.5,
        )
        first = run_scenario_columnar(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, shards=2, **kw,
        )
        second = run_scenario_columnar(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, shards=2, **kw,
        )
        assert first.to_json() == second.to_json()


class TestObsStreamsUnderChaos:
    """Observability streams are part of the byte-exact contract too."""

    def test_obs_streams_byte_identical(self, cluster_model, hash_tokenizer,
                                        hetero_specs, fleet_config, weak_spec):
        from repro.obs import FleetObserver

        kw = dict(
            autoscale=AUTOSCALE, scale_spec=weak_spec, chaos=PLAN,
            resilience=FULL_POLICY, seed=7, rate_scale=4.0, duration_scale=0.5,
        )
        ref_obs = FleetObserver()
        run_scenario(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, obs=ref_obs, **kw,
        )
        for shards in (1, 3):
            got_obs = FleetObserver()
            run_scenario_columnar(
                "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
                fleet_config, shards=shards, obs=got_obs, **kw,
            )
            assert got_obs.render_prometheus() == ref_obs.render_prometheus()
            assert got_obs.window_lines() == ref_obs.window_lines()
            assert got_obs.trace_json() == ref_obs.trace_json()

    def test_chaos_metrics_present(self, cluster_model, hash_tokenizer,
                                   hetero_specs, fleet_config, weak_spec):
        from repro.obs import FleetObserver

        obs = FleetObserver()
        run_scenario(
            "flash-crowd", cluster_model, hash_tokenizer, hetero_specs,
            fleet_config, analytic=True, obs=obs, autoscale=AUTOSCALE,
            scale_spec=weak_spec, chaos=PLAN, resilience=FULL_POLICY,
            seed=7, rate_scale=4.0, duration_scale=0.5,
        )
        prom = obs.render_prometheus()
        for needle in (
            "repro_retries_total",
            "repro_timeouts_total",
            "repro_hedges_total",
            "repro_hedge_wins_total",
            "repro_breaker_transitions_total",
            "repro_brownout_transitions_total",
            "repro_mttr_ms",
        ):
            assert needle in prom
        # MTTR is a real measurement here: a failure happened, so the
        # gauge is either a recovery time or the explicit -1 sentinel.
        line = next(
            l for l in prom.splitlines()
            if l.startswith("repro_mttr_ms") and not l.startswith("#")
        )
        assert float(line.split()[-1]) != 0.0

    def test_no_chaos_metrics_without_chaos(self, cluster_model, hash_tokenizer,
                                            hetero_specs, fleet_config):
        from repro.obs import FleetObserver

        obs = FleetObserver()
        run_scenario(
            "steady", cluster_model, hash_tokenizer, hetero_specs, fleet_config,
            analytic=True, obs=obs, seed=3, rate_scale=0.5, duration_scale=0.5,
        )
        prom = obs.render_prometheus()
        assert "repro_retries_total" not in prom
        assert "repro_mttr_ms" not in prom
