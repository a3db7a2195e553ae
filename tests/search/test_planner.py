"""The capacity planner: feasibility, cost accounting, determinism."""

import pytest

from repro.fleet import ReplicaSpec
from repro.search import PlanSpec, PlanningResult, SloTarget, plan_capacity
from repro.search.planner import _plan_candidates


class TestSloTarget:
    def test_validation(self):
        with pytest.raises(ValueError, match="p99_ms"):
            SloTarget(p99_ms=0.0)
        with pytest.raises(ValueError, match="max_shed_rate"):
            SloTarget(p99_ms=100.0, max_shed_rate=1.5)


class TestPlanCandidates:
    def test_sizes_ascend_and_multisets_enumerate(self, design_ladder):
        plans = _plan_candidates(design_ladder, 2, include_autoscale=False)
        sizes = [len(plan.replicas) for plan in plans]
        assert sizes == sorted(sizes)
        # 3 singles + C(3+1, 2) = 6 pairs
        assert len(plans) == 9

    def test_autoscale_variants_follow_singles(self, design_ladder):
        plans = _plan_candidates(design_ladder, 3, include_autoscale=True)
        autoscaled = [plan for plan in plans if plan.autoscale is not None]
        assert len(autoscaled) == 3
        assert all(len(plan.replicas) == 1 for plan in autoscaled)
        assert all(plan.autoscale.max_replicas == 3 for plan in autoscaled)

    def test_no_autoscale_at_max_one(self, design_ladder):
        plans = _plan_candidates(design_ladder, 1, include_autoscale=True)
        assert all(plan.autoscale is None for plan in plans)

    def test_label_counts_duplicates(self, design_ladder):
        plan = PlanSpec(replicas=(design_ladder[0], design_ladder[0], design_ladder[1]))
        assert plan.label == "1x mid + 2x weak"


@pytest.fixture(scope="module")
def planning(request):
    """One shared full planning run against the pinned flash crowd."""
    ladder = request.getfixturevalue("design_ladder")
    model = request.getfixturevalue("cluster_model")
    tokenizer = request.getfixturevalue("hash_tokenizer")
    fleet_config = request.getfixturevalue("fleet_config")
    return plan_capacity(
        "flash-crowd",
        ladder,
        SloTarget(p99_ms=150.0),
        model,
        tokenizer,
        fleet_config=fleet_config,
        max_replicas=3,
        rate_scale=4.0,
        seed=0,
    )


class TestPlanCapacity:
    def test_best_plan_is_feasible(self, planning):
        assert planning.best is not None
        assert planning.best.feasible
        assert planning.best.p99_ms <= 150.0
        assert planning.best.shed_rate == 0.0

    def test_weak_single_replica_misses(self, planning):
        by_label = {outcome.plan.label: outcome for outcome in planning.outcomes}
        assert not by_label["1x weak"].feasible  # sheds under the burst

    def test_best_is_cheapest_feasible(self, planning):
        feasible = [o for o in planning.outcomes if o.feasible]
        assert planning.best.replica_seconds == min(
            o.replica_seconds for o in feasible
        )

    def test_costs_are_positive_and_scale_with_size(self, planning):
        by_label = {o.plan.label: o for o in planning.outcomes}
        assert 0 < by_label["1x mid"].replica_seconds < by_label["2x mid"].replica_seconds
        assert 0 < by_label["1x mid"].energy_j < by_label["2x mid"].energy_j

    def test_stronger_design_costs_more_energy(self, planning):
        by_label = {o.plan.label: o for o in planning.outcomes}
        assert by_label["1x default"].energy_j > by_label["1x mid"].energy_j

    def test_byte_identical_across_runs(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config, planning
    ):
        again = plan_capacity(
            "flash-crowd",
            design_ladder,
            SloTarget(p99_ms=150.0),
            cluster_model,
            hash_tokenizer,
            fleet_config=fleet_config,
            max_replicas=3,
            rate_scale=4.0,
            seed=0,
        )
        assert planning.to_json() == again.to_json()

    def test_energy_objective_changes_the_winner_key(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        by_energy = plan_capacity(
            "flash-crowd",
            design_ladder,
            SloTarget(p99_ms=150.0),
            cluster_model,
            hash_tokenizer,
            fleet_config=fleet_config,
            max_replicas=2,
            objective="energy",
            rate_scale=4.0,
            seed=0,
        )
        feasible = [o for o in by_energy.outcomes if o.feasible]
        assert by_energy.best.energy_j == min(o.energy_j for o in feasible)

    def test_budget_truncates(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        result = plan_capacity(
            "flash-crowd",
            design_ladder,
            SloTarget(p99_ms=150.0),
            cluster_model,
            hash_tokenizer,
            fleet_config=fleet_config,
            max_replicas=3,
            budget=4,
            rate_scale=4.0,
            seed=0,
        )
        assert result.truncated
        assert len(result.outcomes) == 4

    def test_impossible_target_returns_none(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        result = plan_capacity(
            "flash-crowd",
            design_ladder[:1],  # weak only
            SloTarget(p99_ms=1e-3),
            cluster_model,
            hash_tokenizer,
            fleet_config=fleet_config,
            max_replicas=1,
            rate_scale=4.0,
            seed=0,
        )
        assert result.best is None
        assert "no feasible plan" in result.render()

    def test_shed_tolerance_admits_shedding_plans(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        """A permissive shed budget makes the shedding weak replica legal."""
        tolerant = plan_capacity(
            "flash-crowd",
            design_ladder[:1],
            SloTarget(p99_ms=1e6, max_shed_rate=1.0, enforce_tenant_slos=False),
            cluster_model,
            hash_tokenizer,
            fleet_config=fleet_config,
            max_replicas=1,
            rate_scale=4.0,
            seed=0,
        )
        assert tolerant.best is not None

    def test_validation(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        target = SloTarget(p99_ms=100.0)
        with pytest.raises(ValueError, match="objective"):
            plan_capacity(
                "steady", design_ladder, target, cluster_model, hash_tokenizer,
                fleet_config=fleet_config, objective="latency",
            )
        with pytest.raises(ValueError, match="at least one"):
            plan_capacity(
                "steady", [], target, cluster_model, hash_tokenizer,
                fleet_config=fleet_config,
            )
        with pytest.raises(ValueError, match="unique"):
            plan_capacity(
                "steady", [design_ladder[0], design_ladder[0]], target,
                cluster_model, hash_tokenizer, fleet_config=fleet_config,
            )
        with pytest.raises(ValueError, match="max_replicas"):
            plan_capacity(
                "steady", design_ladder, target, cluster_model, hash_tokenizer,
                fleet_config=fleet_config, max_replicas=0,
            )

    def test_result_is_planning_result_with_stable_json(self, planning):
        assert isinstance(planning, PlanningResult)
        doc = planning.to_dict()
        assert doc["schema"] == "repro-search/1"
        assert doc["mode"] == "plan"
        assert doc["best"]["plan"] == planning.best.plan.label


class TestTenantSlos:
    def test_multi_tenant_slos_enforced(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        """With tenant enforcement on, the interactive tenant's 60 ms SLO
        binds even when the fleet-wide target is loose."""
        loose = plan_capacity(
            "multi-tenant",
            design_ladder[:1],
            SloTarget(p99_ms=1e6, max_shed_rate=1.0, enforce_tenant_slos=False),
            cluster_model,
            hash_tokenizer,
            fleet_config=fleet_config,
            max_replicas=1,
            rate_scale=2.0,
            seed=0,
        )
        strict = plan_capacity(
            "multi-tenant",
            design_ladder[:1],
            SloTarget(p99_ms=1e6, max_shed_rate=1.0, enforce_tenant_slos=True),
            cluster_model,
            hash_tokenizer,
            fleet_config=fleet_config,
            max_replicas=1,
            rate_scale=2.0,
            seed=0,
        )
        assert loose.best is not None
        # The weak replica blows the 60 ms interactive SLO at this rate.
        assert strict.best is None


class TestChaosAwarePlanning:
    """With a chaos plan, feasible means surviving the outage too."""

    @pytest.fixture(scope="class")
    def chaos_planning(self, request):
        from repro.fleet import ChaosPlan, ZoneOutage

        ladder = request.getfixturevalue("design_ladder")
        model = request.getfixturevalue("cluster_model")
        tokenizer = request.getfixturevalue("hash_tokenizer")
        fleet_config = request.getfixturevalue("fleet_config")
        # One zone holding replica 0: every single-replica plan goes
        # fully dark for the outage window; pairs keep a survivor.
        plan = ChaosPlan(
            name="zone-a-down",
            zones=(("zone-a", (0,)),),
            outages=(ZoneOutage(zone="zone-a", at_ms=150.0, recover_ms=600.0),),
        )
        return plan_capacity(
            "steady",
            ladder[1:],  # mid + default: clean-feasible even solo
            SloTarget(p99_ms=150.0, max_shed_rate=0.05),
            model,
            tokenizer,
            fleet_config=fleet_config,
            max_replicas=2,
            include_autoscale=False,
            rate_scale=2.0,
            seed=0,
            chaos=plan,
        )

    def test_chaos_verdicts_recorded(self, chaos_planning):
        assert chaos_planning.chaos_plan == "zone-a-down"
        assert all(
            o.chaos_feasible is not None for o in chaos_planning.outcomes
        )
        doc = chaos_planning.to_dict()
        assert doc["chaos_plan"] == "zone-a-down"
        assert all("chaos" in o for o in doc["outcomes"])

    def test_redundancy_required(self, chaos_planning):
        """Clean-feasible singles die with zone-a; only N+1 plans win."""
        singles = [
            o for o in chaos_planning.outcomes if len(o.plan.replicas) == 1
        ]
        assert singles and all(not o.feasible for o in singles)
        assert all(not o.chaos_feasible for o in singles)
        assert chaos_planning.best is not None
        assert len(chaos_planning.best.plan.replicas) >= 2
        assert chaos_planning.best.chaos_feasible

    def test_render_shows_both_verdicts(self, chaos_planning):
        rendered = chaos_planning.render()
        assert "replayed under chaos plan 'zone-a-down'" in rendered
        assert "chaos[" in rendered

    def test_no_chaos_omits_the_section(self, planning):
        assert planning.chaos_plan is None
        assert planning.to_dict()["chaos_plan"] is None
        assert all(
            o.chaos_feasible is None for o in planning.outcomes
        )
        assert "chaos[" not in planning.render()


class TestPlanEngines:
    """The columnar and event-loop inner loops return the same plans."""

    def test_engines_byte_identical(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        kw = dict(
            fleet_config=fleet_config, max_replicas=2, rate_scale=2.0,
            duration_scale=0.5, seed=3,
        )
        target = SloTarget(p99_ms=200.0, max_shed_rate=0.1)
        by_event = plan_capacity(
            "multi-tenant", design_ladder, target, cluster_model,
            hash_tokenizer, engine="analytic", **kw,
        )
        by_columnar = plan_capacity(
            "multi-tenant", design_ladder, target, cluster_model,
            hash_tokenizer, engine="columnar", **kw,
        )
        assert by_columnar.to_json() == by_event.to_json()
        assert by_columnar.render() == by_event.render()

    def test_unknown_engine_rejected(
        self, design_ladder, cluster_model, hash_tokenizer, fleet_config
    ):
        with pytest.raises(ValueError, match="unknown plan engine"):
            plan_capacity(
                "steady", design_ladder, SloTarget(p99_ms=100.0),
                cluster_model, hash_tokenizer, fleet_config=fleet_config,
                engine="quantum",
            )
