"""The explorer: memoized pricing, dominance, and the Pareto front."""

import random
from types import SimpleNamespace

import pytest

from repro.accel import AcceleratorConfig, ZCU102, ZCU111
from repro.search import (
    DesignSpace,
    clear_evaluation_cache,
    dominates,
    evaluate_candidate,
    evaluation_cache_size,
    explore,
    objective_vector,
    pareto_front,
)
from repro.search import explorer


class TestEvaluateCandidate:
    def test_matches_direct_simulation(self, bert_base):
        from repro.accel import AcceleratorSimulator

        config = AcceleratorConfig()
        report = evaluate_candidate(config, ZCU102, bert_base)
        direct = AcceleratorSimulator(config, ZCU102).simulate(bert_base, seq_len=128)
        assert report.latency_ms == direct.latency_ms
        assert report.resources == direct.resources
        assert report.power_watts == direct.power_watts

    def test_memoized_returns_same_object(self, bert_base):
        config = AcceleratorConfig(num_pes=16)
        first = evaluate_candidate(config, ZCU102, bert_base)
        assert evaluate_candidate(config, ZCU102, bert_base) is first

    def test_cache_grows_and_clears(self, bert_base):
        clear_evaluation_cache()
        assert evaluation_cache_size() == 0
        evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        evaluate_candidate(AcceleratorConfig(), ZCU111, bert_base)
        assert evaluation_cache_size() == 2

    def test_distinct_shapes_are_distinct_entries(self, bert_base):
        clear_evaluation_cache()
        evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base, seq_len=64)
        evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base, seq_len=128)
        assert evaluation_cache_size() == 2


class TestObjectiveVector:
    def test_latency_energy(self, bert_base):
        report = evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        assert objective_vector(report, ("latency", "energy")) == (
            report.latency_ms,
            report.energy_per_inference_mj,
        )

    def test_headroom_expands_per_resource(self, bert_base):
        report = evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        vector = objective_vector(report, ("headroom",))
        assert len(vector) == len(report.resources.utilization(ZCU102))

    def test_unknown_objective(self, bert_base):
        report = evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        with pytest.raises(ValueError, match="unknown objective"):
            objective_vector(report, ("fps",))

    def test_empty_objectives(self, bert_base):
        report = evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        with pytest.raises(ValueError, match="at least one"):
            objective_vector(report, ())


class TestDominance:
    def test_strictly_bigger_design_dominates_on_latency(self, bert_base):
        small = evaluate_candidate(AcceleratorConfig(num_pes=4), ZCU102, bert_base)
        large = evaluate_candidate(AcceleratorConfig(num_pes=8), ZCU102, bert_base)
        assert dominates(large, small, ("latency",))
        assert not dominates(small, large, ("latency",))

    def test_never_across_devices(self, bert_base):
        a = evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        b = evaluate_candidate(AcceleratorConfig(), ZCU111, bert_base)
        assert not dominates(a, b, ("latency",))
        assert not dominates(b, a, ("latency",))

    def test_equal_vectors_do_not_dominate(self, bert_base):
        report = evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        assert not dominates(report, report, ("latency", "energy"))

    def test_headroom_vector_preserves_the_table3_trade(self, bert_base):
        """(16,8) beats (8,16) on latency+energy+DSP but pays FF/LUT —
        under the elementwise headroom objective neither dominates."""
        n8m16 = evaluate_candidate(
            AcceleratorConfig.zcu102_n8_m16(), ZCU102, bert_base
        )
        n16m8 = evaluate_candidate(
            AcceleratorConfig.zcu102_n16_m8(), ZCU102, bert_base
        )
        assert dominates(n16m8, n8m16, ("latency", "energy"))
        objectives = ("latency", "energy", "headroom")
        assert not dominates(n16m8, n8m16, objectives)
        assert not dominates(n8m16, n16m8, objectives)


class TestParetoFront:
    def test_front_members_are_mutually_non_dominated(self, spaces, bert_base):
        result = explore(spaces["table3"], model=bert_base)
        for a in result.front:
            for b in result.front:
                assert not dominates(a, b, result.objectives)

    def test_dominated_points_are_excluded(self, spaces, bert_base):
        result = explore(spaces["table3"], model=bert_base, objectives=("latency",))
        # One survivor per device: nothing beats the fastest point.
        devices = [report.device.name for report in result.front]
        assert sorted(set(devices)) == ["ZCU102", "ZCU111"]
        assert len(result.front) == 2

    def test_duplicate_objective_vectors_kept_once(self, bert_base):
        report = evaluate_candidate(AcceleratorConfig(), ZCU102, bert_base)
        front = pareto_front([report, report], ("latency", "energy"))
        assert front == [report]

    def test_front_is_sorted_deterministically(self, spaces, bert_base):
        result = explore(spaces["table3"], model=bert_base)
        keys = [
            (r.device.name, r.latency_ms, r.energy_per_inference_mj)
            for r in result.front
        ]
        assert keys == sorted(keys)

    def test_empty_input(self):
        assert pareto_front([], ("latency",)) == []


def _stub_report(device, latency, energy, power, knob):
    """The attributes the front reads of a report (objectives, sort key)."""
    return SimpleNamespace(
        device=SimpleNamespace(name=device),
        latency_ms=latency,
        energy_per_inference_mj=energy,
        power_watts=power,
        config=SimpleNamespace(
            num_pus=knob, num_pes=1, num_multipliers=1,
            bim_type=SimpleNamespace(value="a"), frequency_mhz=200,
        ),
    )


def _pairwise_front(reports, objectives):
    """The front by definition: every pair through ``dominates``, first
    of each exact duplicate kept."""
    front, seen = [], set()
    for report in reports:
        key = (report.device.name, objective_vector(report, objectives))
        if key in seen or any(dominates(o, report, objectives) for o in reports):
            continue
        seen.add(key)
        front.append(report)
    return sorted(front, key=explorer._sort_key)


def _random_reports(rng):
    """Reports on a coarse grid (ties everywhere), plus exact duplicates
    and copies differing from another report in one component only."""
    grid = (0.5, 1.0, 2.0, 3.0)
    reports = []
    for knob in range(rng.randrange(0, 30)):
        if reports and rng.random() < 0.4:
            base = rng.choice(reports)
            values = [base.latency_ms, base.energy_per_inference_mj, base.power_watts]
            if rng.random() < 0.5:  # else an exact duplicate
                component = rng.randrange(3)
                values[component] += rng.choice((-0.25, 0.25))
            reports.append(_stub_report(base.device.name, *values, knob))
        else:
            reports.append(_stub_report(
                rng.choice(("ZCU102", "ZCU111", "ZCU104")),
                *(rng.choice(grid) for _ in range(3)), knob,
            ))
    return reports


class TestParetoFrontDifferential:
    """The vectorized filter against the pairwise definition."""

    OBJECTIVES = ("latency", "energy", "power")

    @pytest.mark.parametrize("cells", [explorer._PARETO_CELLS, 1, 7])
    def test_matches_pairwise_dominance(self, monkeypatch, cells):
        # cells=1 and 7 force one- and two-row blocks over the candidates.
        monkeypatch.setattr(explorer, "_PARETO_CELLS", cells)
        rng = random.Random(19)
        for _ in range(300):
            reports = _random_reports(rng)
            got = pareto_front(reports, self.OBJECTIVES)
            want = _pairwise_front(reports, self.OBJECTIVES)
            assert [id(r) for r in got] == [id(r) for r in want]

    def test_ties_on_all_components_but_one(self):
        better = _stub_report("ZCU102", 1.0, 2.0, 3.0, 0)
        worse = _stub_report("ZCU102", 1.0, 2.0, 3.5, 1)
        assert pareto_front([worse, better], self.OBJECTIVES) == [better]

    def test_exact_duplicates_keep_the_first(self):
        first = _stub_report("ZCU102", 1.0, 2.0, 3.0, 0)
        second = _stub_report("ZCU102", 1.0, 2.0, 3.0, 1)
        front = pareto_front([first, second], self.OBJECTIVES)
        assert len(front) == 1 and front[0] is first

    def test_devices_never_dominate_each_other(self):
        fast = _stub_report("ZCU111", 1.0, 1.0, 1.0, 0)
        slow = _stub_report("ZCU102", 2.0, 2.0, 2.0, 1)
        assert pareto_front([fast, slow], self.OBJECTIVES) == [slow, fast]

    def test_single_report(self):
        only = _stub_report("ZCU102", 1.0, 2.0, 3.0, 0)
        assert pareto_front([only], self.OBJECTIVES) == [only]


class TestNamedPointsOnFront:
    """The acceptance contract: no hand-picked Table III point is dominated."""

    def test_paper_points_survive(self, spaces, bert_base):
        result = explore(spaces["table3"], model=bert_base)
        front_keys = {(r.device.name, r.config) for r in result.front}
        assert ("ZCU102", AcceleratorConfig.zcu102_n8_m16()) in front_keys
        assert ("ZCU102", AcceleratorConfig.zcu102_n16_m8()) in front_keys
        assert ("ZCU111", AcceleratorConfig.zcu111_n16_m16()) in front_keys


class TestExplore:
    def test_byte_identical_across_runs(self, spaces, bert_base):
        first = explore(spaces["small"], model=bert_base, seed=5)
        second = explore(spaces["small"], model=bert_base, seed=5)
        assert first.to_json() == second.to_json()

    def test_budget_caps_evaluations(self, spaces, bert_base):
        result = explore(spaces["wide"], model=bert_base, budget=30, seed=2)
        assert result.evaluated == 30
        assert result.feasible <= 30

    def test_infeasible_points_filtered(self, bert_base):
        # A grid of monsters: nothing fits a ZCU102.
        space = DesignSpace(
            name="monsters", num_pes=(32,), num_multipliers=(32,), devices=(ZCU102,)
        )
        result = explore(space, model=bert_base)
        assert result.evaluated == 1
        assert result.feasible == 0
        assert result.front == []

    def test_unknown_objective_rejected_before_pricing(self, spaces, bert_base):
        with pytest.raises(ValueError, match="unknown objective"):
            explore(spaces["small"], model=bert_base, objectives=("bogus",))

    def test_render_mentions_front_and_space(self, spaces, bert_base):
        result = explore(spaces["small"], model=bert_base)
        text = result.render()
        assert "space: small" in text
        assert "Pareto front" in text

    def test_json_candidates_share_simulate_shape(self, spaces, bert_base):
        """Front entries use the exact repro-design/1 shape simulate emits."""
        from repro.accel import AcceleratorSimulator

        result = explore(spaces["small"], model=bert_base)
        entry = result.to_dict()["front"][0]
        config = AcceleratorConfig(
            num_pus=entry["config"]["num_pus"],
            num_pes=entry["config"]["num_pes"],
            num_multipliers=entry["config"]["num_multipliers"],
        )
        direct = AcceleratorSimulator(config, ZCU102).simulate(
            bert_base, seq_len=result.seq_len
        )
        assert entry == direct.to_dict()
