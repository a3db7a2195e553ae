"""Design spaces: eager knob validation, enumeration, seeded sampling."""

import pytest

from repro.accel import AcceleratorConfig, ZCU102, ZCU111
from repro.accel.bim import BimType
from repro.search import DesignSpace, SPACE_NAMES, builtin_spaces


class TestCatalog:
    def test_names(self):
        assert SPACE_NAMES == ("small", "table3", "wide")

    def test_table3_contains_paper_points(self, spaces):
        candidates = spaces["table3"].candidates()
        for named, device in (
            (AcceleratorConfig.zcu102_n8_m16(), ZCU102),
            (AcceleratorConfig.zcu102_n16_m8(), ZCU102),
            (AcceleratorConfig.zcu111_n16_m16(), ZCU111),
        ):
            assert (named, device) in candidates

    def test_sizes(self, spaces):
        assert spaces["small"].size == 4
        assert spaces["table3"].size == 32
        assert spaces["wide"].size == 320

    def test_size_matches_enumeration(self, spaces):
        for space in spaces.values():
            assert len(space.candidates()) == space.size


class TestValidation:
    def test_bad_multiplier_axis_names_the_knob(self):
        with pytest.raises(ValueError, match="num_multipliers"):
            DesignSpace(name="bad", num_multipliers=(8, 12))

    def test_bad_pes_axis_names_the_knob(self):
        with pytest.raises(ValueError, match="num_pes"):
            DesignSpace(name="bad", num_pes=(0,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="num_pus"):
            DesignSpace(name="bad", num_pus=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DesignSpace(name="bad", num_pes=(8, 8))

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError, match="devices"):
            DesignSpace(name="bad", devices=())

    def test_nameless_rejected(self):
        with pytest.raises(ValueError, match="name"):
            DesignSpace(name="")


class TestEnumeration:
    def test_deterministic(self, spaces):
        space = spaces["table3"]
        assert space.candidates() == space.candidates()

    def test_devices_vary_slowest(self):
        space = DesignSpace(
            name="two-dev", devices=(ZCU102, ZCU111), num_pes=(4, 8)
        )
        devices = [device.name for _, device in space.candidates()]
        assert devices == ["ZCU102", "ZCU102", "ZCU111", "ZCU111"]

    def test_bim_axis_enumerates(self):
        space = DesignSpace(name="bims", bim_type=(BimType.TYPE_A, BimType.TYPE_B))
        types = [config.bim_type for config, _ in space.candidates()]
        assert types == [BimType.TYPE_A, BimType.TYPE_B]


class TestSampling:
    def test_no_budget_is_full_grid(self, spaces):
        space = spaces["table3"]
        assert space.sample() == space.candidates()

    def test_covering_budget_is_full_grid(self, spaces):
        space = spaces["table3"]
        assert space.sample(budget=space.size) == space.candidates()
        assert space.sample(budget=10_000) == space.candidates()

    def test_budget_caps_and_is_deterministic(self, spaces):
        space = spaces["wide"]
        sample = space.sample(budget=25, seed=3)
        assert len(sample) == 25
        assert sample == space.sample(budget=25, seed=3)

    def test_sample_is_subsequence_of_grid(self, spaces):
        space = spaces["wide"]
        grid = space.candidates()
        sample = space.sample(budget=17, seed=1)
        positions = [grid.index(candidate) for candidate in sample]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_different_seeds_differ(self, spaces):
        space = spaces["wide"]
        assert space.sample(budget=25, seed=0) != space.sample(budget=25, seed=1)

    def test_bad_budget(self, spaces):
        with pytest.raises(ValueError, match="budget"):
            spaces["table3"].sample(budget=0)


class TestWithValidation:
    """The eager `AcceleratorConfig.with_` checks the spaces lean on."""

    def test_non_power_of_two_m_names_the_knob(self):
        with pytest.raises(ValueError, match="num_multipliers.*power of two"):
            AcceleratorConfig().with_(num_multipliers=12)

    def test_zero_pus_names_the_knob(self):
        with pytest.raises(ValueError, match="num_pus"):
            AcceleratorConfig().with_(num_pus=0)

    def test_zero_pes_names_the_knob(self):
        with pytest.raises(ValueError, match="num_pes"):
            AcceleratorConfig().with_(num_pes=0)

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown AcceleratorConfig knob"):
            AcceleratorConfig().with_(num_bims=4)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency_mhz"):
            AcceleratorConfig().with_(frequency_mhz=-1.0)

    def test_valid_update_still_works(self):
        config = AcceleratorConfig().with_(num_pes=16, num_multipliers=8)
        assert (config.num_pes, config.num_multipliers) == (16, 8)


class TestGridIsBuiltOnce:
    """The grid is a pure function of the frozen space: built on first use."""

    def test_second_explore_builds_no_configs(self, monkeypatch):
        from repro.search import clear_evaluation_cache, explore

        space = builtin_spaces()["wide"]
        clear_evaluation_cache()
        first = explore(space).to_json()
        calls = []
        original = AcceleratorConfig.with_

        def counting(self, **kwargs):
            calls.append(kwargs)
            return original(self, **kwargs)

        monkeypatch.setattr(AcceleratorConfig, "with_", counting)
        clear_evaluation_cache()  # cold pricing, warm grid
        second = explore(space).to_json()
        assert calls == []
        assert second == first

    def test_candidates_returns_a_fresh_list(self, spaces):
        space = spaces["small"]
        grid = space.candidates()
        grid.clear()
        assert len(space.candidates()) == space.size
