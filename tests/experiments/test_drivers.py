"""Experiment drivers: structure, rendering, hardware-table correctness.

Accuracy experiments run at smoke scale here (fast, same code paths); the
full-scale numbers are produced by the benchmark harness.
"""

import numpy as np
import pytest

from repro.experiments import (
    ABLATION_ROWS,
    BITWIDTHS,
    ExperimentScale,
    PAPER_TABLE3,
    PAPER_TABLE4,
    ablation_config,
    render_table,
    run_figure3,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["a", "bb"], [[1, 2.345], [10, 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.35" in text and "10" in text

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3()

    def test_has_all_design_points(self, result):
        assert set(result.reports) == set(
            (device, n, m) for (device, n, m) in PAPER_TABLE3
        )

    def test_latencies_near_paper(self, result):
        for key, report in result.reports.items():
            paper = PAPER_TABLE3[key]["latency_ms"]
            assert report.latency_ms == pytest.approx(paper, rel=0.15), key

    def test_all_fit(self, result):
        assert all(report.fits_device() for report in result.reports.values())

    def test_render(self, result):
        text = result.render()
        assert "ZCU102" in text and "ZCU111" in text and "DSP48E" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4()

    def test_platforms(self, result):
        assert set(result.platforms) == {"CPU", "GPU", "ZCU102", "ZCU111"}

    def test_fpga_wins_energy_efficiency(self, result):
        """The headline: FPGA beats CPU ~29x and GPU ~13x in fps/W."""
        assert result.speedup("CPU") == pytest.approx(28.91, rel=0.35)
        assert result.speedup("GPU") == pytest.approx(12.72, rel=0.35)

    def test_fpga_beats_gpu_latency_slightly(self, result):
        """ZCU111 edges out the K80 (paper: 1.17x)."""
        ratio = (
            result.platforms["GPU"]["latency_ms"]
            / result.platforms["ZCU111"]["latency_ms"]
        )
        assert 1.0 < ratio < 1.5

    def test_ordering_matches_paper(self, result):
        fps_w = {name: row["fps_per_watt"] for name, row in result.platforms.items()}
        assert fps_w["ZCU111"] > fps_w["ZCU102"] > fps_w["GPU"] > fps_w["CPU"]

    def test_render(self, result):
        assert "fps/W" in result.render()


class TestAblationConfigs:
    def test_five_rows(self):
        assert len(ABLATION_ROWS) == 5

    def test_first_row_float(self):
        config = ablation_config(*ABLATION_ROWS[0])
        assert not config.quantize_weights

    def test_last_row_fully_quantized(self):
        config = ablation_config(*ABLATION_ROWS[-1])
        assert config.quantize_scales
        assert config.quantize_softmax
        assert config.quantize_layernorm

    def test_rows_cumulative(self):
        previous_on = -1
        for flags in ABLATION_ROWS:
            on = sum(flags)
            assert on > previous_on
            previous_on = on


class TestAccuracyExperimentsSmoke:
    """Run the accuracy drivers end-to-end at smoke scale."""

    @pytest.fixture(scope="class")
    def scale(self):
        from repro.experiments import clear_cache

        clear_cache()
        return ExperimentScale.smoke()

    def test_table1_smoke(self, scale):
        result = run_table1(scale)
        for task in ("sst2", "mnli", "mnli-mm"):
            assert 30.0 <= result.quant_accuracy[task] <= 100.0
        assert result.compression == pytest.approx(7.94, rel=0.01)
        assert "FQ-BERT" in result.render()

    def test_table2_smoke(self, scale):
        result = run_table2(scale=scale)
        assert len(result.accuracies) == 5
        assert all(np.isfinite(a) for a in result.accuracies)

    def test_figure3_smoke(self, scale):
        result = run_figure3(tasks=("sst2",), scale=scale)
        assert ("sst2", 32, True) in result.accuracy
        assert ("sst2", 4, False) in result.accuracy
        series = result.series("sst2", clip=True)
        assert len(series) == len(BITWIDTHS)
        assert "Figure 3" in result.render()
