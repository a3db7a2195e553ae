"""CLI: every subcommand end to end (fast settings)."""

import numpy as np
import pytest

from repro.cli import main


class TestSimulate:
    def test_default_design_point(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "DSP48=1751" in out

    def test_zcu111(self, capsys):
        assert main(["simulate", "--device", "ZCU111", "--pes", "16"]) == 0
        assert "ZCU111" in capsys.readouterr().out

    def test_unknown_device(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--device", "VU9P"])


class TestCompare:
    def test_prints_table4(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "CPU" in out and "ZCU111" in out and "fps/W" in out


class TestTrainQuantizeEvaluate:
    @pytest.fixture(scope="class")
    def float_checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        code = main(
            ["train", "--task", "sst2", "--out", str(path), "--epochs", "2", "--seed", "3"]
        )
        assert code == 0
        return path

    def test_train_writes_checkpoint(self, float_checkpoint):
        assert float_checkpoint.exists()

    def test_evaluate_float(self, float_checkpoint, capsys):
        assert main(["evaluate", "--checkpoint", str(float_checkpoint)]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_quantize_qat_and_integer_eval(self, float_checkpoint, tmp_path, capsys):
        fq_path = tmp_path / "fq.npz"
        assert (
            main(
                [
                    "quantize", "--checkpoint", str(float_checkpoint),
                    "--out", str(fq_path), "--epochs", "1",
                ]
            )
            == 0
        )
        assert fq_path.exists()
        assert main(["evaluate", "--checkpoint", str(fq_path), "--integer"]) == 0
        assert "integer-engine accuracy" in capsys.readouterr().out

    def test_quantize_ptq(self, float_checkpoint, tmp_path, capsys):
        fq_path = tmp_path / "fq_ptq.npz"
        assert (
            main(
                [
                    "quantize", "--checkpoint", str(float_checkpoint),
                    "--out", str(fq_path), "--ptq",
                ]
            )
            == 0
        )
        assert "PTQ accuracy" in capsys.readouterr().out

    def test_quantize_rejects_quant_checkpoint(self, float_checkpoint, tmp_path):
        fq_path = tmp_path / "fq2.npz"
        main(
            ["quantize", "--checkpoint", str(float_checkpoint), "--out", str(fq_path), "--ptq"]
        )
        with pytest.raises(SystemExit):
            main(["quantize", "--checkpoint", str(fq_path), "--out", str(tmp_path / "x.npz")])

    def test_integer_eval_rejects_float_checkpoint(self, float_checkpoint):
        with pytest.raises(SystemExit):
            main(["evaluate", "--checkpoint", str(float_checkpoint), "--integer"])


class TestServe:
    def test_default_ptq_serving_run(self, capsys):
        assert (
            main(
                [
                    "serve", "--requests", "24", "--batch-size", "4",
                    "--num-devices", "2", "--slo-ms", "50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "p50" in out
        assert "padding efficiency" in out
        assert "accuracy over trace" in out
        assert "2 x ZCU102" in out

    def test_unknown_device(self):
        with pytest.raises(SystemExit):
            main(["serve", "--device", "VU9P", "--requests", "4"])

    def test_serving_knob_flags(self, capsys):
        """--buckets / --max-wait-ms / --cache-size reach the engine."""
        assert (
            main(
                [
                    "serve", "--requests", "12", "--batch-size", "4",
                    "--buckets", "6,12,24", "--max-wait-ms", "4",
                    "--cache-size", "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "buckets (6, 12, 24)" in out
        assert "wait<= 4.0ms" in out

    def test_bad_buckets_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "4", "--buckets", "a,b"])


LOADTEST_FAST = [
    "loadtest", "--replicas", "1", "--rate-scale", "0.25", "--seed", "11",
]


class TestLoadtest:
    @pytest.mark.parametrize(
        "scenario", ["steady", "diurnal", "flash-crowd", "ramp", "multi-tenant"]
    )
    def test_every_builtin_scenario_runs(self, scenario, capsys):
        assert main(LOADTEST_FAST + ["--scenario", scenario]) == 0
        out = capsys.readouterr().out
        assert f"scenario: {scenario}" in out
        assert "goodput" in out and "replica 0" in out

    def test_same_seed_byte_identical_report(self, capsys):
        args = LOADTEST_FAST + ["--scenario", "multi-tenant"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_scenario_all_and_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        assert (
            main(
                LOADTEST_FAST
                + ["--scenario", "all", "--json", str(path), "--rate-scale", "0.1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        for scenario in ("steady", "diurnal", "flash-crowd", "ramp", "multi-tenant"):
            assert f"scenario: {scenario}" in out
        docs = json.loads(path.read_text())
        assert len(docs) == 5

    def test_json_is_always_a_list(self, tmp_path):
        """One scenario or five, the JSON file has one shape."""
        import json

        path = tmp_path / "one.json"
        assert (
            main(LOADTEST_FAST + ["--scenario", "steady", "--json", str(path)]) == 0
        )
        docs = json.loads(path.read_text())
        assert isinstance(docs, list) and len(docs) == 1
        assert docs[0]["scenario"] == "steady"

    def test_failure_injection_flag(self, capsys):
        assert (
            main(
                [
                    "loadtest", "--replicas", "2", "--rate-scale", "0.5",
                    "--scenario", "steady", "--fail", "0@50:120",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failures 1" in out

    def test_autoscale_flag(self, capsys):
        assert (
            main(
                [
                    "loadtest", "--scenario", "flash-crowd", "--replicas", "1",
                    "--pus", "2", "--pes", "2", "--multipliers", "4",
                    "--rate-scale", "2", "--autoscale", "--max-replicas", "4",
                    "--scale-interval-ms", "15",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "autoscale on" in out
        assert "scale +1" in out

    def test_every_engine_prints_the_same_report(self, capsys):
        args = LOADTEST_FAST + ["--scenario", "steady"]
        outputs = []
        for engine in ("executed", "analytic", "columnar"):
            assert main(args + ["--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert main(args) == 0  # executed is the default
        outputs.append(capsys.readouterr().out)
        assert "scenario: steady" in outputs[0]
        assert outputs[1:] == outputs[:1] * 3

    def test_unknown_engine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadtest", "--engine", "event"])
        assert "invalid choice: 'event'" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", [None, "executed", "analytic"])
    def test_shards_need_the_columnar_engine(self, engine):
        args = ["loadtest", "--shards", "2"]
        if engine is not None:
            args += ["--engine", engine]
        with pytest.raises(
            SystemExit, match=r"--shards 2 needs --engine columnar"
        ):
            main(args)

    def test_old_engine_flags_are_gone(self, capsys):
        for flag in ("--analytic", "--columnar"):
            with pytest.raises(SystemExit):
                main(["loadtest", flag])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["loadtest", "--scenario", "tsunami"])

    def test_unknown_fleet_device_rejected(self):
        with pytest.raises(SystemExit):
            main(["loadtest", "--devices", "VU9P"])

    def test_bad_fail_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["loadtest", "--fail", "whenever"])

    def test_fail_id_beyond_fleet_rejected(self):
        with pytest.raises(SystemExit, match="at most 1 replica"):
            main(["loadtest", "--replicas", "1", "--fail", "5@10"])

    @pytest.mark.parametrize(
        "spec,why",
        [
            ("0@nan", "finite"),
            ("0@inf", "finite"),
            ("0@-5", ">= 0"),
            ("0@100:50", "after"),
            ("0@100:100", "after"),
            ("-1@100", "replica_id"),
        ],
    )
    def test_invalid_fail_values_get_a_reasoned_error(self, spec, why):
        """Value errors surface the validation message, not just the grammar."""
        with pytest.raises(SystemExit, match=why):
            main(["loadtest", f"--fail={spec}"])

    def test_chaos_plan_and_resilience_flags(self, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "name": "drill",
            "zones": {"east": [0]},
            "events": [
                {"kind": "gray", "replica": 1, "start_ms": 20.0,
                 "end_ms": 120.0, "slowdown": 3.0},
                {"kind": "zone", "zone": "east", "at_ms": 40.0,
                 "recover_ms": 100.0},
            ],
        }))
        args = [
            "loadtest", "--scenario", "flash-crowd", "--replicas", "2",
            "--pus", "2", "--pes", "2", "--multipliers", "4",
            "--rate-scale", "2", "--chaos-plan", str(plan),
            "--retries", "2", "--retry-budget", "1.0", "--breaker",
            "--brownout",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "retries:" in first and "breaker:" in first
        # CLI chaos runs hold the same determinism contract: the
        # columnar engine replays the flags to the same bytes.
        assert main(args + ["--engine", "columnar", "--shards", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_chaos_plan_rejected(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"events": [{"kind": "meteor"}]}')
        with pytest.raises(SystemExit, match="unknown chaos event kind"):
            main(["loadtest", "--chaos-plan", str(plan)])

    def test_missing_chaos_plan_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="chaos-plan"):
            main(["loadtest", "--chaos-plan", str(tmp_path / "nope.json")])

    def test_bad_resilience_flags_rejected(self):
        with pytest.raises(SystemExit, match="timeout_ms"):
            main(["loadtest", "--timeout-ms", "-5"])


class TestSimulateJson:
    def test_json_written_with_design_shape(self, tmp_path, capsys):
        import json

        path = tmp_path / "point.json"
        assert main(["simulate", "--json", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-design/1"
        assert doc["device"] == "ZCU102"
        assert doc["config"]["num_pes"] == 8
        assert doc["resources"]["dsp48"] == 1751
        assert doc["fits_device"] is True
        assert 0.0 < doc["headroom"] < 1.0

    def test_json_matches_search_candidate_shape(self, tmp_path):
        """simulate --json and search --json front entries share one shape."""
        import json

        sim_path = tmp_path / "sim.json"
        search_path = tmp_path / "search.json"
        assert main(["simulate", "--json", str(sim_path)]) == 0
        assert main(["search", "--space", "small", "--json", str(search_path)]) == 0
        sim = json.loads(sim_path.read_text())
        front = json.loads(search_path.read_text())["front"]
        assert set(sim) == set(front[0])
        # The default simulate point (12, 8, 16) is on the small-space front.
        assert sim in front


SEARCH_PLAN_FAST = [
    "search", "--scenario", "flash-crowd", "--space", "small",
    "--plan-designs", "2", "--max-replicas", "2", "--rate-scale", "0.5",
]


class TestSearch:
    def test_explore_default_space(self, capsys):
        assert main(["search"]) == 0
        out = capsys.readouterr().out
        assert "space: table3" in out
        assert "Pareto front" in out

    def test_explore_byte_identical(self, capsys):
        assert main(["search", "--space", "small"]) == 0
        first = capsys.readouterr().out
        assert main(["search", "--space", "small"]) == 0
        assert capsys.readouterr().out == first

    def test_explore_json_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["search", "--space", "small", "--json", str(a)]) == 0
        assert main(["search", "--space", "small", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explore_budget_and_objectives(self, capsys):
        assert (
            main(
                ["search", "--space", "wide", "--budget", "12",
                 "--objective", "latency,energy"]
            )
            == 0
        )
        assert "12 evaluated" in capsys.readouterr().out

    def test_plan_mode(self, capsys):
        assert main(SEARCH_PLAN_FAST) == 0
        out = capsys.readouterr().out
        assert "scenario: flash-crowd" in out
        assert "cheapest feasible plan" in out

    def test_plan_json_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(SEARCH_PLAN_FAST + ["--json", str(a)]) == 0
        assert main(SEARCH_PLAN_FAST + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_space_rejected(self):
        with pytest.raises(SystemExit, match="unknown space"):
            main(["search", "--space", "huge"])

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit, match="unknown objective"):
            main(["search", "--objective", "beauty"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["search", "--scenario", "tsunami"])

    def test_unknown_plan_objective_rejected(self):
        with pytest.raises(SystemExit, match="unknown plan objective"):
            main(["search", "--scenario", "steady", "--objective", "latency"])
