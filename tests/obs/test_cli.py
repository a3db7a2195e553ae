"""The CLI observability surface: loadtest dump flags + the metrics renderer."""

import json

import pytest

from repro.cli import main
from repro.obs import parse_prometheus

FAST = [
    "loadtest", "--scenario", "flash-crowd", "--replicas", "2", "--engine", "analytic",
    "--rate-scale", "0.3", "--duration-scale", "0.5", "--seed", "2",
]


def _dump_args(tmp_path, tag):
    return [
        "--metrics-out", str(tmp_path / f"{tag}.prom"),
        "--trace-out", str(tmp_path / f"{tag}.json"),
        "--windows", str(tmp_path / f"{tag}.jsonl"),
    ]


class TestLoadtestDumps:
    def test_writes_all_three_artifacts(self, tmp_path, capsys):
        assert main(FAST + _dump_args(tmp_path, "a")) == 0
        prom = (tmp_path / "a.prom").read_text()
        families = parse_prometheus(prom)
        assert "repro_requests_total" in families
        assert "repro_request_latency_ms" in families
        trace = json.loads((tmp_path / "a.json").read_text())
        assert trace["traceEvents"]
        lines = (tmp_path / "a.jsonl").read_text().splitlines()
        assert lines and all(json.loads(l)["end_ms"] for l in lines)
        assert "wrote" in capsys.readouterr().out

    def test_two_runs_are_byte_identical(self, tmp_path):
        assert main(FAST + _dump_args(tmp_path, "a")) == 0
        assert main(FAST + _dump_args(tmp_path, "b")) == 0
        for ext in (".prom", ".json", ".jsonl"):
            assert (tmp_path / f"a{ext}").read_bytes() == (
                tmp_path / f"b{ext}"
            ).read_bytes()

    def test_columnar_matches_event_loop(self, tmp_path):
        assert main(FAST + _dump_args(tmp_path, "a")) == 0
        columnar = FAST + ["--engine", "columnar", "--shards", "3"]
        assert main(columnar + _dump_args(tmp_path, "b")) == 0
        for ext in (".prom", ".json", ".jsonl"):
            assert (tmp_path / f"a{ext}").read_bytes() == (
                tmp_path / f"b{ext}"
            ).read_bytes()

    def test_metrics_report_unchanged_by_dumping(self, tmp_path, capsys):
        assert main(FAST) == 0
        plain = capsys.readouterr().out
        assert main(FAST + _dump_args(tmp_path, "a")) == 0
        dumped = capsys.readouterr().out
        # the report body is identical; dumping only appends wrote-lines
        assert dumped.startswith(plain)

    def test_rejects_multi_scenario_dumps(self, tmp_path):
        with pytest.raises(SystemExit, match="single"):
            main(
                ["loadtest", "--scenario", "all", "--engine", "analytic",
                 "--metrics-out", str(tmp_path / "x.prom")]
            )

    def test_rejects_bad_window_width(self, tmp_path):
        with pytest.raises(SystemExit, match="window-ms"):
            main(FAST + ["--windows", str(tmp_path / "w.jsonl"), "--window-ms", "0"])


class TestMetricsSubcommand:
    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs")
        assert main(FAST + _dump_args(path, "a")) == 0
        return path

    def test_renders_prometheus_dump(self, dumps, capsys):
        assert main(["metrics", "--prom", str(dumps / "a.prom")]) == 0
        out = capsys.readouterr().out
        assert "metric familie(s)" in out
        assert "repro_requests_total" in out

    def test_summarizes_windows_and_trace(self, dumps, capsys):
        assert (
            main(
                ["metrics", "--windows", str(dumps / "a.jsonl"),
                 "--trace", str(dumps / "a.json")]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "window(s)" in out and "trace event(s)" in out

    def test_requires_an_input(self):
        with pytest.raises(SystemExit, match="at least one"):
            main(["metrics"])
