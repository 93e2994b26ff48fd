"""Tests for the CLI and the shared experiment harness."""

import ast
import json
from pathlib import Path

import pytest
from cli_corpus import GOLDEN_DIR

import repro
from repro.cli import build_parser, main
from repro.experiments import (
    Scenario,
    regenerate_figure5,
    regenerate_table1,
    render_figure5,
    render_table1,
    run,
    table1_direct,
    table1_vep,
)
from repro.faultinjection import BusCrash


class TestHarness:
    def test_direct_configuration_reports(self):
        result = run(table1_direct("A", 11, clients=1, requests=40))
        assert result.total_requests == 40 and result.bus is None
        assert result.failures_per_1000 >= 0
        assert 0 <= result.availability <= 1

    def test_vep_configuration_reports(self):
        result = run(table1_vep(11, clients=1, requests=40))
        assert result.total_requests == 40
        assert result.bus.veps["retailers"].stats.requests == 40

    def test_table1_small(self):
        rows = regenerate_table1(seeds=(11,), clients=1, requests=30)
        assert set(rows) == {"A", "B", "C", "D", "VEP"}
        rendered = render_table1(rows)
        assert "Table 1" in rendered and "wsBus VEP" in rendered

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(dict(veps=0, retailers="AB"), id="direct-run-two-retailers"),
            pytest.param(dict(veps=2), id="two-veps-without-shards"),
            pytest.param(dict(faults=(BusCrash("bus-1", 1.5),)), id="bus-crash-without-shards"),
            pytest.param(dict(tick_seconds=0), id="zero-tick"),
            pytest.param(dict(tick_seconds=-1), id="negative-tick"),
            pytest.param(dict(tick_seconds=float("nan")), id="nan-tick"),
        ],
    )
    def test_malformed_scenario_rejected(self, fields):
        with pytest.raises(ValueError):
            Scenario(7, **fields)

    def test_figure5_small(self):
        series = regenerate_figure5(sizes_kb=(1, 8), operations=("getCatalog",), requests=20)
        (direct, mediated) = series["getCatalog"]
        assert len(direct) == len(mediated) == 2
        assert all(m > d for d, m in zip(direct, mediated))
        assert "Figure 5" in render_figure5(series, sizes_kb=(1, 8))


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("table1", "figure5", "scenarios", "quickcheck"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenarios_command_runs(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "customization scenario matrix" in output
        assert "Business-value ledger" in output

    def test_table1_command_runs(self, capsys):
        assert main(["table1", "--seeds", "11", "--clients", "1", "--requests", "30"]) == 0
        output = capsys.readouterr().out
        assert "Reliability (ours)" in output

    def test_storm_slo_trace_writes_operations_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "storm.jsonl"
        assert (
            main(
                [
                    "storm",
                    "--seed",
                    "7",
                    "--clients",
                    "3",
                    "--requests",
                    "25",
                    "--slo",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "SLO events (resilience on):" in output
        assert "sloBurnRateExceeded" in output
        assert trace.exists()
        flight = tmp_path / "storm.jsonl.flight.json"
        prom = tmp_path / "storm.jsonl.prom"
        assert flight.exists() and prom.exists()
        assert "wsbus_endpoint_requests_total" in prom.read_text(encoding="utf-8")

    def test_top_command_renders_operations_table(self, capsys):
        assert main(["top", "--seed", "7", "--clients", "3", "--requests", "20"]) == 0
        output = capsys.readouterr().out
        assert "wsBus top" in output
        assert "Breaker" in output and "Burn" in output

    def test_top_rejects_a_non_positive_interval_in_one_line(self, capsys):
        # Regression: --interval 0 printed t=0 frames for ever.
        assert main(["top", "--interval", "0"]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert "--interval" in line
        assert captured.out == ""

    def test_plain_storm_writes_its_report_in_the_ablation_shape(self, capsys, tmp_path):
        # Regression: the resilience ablation accepted --report and wrote nothing.
        report = tmp_path / "storm.json"
        argv = ["storm", "--seed", "7", "--clients", "3", "--requests", "25"]
        assert main([*argv, "--report", str(report)]) == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert list(payload) == ["seed", "clients", "requests_per_client", "arms"]
        assert (payload["seed"], payload["clients"], payload["requests_per_client"]) == (7, 3, 25)
        assert [arm["resilience"] for arm in payload["arms"]] == ["off", "on"]
        for arm in payload["arms"]:
            assert arm["total_requests"] == 75
            assert {"delivered", "reliability", "rtt_stats"} <= set(arm)
        printed = capsys.readouterr().out
        table = (GOLDEN_DIR / "storm.stdout").read_text(encoding="utf-8")
        assert printed == f"{table}\nwrote ablation report to {report}\n"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--crash-engine", "--report", "r.json"], "--report"),
            (["--crash-engine", "--trace", "x.jsonl", "--slo"], "--slo"),
            (["--crash-engine", "--trace", "x.jsonl"], "--trace"),
            (["--crash-engine", "--jobs", "1"], "--jobs"),
            (["--crash-engine", "--clients", "3"], "--clients"),
            (["--traffic", "--trace", "x.jsonl"], "--trace"),
            (["--traffic", "--fleet", "4"], "--fleet"),
            (["--fleet", "4", "--sagas"], "--sagas"),
            (["--journal", "j"], "--journal"),
        ],
    )
    def test_a_flag_the_mode_does_not_read_exits_2_naming_it(
        self, flags, named, capsys, tmp_path, monkeypatch
    ):
        # Regression: --crash-engine ran (exit 0) and silently dropped
        # --report, --trace and --slo.
        monkeypatch.chdir(tmp_path)
        assert main(["storm", "--seed", "7", *flags]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert f"{named} does not apply" in line
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestOneRunPath:
    def test_buses_are_built_in_one_experiments_function_and_not_in_the_cli(self):
        src = Path(repro.__file__).parent
        builders = set()
        for path in sorted((src / "experiments").glob("*.py")) + [src / "cli.py"]:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("WsBus", "BusFleet")
                    ):
                        builders.add((path.name, function.name))
        assert builders == {("scenario.py", "_mediate")}
