"""Self-test of the benchmark itself (not part of tier-1's ``testpaths``).

    python -m pytest bench -q

Runs every workload at ``--scale 0.02`` through the same command the
driver uses and checks the contract: the metric names and units printed
are exactly those ``BENCHMARK.json`` lists, every correctness check ran
and passed, the span pass left the simulation untouched, and per-layer
self times tile the traced wall.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = "0.02"


def _last_json_line(command, **kwargs) -> dict:
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170, **kwargs
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run(workload: str, trace: int) -> dict:
    return _last_json_line(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
            "--seconds", "0", "--scale", SCALE, "--trace", str(trace),
        ]
    )


def test_manifest_matches_the_catalogue():
    sys.path.insert(0, str(BENCH_DIR))
    from catalogue import END_TO_END, PER_LAYER

    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]] == [
        (name, spec[0], spec[1], spec[2]) for name, spec in END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (name, spec[0], spec[1]) for name, spec in PER_LAYER.items()
    ]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in MANIFEST["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])


def test_workload_reasons_match_the_manifest():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    printed = _last_json_line(
        [
            sys.executable, "-c",
            "import sys, json; sys.path.insert(0, 'bench'); import workloads;"
            "print(json.dumps({w.name: w.why for w in workloads.WORKLOADS.values()}))",
        ],
        env=env,
    )
    assert printed == {entry["name"]: entry["why"] for entry in MANIFEST["workloads"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = _run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert (BENCH_DIR / "out" / f"spans-{workload}.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", ["clean_small", "trading_customized"])
def test_span_pass_is_invisible_to_the_simulation_and_tiles_the_wall(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    traced = _last_json_line(
        [
            sys.executable, "bench/child.py", "--mode", "trace", "--workload", workload,
            "--seed", "11", "--scale", SCALE,
        ],
        env=env,
    )
    # ``problems`` would name a fingerprint mismatch (event count or any
    # simulated metric differing from the untraced rep) or a tiling gap.
    assert traced["problems"] == []
    assert traced["missing_names"] == []
    tiled = sum(traced["self_seconds"].values())
    assert abs(tiled - traced["traced_wall_s"]) <= 0.02 * traced["traced_wall_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for source in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clean_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
