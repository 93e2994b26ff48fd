"""The cost ledger re-counts exactly what ``tests/golden/cost/`` recorded.

The count runs in a fresh interpreter that inherits this one's hash seed,
so what module-level memos earlier tests filled cannot move it, and a
count that depends on hash order fails under some ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from cost_corpus import GOLDEN_DIR, ROOT

WORKLOADS = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def recounted() -> dict[str, dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "cost_corpus.py"), "--print"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout)


def test_every_bench_workload_has_a_ledger(recounted):
    assert sorted(recounted) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_matches_the_golden(recounted, workload):
    recorded = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    assert recounted[workload] == recorded
