"""Byte-identity of what the mediation path emits.

The digests were recorded on the commit before the VEP and send paths
became composed stage chains; every corpus run must still produce exactly
those spans (same start order, same deterministic ids), metrics and
``stats_summary()``.
"""

from __future__ import annotations

import json

import pytest

from mediation_corpus import GOLDEN_DIR, SCENARIOS, digests


def test_corpus_and_golden_files_match_one_to_one():
    assert {path.stem for path in GOLDEN_DIR.glob("*.json")} == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_emits_the_recorded_spans_metrics_and_stats(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert digests(name) == golden
