"""Every endpoint fault lands exactly where and when it did.

The assignments to the Retailer endpoints' ``available`` and
``added_delay_seconds`` (and the availability the Table 1 direct
configurations read off the fault log) were recorded before the endpoint
injectors became one fault spec and one driver; every corpus run must
still produce exactly those values, compared with ``==``.
"""

from __future__ import annotations

import json

import pytest

from fault_corpus import GOLDEN_DIR, SCENARIOS, record


def test_corpus_and_golden_files_match_one_to_one():
    assert {path.stem for path in GOLDEN_DIR.glob("*.json")} == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_makes_the_recorded_endpoint_assignments(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert record(name) == golden
