"""Identity of the audit trails policy evaluation leaves.

The digests were recorded on the commit before the five evaluation loops
and the two monitoring loops became one matcher and one evaluator; every
corpus run must still produce exactly those decisions, reports, recovery
outcomes, ledger entries, subject states and MASC events.
"""

from __future__ import annotations

import json

import pytest

from decision_corpus import GOLDEN_DIR, SCENARIOS, digests


def test_corpus_and_golden_files_match_one_to_one():
    assert {path.stem for path in GOLDEN_DIR.glob("*.json")} == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_leaves_the_recorded_audit_trail(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert digests(name) == golden
