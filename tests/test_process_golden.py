"""Byte-identity of the process-document wire format.

The golden texts were recorded on the commit before activities were
declared once; every corpus document must still serialise to exactly
those bytes, and every golden document must load and write itself back.
"""

from __future__ import annotations

import json

import pytest

from process_corpus import GOLDEN_DIR, corpus

from repro.orchestration import (
    ModificationOperation,
    parse_activity,
    parse_process_definition,
    serialize_activity,
    serialize_process_definition,
)

_CORPUS = corpus()


def test_corpus_and_golden_files_match_one_to_one():
    assert {path.name for path in GOLDEN_DIR.iterdir()} == set(_CORPUS)


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_document_is_produced_byte_identically(name):
    assert _CORPUS[name] == (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(n for n in _CORPUS if n.endswith(".xml")))
def test_golden_document_loads_and_writes_itself_back(name):
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    if name.startswith("definition-"):
        assert serialize_process_definition(parse_process_definition(golden)) == golden
    else:
        assert serialize_activity(parse_activity(golden)) == golden


def test_journaled_operations_decode_and_encode_back():
    payloads = json.loads((GOLDEN_DIR / "modification-journal.json").read_text(encoding="utf-8"))
    records = [record for payload in payloads for record in payload["operations"]]
    assert {record["kind"] for record in records} == {"remove", "insert_before"}
    for record in records:
        assert ModificationOperation.from_record(record).to_record() == record
