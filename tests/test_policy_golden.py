"""Byte-identity of the WS-Policy4MASC wire format.

The golden texts were recorded on the commit before the action codec
became field-driven; every corpus document must still serialise to
exactly those bytes, and every golden text must parse back to a document
equal to its source.
"""

from __future__ import annotations

import pytest

from policy_corpus import GOLDEN_DIR, corpus

from repro.policy import parse_policy_document, serialize_policy_document

_CORPUS = corpus()


def test_corpus_and_golden_files_match_one_to_one():
    assert {path.stem for path in GOLDEN_DIR.glob("*.xml")} == set(_CORPUS)


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_document_serialises_byte_identically_and_parses_back(name):
    document = _CORPUS[name]
    golden = (GOLDEN_DIR / f"{name}.xml").read_text(encoding="utf-8")
    assert serialize_policy_document(document) == golden
    assert parse_policy_document(golden) == document
