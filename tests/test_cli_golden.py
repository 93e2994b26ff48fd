"""Byte-identity of what the command line prints and writes.

The golden files were recorded on the commit before the experiment
harnesses became one ``Scenario`` value and one ``run()``; every command
of the corpus must still print exactly that stdout and write exactly
those reports, span files, flight dumps and journals.
"""

from __future__ import annotations

import pytest

from cli_corpus import COMMANDS, GOLDEN_DIR, record, run


def test_corpus_and_golden_files_match_one_to_one():
    stems = {path.name.split(".")[0] for path in GOLDEN_DIR.iterdir()}
    assert stems == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_prints_and_writes_the_recorded_bytes(name, tmp_path):
    golden = record(name, tmp_path)
    assert sorted(golden) == sorted(path.name for path in GOLDEN_DIR.glob(f"{name}.*"))
    for file_name, data in golden.items():
        assert data == (GOLDEN_DIR / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", ["storm", "storm-fleet"])
def test_two_workers_print_what_one_does(name, tmp_path):
    code, stdout, _files = run([*COMMANDS[name], "--jobs", "2"], tmp_path)
    assert code == 0
    assert stdout.encode("utf-8") == (GOLDEN_DIR / f"{name}.stdout").read_bytes()
