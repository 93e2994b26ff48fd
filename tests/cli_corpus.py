"""The command-line golden corpus.

Eleven ``python -m repro`` invocations that between them drive every
experiment the CLI assembles: the resilience ablation with and without
the SLO loop, the overload and federation ablations with their JSON
reports, a traced fleet storm, both engine-crash sweeps with their
journals, Table 1, Figure 5, ``top`` and the §2.2 customization
matrix (``scenarios``). ``tests/golden/cli/`` holds, per
command, its exact stdout (``<name>.stdout``), the bytes of the report it
writes (``<name>.report.json``) and the SHA-256 of every other file it
writes (``<name>.files.json``: span files, flight dumps, journals), as
recorded on the commit *before* the hand-built harnesses became one
``Scenario`` and one ``run()`` (``scenarios``: before the case-study
profiles and policy set were declared once); ``test_cli_golden.py``
compares them.
Re-record (only when a command is meant to print or write something
different) with ``PYTHONPATH=src python tests/cli_corpus.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

from repro.cli import main
from repro.soap import addressing

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"

#: The file a ``--report`` run writes; recorded byte for byte.
REPORT = "report.json"

COMMANDS = {
    "storm": ["storm", "--seed", "7", "--clients", "3", "--requests", "25"],
    "storm-slo": ["storm", "--seed", "7", "--clients", "3", "--requests", "25", "--slo"],
    "storm-traffic": ["storm", "--traffic", "--seed", "11", "--report", REPORT],
    "storm-fleet": ["storm", "--fleet", "4", "--seed", "7", "--report", REPORT],
    "storm-fleet-trace": ["storm", "--fleet", "2", "--seed", "7", "--trace", "spans.jsonl"],
    "storm-crash-engine": ["storm", "--crash-engine", "--seed", "7", "--journal", "journals"],
    "storm-crash-engine-sagas": [
        "storm", "--crash-engine", "--sagas", "--seed", "7", "--journal", "journals",
    ],
    "table1": ["table1", "--seeds", "11", "--clients", "1", "--requests", "30"],
    "figure5": ["figure5", "--requests", "20"],
    "top": ["top", "--seed", "7", "--clients", "3", "--requests", "20"],
    "scenarios": ["scenarios"],
}


def run(argv: list[str], directory: Path) -> tuple[int, str, dict[str, bytes]]:
    """Run one command inside ``directory``: (exit code, stdout, written files).

    Correlation ids fall back to ``wsa:MessageID``, minted from a
    process-wide counter: restart it so the outputs do not depend on what
    else ran in this interpreter.
    """
    addressing._message_counter = itertools.count(1)
    stdout = io.StringIO()
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        files = {
            path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }
    finally:
        os.chdir(previous)
    return code, stdout.getvalue(), files


def record(name: str, directory: Path) -> dict[str, bytes]:
    """The golden files of one command, by file name."""
    code, stdout, files = run(COMMANDS[name], directory)
    assert code == 0, f"{name} exited {code}"
    golden = {f"{name}.stdout": stdout.encode("utf-8")}
    report = files.pop(REPORT, None)
    if report is not None:
        golden[f"{name}.report.json"] = report
    if files:
        digests = {path: hashlib.sha256(data).hexdigest() for path, data in files.items()}
        golden[f"{name}.files.json"] = (
            json.dumps(digests, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
    return golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as scratch:
            for file_name, data in record(name, Path(scratch)).items():
                (GOLDEN_DIR / file_name).write_bytes(data)
        print(name)
