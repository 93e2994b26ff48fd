"""Every shipped example must run clean — examples are executable docs."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n--- stdout ---\n{result.stdout}\n"
        f"--- stderr ---\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script.name} produced no output"


def test_examples_exist():
    assert len(EXAMPLES) >= 5


def test_policy_files_are_valid_documents():
    from repro.policy import parse_policy_document, validate_document

    casestudies = Path(__file__).parent.parent / "src" / "repro" / "casestudies"
    policy_files = sorted(casestudies.glob("*/policies/*.xml"))
    assert len(policy_files) == 14
    for path in policy_files:
        document = parse_policy_document(path.read_text(encoding="utf-8"))
        assert document.name == path.stem, path.name
        issues = validate_document(document, raise_on_error=True)
        assert not [issue for issue in issues if issue.severity == "error"], path.name
