"""File-based policies and hot reload.

MASC's configuration story: "When the MASCAdaptationService starts, our
MASCPolicyParser imports WS-Policy4MASC files" and "when a WS-Policy4MASC
document changes, these changes are automatically enforced the next time
adaptation is needed with no need to restart any software component."

This example copies the four committed Stock Trading policy files out of
the ``repro.casestudies.stocktrading.policies`` package, loads them, runs
a trade, edits one policy file on disk (changing the compliance
threshold), re-imports, and shows the behaviour change — same process
definition, same services, nothing restarted.

Run:  python examples/policy_files_hot_reload.py
"""

import shutil
import tempfile
from importlib.resources import files
from pathlib import Path

from repro.casestudies.stocktrading import build_trading_deployment

POLICY_PACKAGE = files("repro.casestudies.stocktrading.policies")
TRADING_POLICIES = [
    "trading-currency-conversion.xml",
    "trading-pest-analysis.xml",
    "trading-credit-rating.xml",
    "trading-compliance-removal.xml",
]


def main() -> None:
    deployment = build_trading_deployment(seed=21)
    parser = deployment.masc.parser

    # Work on a scratch copy so the committed files stay pristine.
    workdir = Path(tempfile.mkdtemp(prefix="masc-policies-"))
    for filename in TRADING_POLICIES:
        (workdir / filename).write_text((POLICY_PACKAGE / filename).read_text(encoding="utf-8"))

    loaded = parser.import_directory(workdir)
    print(f"Imported {len(loaded)} policy documents from {workdir}:")
    for document in loaded:
        print(f"  {document.name}: {document.policy_names()}")

    print("\nUnchanged files are not re-parsed on re-import:")
    again = parser.import_directory(workdir)
    print(f"  second import parsed {len(again)} documents (parse_count={parser.parse_count})")

    instance = deployment.run_order(amount=500.0)
    print(
        "\nTrade of 500 AUD with threshold 10000: compliance executed ->",
        "market-compliance" in instance.executed_activities,
    )

    # Edit the policy *file*: drop the removal threshold to 100.
    compliance_path = workdir / "trading-compliance-removal.xml"
    text = compliance_path.read_text().replace("amount &lt; 10000.0", "amount &lt; 100.0")
    compliance_path.write_text(text)
    reloaded = parser.import_directory(workdir)
    print(f"\nEdited {compliance_path.name}; re-import picked up {len(reloaded)} changed file(s).")

    instance = deployment.run_order(amount=500.0)
    print(
        "Same trade after hot reload (threshold now 100): compliance executed ->",
        "market-compliance" in instance.executed_activities,
    )
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
