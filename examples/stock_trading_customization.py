"""Stock trading: policy-driven customization of a running composition.

Reproduces the Section 2.2 demo end-to-end: a base national-trading
process, four externalized WS-Policy4MASC documents, and a set of orders
that trigger different customizations — with zero changes to the process
definition or any service implementation.

Run:  python examples/stock_trading_customization.py
"""

from repro.casestudies.stocktrading import (
    ORDER_PROFILES,
    build_trading_deployment,
    customization_policy_documents,
)
from repro.policy import serialize_policy_document

INTERESTING_ACTIVITIES = (
    "convert-currency",
    "pest-analysis",
    "credit-rating",
    "market-compliance",
)


def describe(instance) -> str:
    executed = [name for name in INTERESTING_ACTIVITIES if name in instance.executed_activities]
    return ", ".join(executed) if executed else "(base process only)"


def main() -> None:
    deployment = build_trading_deployment(seed=11)
    masc = deployment.masc

    print("Loading WS-Policy4MASC documents (via the real XML wire format):\n")
    for document in customization_policy_documents():
        xml = serialize_policy_document(document)
        masc.load_policies(xml)
        print(f"  loaded {document.name!r} ({len(document)} policies, {len(xml)} bytes of XML)")

    print("\nRunning orders against the *unmodified* base trading process:\n")
    for profile, kwargs in ORDER_PROFILES.items():
        instance = deployment.run_order(**kwargs)
        print(f"  {profile:14s} -> {instance.status.value:9s} | customization: {describe(instance)}")

    print("\nPer-instance adaptations enacted by MASCAdaptationService:")
    for report in masc.adaptation.reports:
        mode = "dynamic" if report.dynamic else "static"
        print(f"  [{mode:7s}] {report.instance_id}: {report.policy_name} -> {report.action}")

    print("\nBusiness-value ledger (adaptation fees/gains):")
    for entry in masc.repository.ledger:
        print(f"  t={entry.time:8.3f}  {entry.policy_name:32s} {entry.value.describe()}")
    print(f"  TOTAL: {masc.repository.business_totals()}")

    definition = deployment.engine.definitions["trading-process"]
    print(f"\nBase process definition still contains exactly: {definition.activity_names()}")


if __name__ == "__main__":
    main()
