"""Section 2.2 customization experiments: the MASC evaluation.

The paper's evaluation of the customization support is qualitative — four
scenarios that must succeed against the base national-trading process
without touching the process definition or any service implementation:

1. dynamic addition of a CurrencyConversion service for international
   trades;
2. dynamic addition of a PESTAnalysis service depending on the country;
3. dynamic addition of a CreditRating service gated on transaction amount
   and/or customer profile;
4. dynamic removal of the MarketCompliance invocation below a threshold.

This harness regenerates the scenario matrix and asserts every row, plus
the paper's hot-reload property.
"""

from __future__ import annotations

from repro.casestudies.stocktrading import (
    ORDER_PROFILES,
    build_trading_deployment,
    compliance_removal_policy_document,
    customization_policy_documents,
)
from repro.metrics import Table
from repro.orchestration.instance import InstanceStatus
from repro.policy import serialize_policy_document


def run_scenarios():
    deployment = build_trading_deployment(seed=5)
    for document in customization_policy_documents():
        deployment.masc.load_policies(serialize_policy_document(document))

    definition_before = deployment.engine.definitions["trading-process"].activity_names()

    scenarios = {
        profile: deployment.run_order(**kwargs) for profile, kwargs in ORDER_PROFILES.items()
    }
    definition_after = deployment.engine.definitions["trading-process"].activity_names()
    return deployment, scenarios, definition_before, definition_after


def test_customization_scenarios(benchmark):
    deployment, scenarios, before, after = benchmark.pedantic(
        run_scenarios, rounds=1, iterations=1
    )

    table = Table(
        ["Scenario", "Status", "CC", "PEST", "CreditRating", "Compliance"],
        title="Section 2.2 — customization scenario matrix",
    )
    for label, instance in scenarios.items():
        executed = instance.executed_activities
        table.add_row(
            [
                label,
                instance.status.value,
                "convert-currency" in executed,
                "pest-analysis" in executed,
                "credit-rating" in executed,
                "market-compliance" in executed,
            ]
        )
    print()
    print(table.render())

    # Every scenario instance completes.
    for label, instance in scenarios.items():
        assert instance.status is InstanceStatus.COMPLETED, label

    def executed(label):
        return scenarios[label].executed_activities

    # Scenario matrix assertions (the paper's four experiments).
    assert "convert-currency" not in executed("national")
    assert "convert-currency" in executed("international")
    assert "pest-analysis" in executed("international")
    assert "pest-analysis" in executed("high-risk")
    assert "credit-rating" in executed("large-personal")
    assert "credit-rating" in executed("corporate")
    assert "credit-rating" not in executed("national")
    assert "market-compliance" not in executed("small")
    assert "market-compliance" in executed("national")

    # High-risk vs standard PEST routed to different concrete services.
    reports = deployment.masc.adaptation.reports
    assert any(r.policy_name == "add-pest-analysis-high-risk" for r in reports)
    assert any(r.policy_name == "add-pest-analysis-standard" for r in reports)

    # "Without any changes to either the process definition or the
    # constituent services implementations."
    assert before == after

    # Data exchange worked: conversion wrote its outputs into the instance.
    international = scenarios["international"]
    assert international.variables["local_amount"] > international.variables["amount"]


def test_hot_reload_enforced_on_next_adaptation(benchmark):
    """"When a WS-Policy4MASC document changes, these changes are
    automatically enforced the next time adaptation is needed with no need
    to restart any software component.""" ""

    def run():
        deployment = build_trading_deployment(seed=6)
        deployment.masc.load_policies(
            serialize_policy_document(compliance_removal_policy_document(10_000.0))
        )
        first = deployment.run_order(amount=500.0)
        deployment.masc.load_policies(
            serialize_policy_document(compliance_removal_policy_document(100.0))
        )
        second = deployment.run_order(amount=500.0)
        return first, second

    first, second = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\nHot reload: threshold 10000 -> compliance removed:",
        "market-compliance" not in first.executed_activities,
        "| threshold 100 -> compliance kept:",
        "market-compliance" in second.executed_activities,
    )
    assert "market-compliance" not in first.executed_activities
    assert "market-compliance" in second.executed_activities
