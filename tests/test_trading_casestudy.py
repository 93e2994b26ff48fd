"""Tests for the Stock Trading case study: services and the four
customization experiments of Section 2.2."""

import pytest

from repro.casestudies.stocktrading import (
    CREDIT_RATING_CONTRACT,
    CURRENCY_CONVERSION_CONTRACT,
    FINANCIAL_ANALYSIS_CONTRACT,
    MARKET_COMPLIANCE_CONTRACT,
    PEST_ANALYSIS_CONTRACT,
    STOCK_MARKET_CONTRACT,
    STOCK_NOTIFICATION_CONTRACT,
    TRADING_ANCHORS,
    build_trading_deployment,
    compliance_removal_policy_document,
    customization_policy_documents,
)
from repro.orchestration.instance import InstanceStatus
from repro.policy import serialize_policy_document, validate_document
from repro.services import Invoker
from repro.soap import SoapFaultError


@pytest.fixture
def trading():
    return build_trading_deployment(seed=3)


def invoke(deployment, address, operation, payload, timeout=15.0):
    invoker = Invoker(deployment.env, deployment.masc.network, caller="test")

    def client():
        response = yield from invoker.invoke(address, operation, payload, timeout=timeout)
        return response.body

    return deployment.env.run(deployment.env.process(client()))


def load_all_policies(deployment):
    for document in customization_policy_documents():
        deployment.masc.load_policies(serialize_policy_document(document))


class TestTradingServices:
    def test_quote_lookup(self, trading):
        body = invoke(
            trading,
            trading.notification.address,
            "getQuote",
            STOCK_NOTIFICATION_CONTRACT.operation("getQuote").input.build(symbol="ACME"),
        )
        assert float(body.child_text("price")) > 0

    def test_unknown_symbol_faults(self, trading):
        with pytest.raises(SoapFaultError):
            invoke(
                trading,
                trading.notification.address,
                "getQuote",
                STOCK_NOTIFICATION_CONTRACT.operation("getQuote").input.build(symbol="NOPE"),
            )

    def test_notifications_update_analysis(self, trading):
        trading.env.run(until=120.0)  # several 30s notification cycles
        assert trading.notification.notifications_sent > 0
        analysis = trading.analysis_services[0]
        assert any(len(history) > 1 for history in analysis.history.values())

    def test_recommendation_returns_listed_symbol(self, trading):
        trading.env.run(until=120.0)
        body = invoke(
            trading,
            trading.analysis_services[0].address,
            "getRecommendation",
            FINANCIAL_ANALYSIS_CONTRACT.operation("getRecommendation").input.build(
                orderType="invest", amount=1000.0, country="AU"
            ),
        )
        assert body.child_text("symbol") in trading.analysis_services[0].quotes

    def test_market_queues_then_matches(self, trading):
        buy = STOCK_MARKET_CONTRACT.operation("placeTrade").input.build(
            orderId="o-b", symbol="ACME", side="buy", quantity=10, limitPrice=50.0
        )
        body = invoke(trading, trading.market.address, "placeTrade", buy)
        assert body.child_text("status") == "queued"
        sell = STOCK_MARKET_CONTRACT.operation("placeTrade").input.build(
            orderId="o-s", symbol="ACME", side="sell", quantity=10, limitPrice=40.0
        )
        body = invoke(trading, trading.market.address, "placeTrade", sell)
        assert body.child_text("status") == "matched"
        assert float(body.child_text("executedPrice")) == pytest.approx(45.0)
        # Parallel settlement reached both back-end services.
        assert trading.registry_service.transfers
        assert trading.payment.settled_amounts

    def test_currency_conversion_rates(self, trading):
        body = invoke(
            trading,
            trading.conversion_services[0].address,
            "convert",
            CURRENCY_CONVERSION_CONTRACT.operation("convert").input.build(
                amount=100.0, fromCurrency="USD", toCurrency="AUD"
            ),
        )
        assert float(body.child_text("converted")) == pytest.approx(152.0)

    def test_unsupported_currency_faults(self, trading):
        with pytest.raises(SoapFaultError):
            invoke(
                trading,
                trading.conversion_services[0].address,
                "convert",
                CURRENCY_CONVERSION_CONTRACT.operation("convert").input.build(
                    amount=1.0, fromCurrency="DOGE", toCurrency="AUD"
                ),
            )

    def test_pest_risk_ranking(self, trading):
        def risk(country):
            body = invoke(
                trading,
                trading.pest_services[0].address,
                "assess",
                PEST_ANALYSIS_CONTRACT.operation("assess").input.build(country=country),
            )
            return float(body.child_text("overallRisk"))

        assert risk("RU") > risk("AU")

    def test_credit_rating_deterministic(self, trading):
        def rating(investor):
            body = invoke(
                trading,
                trading.credit_services[0].address,
                "check",
                CREDIT_RATING_CONTRACT.operation("check").input.build(
                    investorId=investor, amount=1000.0
                ),
            )
            return body.child_text("rating")

        assert rating("alice") == rating("alice")

    def test_compliance_threshold(self, trading):
        body = invoke(
            trading,
            trading.compliance.address,
            "verify",
            MARKET_COMPLIANCE_CONTRACT.operation("verify").input.build(
                orderId="o", amount=99_000_000.0
            ),
        )
        assert body.child_text("compliant") == "false"


class TestBaseProcess:
    def test_national_trade_runs_unmodified(self, trading):
        instance = trading.run_order(amount=5000.0, country="AU")
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.result in ("queued", "matched")
        assert "market-compliance" in instance.executed_activities
        assert "convert-currency" not in instance.executed_activities

    def test_policy_documents_validate_against_process(self, trading):
        definition = trading.engine.definitions["trading-process"]
        known_types = set(trading.masc.registry.service_types)
        for document in customization_policy_documents():
            issues = validate_document(
                document, process=definition, known_service_types=known_types
            )
            assert not [issue for issue in issues if issue.severity == "error"]


class TestCustomizationExperiments:
    """The four experiments of Section 2.2."""

    def test_experiment1_currency_conversion_added(self, trading):
        load_all_policies(trading)
        instance = trading.run_order(amount=20_000.0, country="US", currency="USD")
        assert instance.status is InstanceStatus.COMPLETED
        assert "convert-currency" in instance.executed_activities
        assert instance.variables["local_amount"] == pytest.approx(30_400.0)
        assert instance.variables["fx_rate"] == pytest.approx(1.52)

    def test_experiment2_pest_analysis_by_country(self, trading):
        load_all_policies(trading)
        standard = trading.run_order(amount=1000.0, country="US", currency="USD")
        assert "pest-analysis" in standard.executed_activities
        # High-risk country routed to the premium service (pest1).
        emerging = trading.run_order(amount=1000.0, country="BR", currency="USD")
        assert "pest-analysis" in emerging.executed_activities
        applied = [
            report.policy_name for report in trading.masc.adaptation.reports
        ]
        assert "add-pest-analysis-standard" in applied
        assert "add-pest-analysis-high-risk" in applied

    def test_experiment3_credit_rating_for_large_or_corporate(self, trading):
        load_all_policies(trading)
        large = trading.run_order(amount=250_000.0, profile="personal")
        assert "credit-rating" in large.executed_activities
        assert large.variables["credit_approved"] in (True, False)
        corporate = trading.run_order(amount=500.0, profile="corporate")
        assert "credit-rating" in corporate.executed_activities
        small_personal = trading.run_order(amount=500.0, profile="personal")
        assert "credit-rating" not in small_personal.executed_activities

    def test_experiment4_compliance_removed_below_threshold(self, trading):
        load_all_policies(trading)
        checks_before = trading.compliance.checks_performed
        small = trading.run_order(amount=500.0)
        assert "market-compliance" not in small.executed_activities
        assert trading.compliance.checks_performed == checks_before
        large = trading.run_order(amount=50_000.0)
        assert "market-compliance" in large.executed_activities

    def test_no_changes_to_process_definition(self, trading):
        """The headline claim: the registered definition is untouched."""
        load_all_policies(trading)
        definition = trading.engine.definitions["trading-process"]
        names_before = definition.activity_names()
        trading.run_order(amount=20_000.0, country="US", currency="USD")
        assert definition.activity_names() == names_before

    def test_customizations_are_per_instance(self, trading):
        load_all_policies(trading)
        international = trading.run_order(amount=20_000.0, country="US", currency="USD")
        national = trading.run_order(amount=20_000.0, country="AU")
        assert "convert-currency" in international.executed_activities
        assert "convert-currency" not in national.executed_activities

    def test_hot_reload_changes_behavior_without_restart(self, trading):
        load_all_policies(trading)
        first = trading.run_order(amount=500.0)
        assert "market-compliance" not in first.executed_activities
        # Reload the same document name with a lower threshold: behaviour
        # changes on the very next instance, no component restarted.
        trading.masc.load_policies(
            serialize_policy_document(compliance_removal_policy_document(amount_threshold=100.0))
        )
        second = trading.run_order(amount=500.0)
        assert "market-compliance" in second.executed_activities

    def test_business_value_ledger_accumulates(self, trading):
        load_all_policies(trading)
        trading.run_order(amount=20_000.0, country="US", currency="USD")
        totals = trading.masc.repository.business_totals()
        # currency conversion (+3.5) and standard PEST (-4.0)
        assert totals["AUD"] == pytest.approx(-0.5)

    def test_adaptation_reports_marked_dynamic(self, trading):
        load_all_policies(trading)
        trading.run_order(amount=20_000.0, country="US", currency="USD")
        conversion_reports = [
            report
            for report in trading.masc.adaptation.reports
            if report.policy_name == "add-currency-conversion"
        ]
        assert conversion_reports and conversion_reports[0].dynamic
        trading.run_order(amount=500.0)
        removal_reports = [
            report
            for report in trading.masc.adaptation.reports
            if report.policy_name == "remove-compliance-small-trades"
        ]
        assert removal_reports and not removal_reports[0].dynamic
