"""WS-Policy4MASC documents for the four §2.2 customization experiments.

1. dynamic **addition** of a CurrencyConversion service for international
   trades;
2. dynamic **addition** of a PESTAnalysis service depending on the country
   of the foreign stock;
3. dynamic **addition** of a CreditRating service for large transactions
   and/or corporate investors;
4. dynamic **removal** of the MarketCompliance invocation for trades below
   a threshold.

Every builder round-trips its document through the XML form, so the
experiments exercise the full MASCPolicyParser path.
"""

from __future__ import annotations

from repro.casestudies.stocktrading.process import TRADING_ANCHORS
from repro.policy import (
    AdaptationPolicy,
    AddActivityAction,
    BusinessValue,
    InvokeSpec,
    MessageCondition,
    MonitoringPolicy,
    PolicyDocument,
    PolicyScope,
    RemoveActivityAction,
    parse_policy_document,
    serialize_policy_document,
)

__all__ = [
    "compliance_removal_policy_document",
    "credit_rating_policy_document",
    "currency_conversion_policy_document",
    "customization_policy_documents",
    "pest_analysis_policy_document",
]


def _round_trip(document: PolicyDocument) -> PolicyDocument:
    return parse_policy_document(serialize_policy_document(document))


def currency_conversion_policy_document() -> PolicyDocument:
    """Experiment 1: add CurrencyConversion for international trades.

    A monitoring policy watches the recommendation requests flowing out of
    the process; a non-AU country marks the instance as an international
    trade, and the adaptation policy splices a CurrencyConversion call in
    front of the trade placement.
    """
    document = PolicyDocument("trading-currency-conversion")
    document.monitoring_policies.append(
        MonitoringPolicy(
            name="detect-international-trade",
            events=("message.request",),
            scope=PolicyScope(operation="getRecommendation"),
            conditions=(MessageCondition(xpath="country", operator="ne", value="AU"),),
            extract={"trade_country": "country", "trade_amount": "amount"},
            emits=("trade.international",),
            priority=10,
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="add-currency-conversion",
            triggers=("trade.international",),
            adaptation_type="customization",
            actions=(
                AddActivityAction(
                    anchor=TRADING_ANCHORS["trade"],
                    position="before",
                    invokes=(
                        InvokeSpec(
                            name="convert-currency",
                            operation="convert",
                            service_type="CurrencyConversion",
                            inputs={
                                "amount": "$amount",
                                "fromCurrency": "$currency",
                                "toCurrency": "AUD",
                            },
                            outputs={"local_amount": "converted", "fx_rate": "rate"},
                        ),
                    ),
                ),
            ),
            business_value=BusinessValue(3.5, "AUD", "FX conversion fee"),
            priority=10,
        )
    )
    return _round_trip(document)


def pest_analysis_policy_document() -> PolicyDocument:
    """Experiment 2: add PESTAnalysis depending on the stock's country.

    Two adaptation policies share the trigger: high-risk countries get the
    premium analysis service (PS1), other foreign countries the standard
    one (PS2) — "depending on the country of foreign stock, a PESTAnalysis
    Web service (PS1, PS2...PSn) was added".
    """
    document = PolicyDocument("trading-pest-analysis")
    document.monitoring_policies.append(
        MonitoringPolicy(
            name="detect-foreign-stock",
            events=("message.request",),
            scope=PolicyScope(operation="getRecommendation"),
            conditions=(MessageCondition(xpath="country", operator="ne", value="AU"),),
            extract={"trade_country": "country"},
            emits=("trade.foreign-stock",),
            priority=10,
        )
    )
    high_risk = ("BR", "RU")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="add-pest-analysis-high-risk",
            triggers=("trade.foreign-stock",),
            condition=f"trade_country in {list(high_risk)!r}",
            adaptation_type="customization",
            actions=(
                AddActivityAction(
                    anchor=TRADING_ANCHORS["trade"],
                    position="before",
                    invokes=(
                        InvokeSpec(
                            name="pest-analysis",
                            operation="assess",
                            address="http://trading/pest1",
                            inputs={"country": "$country"},
                            outputs={"pest_risk": "overallRisk"},
                        ),
                    ),
                ),
            ),
            business_value=BusinessValue(-12.0, "AUD", "premium PEST analysis fee"),
            priority=10,
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="add-pest-analysis-standard",
            triggers=("trade.foreign-stock",),
            condition=f"trade_country not in {list(high_risk)!r}",
            adaptation_type="customization",
            actions=(
                AddActivityAction(
                    anchor=TRADING_ANCHORS["trade"],
                    position="before",
                    invokes=(
                        InvokeSpec(
                            name="pest-analysis",
                            operation="assess",
                            address="http://trading/pest2",
                            inputs={"country": "$country"},
                            outputs={"pest_risk": "overallRisk"},
                        ),
                    ),
                ),
            ),
            business_value=BusinessValue(-4.0, "AUD", "standard PEST analysis fee"),
            priority=20,
        )
    )
    return _round_trip(document)


def credit_rating_policy_document() -> PolicyDocument:
    """Experiment 3: add CreditRating for large and/or corporate trades.

    "Monitoring policies were used to define constraints over the trade
    transaction amount and/or the customer's profile (e.g., personal
    investor vs. corporate investor) to dynamically add a CreditRating Web
    service before processing the trade."
    """
    document = PolicyDocument("trading-credit-rating")
    document.monitoring_policies.append(
        MonitoringPolicy(
            name="detect-credit-check-needed",
            events=("message.request",),
            scope=PolicyScope(operation="placeOrder"),
            condition="order_amount >= 100000.0 or investor_profile == 'corporate'",
            extract={
                "order_amount": "amount",
                "investor_profile": "profile",
                "order_investor": "investorId",
            },
            emits=("trade.credit-check-needed",),
            priority=10,
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="add-credit-rating",
            triggers=("trade.credit-check-needed",),
            adaptation_type="customization",
            actions=(
                AddActivityAction(
                    anchor=TRADING_ANCHORS["trade"],
                    position="before",
                    invokes=(
                        InvokeSpec(
                            name="credit-rating",
                            operation="check",
                            service_type="CreditRating",
                            inputs={"investorId": "$investor_id", "amount": "$amount"},
                            outputs={
                                "credit_rating": "rating",
                                "credit_approved": "approved",
                            },
                        ),
                    ),
                ),
            ),
            business_value=BusinessValue(-8.0, "AUD", "credit bureau fee"),
            priority=10,
        )
    )
    return _round_trip(document)


def compliance_removal_policy_document(
    amount_threshold: float = 10_000.0,
) -> PolicyDocument:
    """Experiment 4: remove MarketCompliance below the amount threshold.

    Static customization: evaluated when the instance is created, against
    its initial variables — "dynamic removal of the invocation of
    Market-ComplianceService when the trade amount is less than a
    particular threshold".
    """
    document = PolicyDocument("trading-compliance-removal")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="remove-compliance-small-trades",
            triggers=("process.instance_created",),
            scope=PolicyScope(process="trading-process"),
            condition=f"amount < {amount_threshold}",
            adaptation_type="customization",
            actions=(RemoveActivityAction(target=TRADING_ANCHORS["compliance"]),),
            business_value=BusinessValue(1.5, "AUD", "saved compliance processing"),
            priority=10,
        )
    )
    return _round_trip(document)


def customization_policy_documents() -> tuple[PolicyDocument, ...]:
    """The four experiments' documents, in the order they are loaded."""
    return (
        currency_conversion_policy_document(),
        pest_analysis_policy_document(),
        credit_rating_policy_document(),
        compliance_removal_policy_document(),
    )
