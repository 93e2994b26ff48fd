"""Stock trading testbed assembly on the MASC facade.

Deploys every Figure 2 service — including two equivalent instances of the
financial analysis and of each variation service (CC_1/CC_2, PS_1/PS_2,
CR_1/CR_2: "there can be multiple different services of the same type in
the composition") — wires the notification feed, registers the base
trading process, and exposes a ``place_order`` helper used by examples,
tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.casestudies.stocktrading.process import build_trading_process
from repro.casestudies.stocktrading.services import (
    CreditRatingService,
    CurrencyConversionService,
    FinancialAnalysisService,
    FundManagerService,
    MarketComplianceService,
    PaymentService,
    PESTAnalysisService,
    StockMarketService,
    StockNotificationService,
    StockRegistryService,
)
from repro.core import MASC
from repro.orchestration import ProcessInstance
from repro.services import ProcessingModel

__all__ = ["ORDER_PROFILES", "TradingDeployment", "build_trading_deployment"]

#: ``place_order`` keyword arguments of the six §2.2 order profiles: no,
#: one or two customizations per instance (EXPERIMENTS.md §2.2).
ORDER_PROFILES = {
    "national": dict(amount=50_000.0, country="AU"),
    "international": dict(amount=20_000.0, country="US", currency="USD"),
    "high-risk": dict(amount=8_000.0, country="BR", currency="USD"),
    "large-personal": dict(amount=250_000.0, profile="personal"),
    "corporate": dict(amount=2_000.0, profile="corporate"),
    "small": dict(amount=500.0),
}


@dataclass
class TradingDeployment:
    """The assembled trading testbed."""

    masc: MASC
    fund_manager: FundManagerService
    analysis_services: list[FinancialAnalysisService]
    notification: StockNotificationService
    market: StockMarketService
    registry_service: StockRegistryService
    payment: PaymentService
    compliance: MarketComplianceService
    conversion_services: list[CurrencyConversionService] = field(default_factory=list)
    pest_services: list[PESTAnalysisService] = field(default_factory=list)
    credit_services: list[CreditRatingService] = field(default_factory=list)

    @property
    def env(self):
        return self.masc.env

    @property
    def engine(self):
        return self.masc.engine

    def register_base_process(self):
        """Register the base national-trading process definition."""
        definition = build_trading_process(
            fund_manager_address=self.fund_manager.address,
            analysis_address=self.analysis_services[0].address,
            compliance_address=self.compliance.address,
            market_address=self.market.address,
        )
        return self.engine.register_definition(definition)

    def place_order(
        self,
        definition: str = "trading-process",
        investor_id: str = "investor-1",
        order_type: str = "invest",
        amount: float = 5000.0,
        country: str = "AU",
        currency: str = "AUD",
        profile: str = "personal",
    ) -> ProcessInstance:
        """Start one trading-process instance (does not advance time)."""
        return self.engine.start(
            definition,
            variables={
                "investor_id": investor_id,
                "order_type": order_type,
                "amount": float(amount),
                "country": country,
                "currency": currency,
                "profile": profile,
            },
        )

    def run_order(self, **kwargs) -> ProcessInstance:
        """Start an order and drive the simulation to its completion."""
        instance = self.place_order(**kwargs)
        self.engine.run_to_completion(instance)
        return instance


def build_trading_deployment(
    seed: int = 0, start_notifications: bool = True
) -> TradingDeployment:
    """Deploy the full stock-trading application on a fresh MASC stack."""
    masc = MASC(seed=seed)
    env = masc.env

    registry_service = StockRegistryService(
        env, "StockRegistry", "http://trading/registry",
        processing=ProcessingModel(base_seconds=0.004),
    )
    masc.deploy(registry_service)
    payment = PaymentService(
        env, "Payment", "http://trading/payment",
        processing=ProcessingModel(base_seconds=0.004),
    )
    masc.deploy(payment)
    market = StockMarketService(
        env, "StockMarket", "http://trading/market",
        processing=ProcessingModel(base_seconds=0.006),
        registry_address=registry_service.address,
        payment_address=payment.address,
    )
    masc.deploy(market)
    notification = StockNotificationService(
        env, "StockNotification", "http://trading/notification",
        processing=ProcessingModel(base_seconds=0.002),
    )
    masc.deploy(notification)

    analysis_services = []
    for index in (1, 2):
        analysis = FinancialAnalysisService(
            env, f"FinancialAnalysis{index}", f"http://trading/analysis{index}",
            processing=ProcessingModel(base_seconds=0.005 + 0.002 * index),
        )
        masc.deploy(analysis)
        notification.subscribers.append(analysis.address)
        analysis_services.append(analysis)

    fund_manager = FundManagerService(
        env, "FundManager", "http://trading/fundmanager",
        processing=ProcessingModel(base_seconds=0.005),
    )
    masc.deploy(fund_manager)
    compliance = MarketComplianceService(
        env, "MarketCompliance", "http://trading/compliance",
        processing=ProcessingModel(base_seconds=0.008),
    )
    masc.deploy(compliance)

    deployment = TradingDeployment(
        masc=masc,
        fund_manager=fund_manager,
        analysis_services=analysis_services,
        notification=notification,
        market=market,
        registry_service=registry_service,
        payment=payment,
        compliance=compliance,
    )
    for index in (1, 2):
        conversion = CurrencyConversionService(
            env, f"CurrencyConversion{index}", f"http://trading/cc{index}",
            processing=ProcessingModel(base_seconds=0.003),
        )
        masc.deploy(conversion)
        deployment.conversion_services.append(conversion)
        pest = PESTAnalysisService(
            env, f"PESTAnalysis{index}", f"http://trading/pest{index}",
            processing=ProcessingModel(base_seconds=0.01),
        )
        masc.deploy(pest)
        deployment.pest_services.append(pest)
        credit = CreditRatingService(
            env, f"CreditRating{index}", f"http://trading/cr{index}",
            processing=ProcessingModel(base_seconds=0.007),
        )
        masc.deploy(credit)
        deployment.credit_services.append(credit)

    if start_notifications:
        notification.start_publishing()
    deployment.register_base_process()
    return deployment
