"""Stock Trading case study (Section 2.2).

The base national-trading composition plus the four customization
experiments: dynamic addition of CurrencyConversion, PESTAnalysis and
CreditRating services, and removal of the MarketCompliance invocation —
all driven by externalized WS-Policy4MASC documents, with "no changes to
either the process definition or the constituent services implementations".
"""

from repro.casestudies.stocktrading.contracts import (
    CREDIT_RATING_CONTRACT,
    CURRENCY_CONVERSION_CONTRACT,
    FINANCIAL_ANALYSIS_CONTRACT,
    FUND_MANAGER_CONTRACT,
    MARKET_COMPLIANCE_CONTRACT,
    PAYMENT_CONTRACT,
    PEST_ANALYSIS_CONTRACT,
    STOCK_MARKET_CONTRACT,
    STOCK_NOTIFICATION_CONTRACT,
    STOCK_REGISTRY_CONTRACT,
)
from repro.casestudies.stocktrading.deployment import (
    ORDER_PROFILES,
    TradingDeployment,
    build_trading_deployment,
)
from repro.casestudies.stocktrading.policies import (
    compliance_removal_policy_document,
    credit_rating_policy_document,
    currency_conversion_policy_document,
    customization_policy_documents,
    pest_analysis_policy_document,
)
from repro.casestudies.stocktrading.process import (
    TRADING_ANCHORS,
    build_trading_process,
    build_trading_saga_process,
)
from repro.casestudies.stocktrading.services import (
    CreditRatingService,
    CurrencyConversionService,
    DEFAULT_STOCKS,
    FinancialAnalysisService,
    FundManagerService,
    MarketComplianceService,
    PaymentService,
    PESTAnalysisService,
    StockMarketService,
    StockNotificationService,
    StockRegistryService,
)

__all__ = [
    "CREDIT_RATING_CONTRACT",
    "CURRENCY_CONVERSION_CONTRACT",
    "CreditRatingService",
    "CurrencyConversionService",
    "DEFAULT_STOCKS",
    "FINANCIAL_ANALYSIS_CONTRACT",
    "FUND_MANAGER_CONTRACT",
    "FinancialAnalysisService",
    "FundManagerService",
    "MARKET_COMPLIANCE_CONTRACT",
    "MarketComplianceService",
    "ORDER_PROFILES",
    "PAYMENT_CONTRACT",
    "PEST_ANALYSIS_CONTRACT",
    "PESTAnalysisService",
    "PaymentService",
    "STOCK_MARKET_CONTRACT",
    "STOCK_NOTIFICATION_CONTRACT",
    "STOCK_REGISTRY_CONTRACT",
    "StockMarketService",
    "StockNotificationService",
    "StockRegistryService",
    "TRADING_ANCHORS",
    "TradingDeployment",
    "build_trading_deployment",
    "build_trading_process",
    "build_trading_saga_process",
    "compliance_removal_policy_document",
    "credit_rating_policy_document",
    "currency_conversion_policy_document",
    "customization_policy_documents",
    "pest_analysis_policy_document",
]
