"""Stock trading service implementations.

Business logic follows the paper's description, including its simplicity
disclaimers: "for our prototype, we used very simple models" for the
financial analysis, and "this decision is very simple, e.g., buy one best
stock" for the fund manager. The StockMarketService "performs a simple
trade matching between the buy orders and the sell orders. When a trade
match is formed, the StockMarketService invokes **in parallel** the
StockRegistryService to transfer the stock share ownership and the
PaymentService to transfer funds."
"""

from __future__ import annotations

import itertools
from collections.abc import Generator
from dataclasses import dataclass

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
from repro.services import SimulatedService
from repro.simulation import AllOf
from repro.soap import FaultCode, SoapFault, SoapFaultError
from repro.xmlutils import Element

__all__ = [
    "CreditRatingService",
    "CurrencyConversionService",
    "DEFAULT_STOCKS",
    "FinancialAnalysisService",
    "FundManagerService",
    "MarketComplianceService",
    "PaymentService",
    "PESTAnalysisService",
    "StockMarketService",
    "StockNotificationService",
    "StockRegistryService",
]

#: Listed stocks and their base prices.
DEFAULT_STOCKS: dict[str, float] = {
    "ACME": 42.0,
    "GLOBEX": 87.5,
    "INITECH": 15.25,
    "UMBRELLA": 120.0,
    "WAYNE": 250.0,
    "STARK": 310.0,
    "TYRELL": 64.0,
    "WONKA": 28.5,
}


class StockNotificationService(SimulatedService):
    """Publishes periodic stock-value notifications to subscribers.

    "The FinancialAnalysisService gets periodic notifications from the
    StockNotificationService about the current stock values and real-time
    market surveillance."
    """

    contract = STOCK_NOTIFICATION_CONTRACT

    def __init__(
        self,
        *args,
        stocks: dict[str, float] | None = None,
        notification_interval: float = 30.0,
        volatility: float = 0.02,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.prices: dict[str, float] = dict(stocks or DEFAULT_STOCKS)
        self.notification_interval = notification_interval
        self.volatility = volatility
        self.subscribers: list[str] = []
        self.notifications_sent = 0
        self._publisher_started = False

    def start_publishing(self) -> None:
        """Begin the periodic notification cycle (idempotent)."""
        if not self._publisher_started:
            self._publisher_started = True
            self.env.process(self._publish_cycle(), name=f"{self.name}:publisher")

    def _publish_cycle(self) -> Generator:
        while True:
            yield self.notification_interval
            self._move_prices()
            quotes = ";".join(f"{s}:{p:.2f}" for s, p in sorted(self.prices.items()))
            request = FINANCIAL_ANALYSIS_CONTRACT.operation("updateQuotes").input.build(
                quotes=quotes
            )
            for address in list(self.subscribers):
                try:
                    yield from self.invoker.invoke(
                        address, "updateQuotes", request.copy(), timeout=5.0
                    )
                    self.notifications_sent += 1
                except SoapFaultError:
                    pass  # subscriber unreachable; next cycle retries

    def _move_prices(self) -> None:
        rng = self.rng
        for symbol in self.prices:
            drift = rng.uniform(-self.volatility, self.volatility)
            self.prices[symbol] = max(0.01, self.prices[symbol] * (1.0 + drift))

    def op_getQuote(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        symbol = payload.child_text("symbol", "") or ""
        if symbol not in self.prices:
            raise SoapFaultError(
                SoapFault(FaultCode.SERVICE_FAILURE, f"unknown symbol {symbol!r}")
            )
        return STOCK_NOTIFICATION_CONTRACT.operation("getQuote").output.build(
            symbol=symbol, price=round(self.prices[symbol], 2)
        )

    def op_subscribe(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        address = payload.child_text("address", "") or ""
        if address and address not in self.subscribers:
            self.subscribers.append(address)
        return STOCK_NOTIFICATION_CONTRACT.operation("subscribe").output.build(
            subscribed=True
        )


class FinancialAnalysisService(SimulatedService):
    """Recommends stocks from quotes, history, and a simple model."""

    contract = FINANCIAL_ANALYSIS_CONTRACT

    def __init__(self, *args, stocks: dict[str, float] | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.quotes: dict[str, float] = dict(stocks or DEFAULT_STOCKS)
        self.history: dict[str, list[float]] = {s: [p] for s, p in self.quotes.items()}

    def op_updateQuotes(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        text = payload.child_text("quotes", "") or ""
        for quote in text.split(";"):
            symbol, _, price = quote.partition(":")
            if symbol and price:
                value = float(price)
                self.quotes[symbol] = value
                self.history.setdefault(symbol, []).append(value)
        return FINANCIAL_ANALYSIS_CONTRACT.operation("updateQuotes").output.build(
            accepted=True
        )

    def _momentum(self, symbol: str) -> float:
        """The 'very simple predictive model': short-horizon momentum."""
        series = self.history.get(symbol, [])
        if len(series) < 2:
            return 0.0
        window = series[-5:]
        return (window[-1] - window[0]) / window[0] if window[0] else 0.0

    def op_getRecommendation(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        order_type = payload.child_text("orderType", "invest") or "invest"
        scored = sorted(
            ((self._momentum(symbol), symbol) for symbol in self.quotes),
            reverse=(order_type == "invest"),
        )
        if not scored:
            raise SoapFaultError(
                SoapFault(FaultCode.SERVICE_FAILURE, "no market data available")
            )
        score, symbol = scored[0]
        return FINANCIAL_ANALYSIS_CONTRACT.operation("getRecommendation").output.build(
            symbol=symbol, score=round(score, 6), price=round(self.quotes[symbol], 2)
        )


@dataclass
class _BookOrder:
    trade_id: str
    symbol: str
    side: str
    quantity: int
    limit_price: float


class StockMarketService(SimulatedService):
    """Order book with simple matching and parallel settlement."""

    contract = STOCK_MARKET_CONTRACT

    def __init__(
        self,
        *args,
        registry_address: str | None = None,
        payment_address: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.registry_address = registry_address
        self.payment_address = payment_address
        self._ids = itertools.count(1)
        self.book: list[_BookOrder] = []
        self.trades_matched = 0
        self.settlement_failures = 0

    def op_placeTrade(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        order = _BookOrder(
            trade_id=f"trade-{next(self._ids):06d}",
            symbol=payload.child_text("symbol", "") or "",
            side=payload.child_text("side", "buy") or "buy",
            quantity=int(payload.child_text("quantity", "0") or 0),
            limit_price=float(payload.child_text("limitPrice", "0") or 0),
        )
        if order.quantity <= 0:
            raise SoapFaultError(
                SoapFault(FaultCode.CLIENT, f"invalid quantity {order.quantity}")
            )
        match = self._match(order)
        if match is None:
            self.book.append(order)
            return STOCK_MARKET_CONTRACT.operation("placeTrade").output.build(
                tradeId=order.trade_id, status="queued"
            )
        self.book.remove(match)
        self.trades_matched += 1
        executed_price = (order.limit_price + match.limit_price) / 2.0
        yield from self._settle(order, match, executed_price)
        return STOCK_MARKET_CONTRACT.operation("placeTrade").output.build(
            tradeId=order.trade_id,
            status="matched",
            executedPrice=round(executed_price, 2),
        )

    def _match(self, order: _BookOrder) -> _BookOrder | None:
        """Price-compatible opposite-side order for the same symbol."""
        for resting in self.book:
            if resting.symbol != order.symbol or resting.side == order.side:
                continue
            buy, sell = (order, resting) if order.side == "buy" else (resting, order)
            if buy.limit_price >= sell.limit_price:
                return resting
        return None

    def _settle(
        self, order: _BookOrder, match: _BookOrder, executed_price: float
    ) -> Generator:
        """Invoke registry and payment **in parallel**."""
        if self.registry_address is None or self.payment_address is None:
            return
        buy = order if order.side == "buy" else match
        sell = match if order.side == "buy" else order
        transfer = STOCK_REGISTRY_CONTRACT.operation("transferOwnership").input.build(
            tradeId=order.trade_id,
            symbol=order.symbol,
            quantity=min(order.quantity, match.quantity),
            fromParty=sell.trade_id,
            toParty=buy.trade_id,
        )
        funds = PAYMENT_CONTRACT.operation("transferFunds").input.build(
            tradeId=order.trade_id,
            amount=round(executed_price * min(order.quantity, match.quantity), 2),
            fromParty=buy.trade_id,
            toParty=sell.trade_id,
        )
        registry_call = self.env.process(
            self.invoker.invoke(self.registry_address, "transferOwnership", transfer, timeout=10.0),
            name=f"{self.name}:registry",
        )
        payment_call = self.env.process(
            self.invoker.invoke(self.payment_address, "transferFunds", funds, timeout=10.0),
            name=f"{self.name}:payment",
        )
        try:
            yield AllOf(self.env, [registry_call, payment_call])
        except SoapFaultError as error:
            self.settlement_failures += 1
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_FAILURE,
                    f"settlement failed for {order.trade_id}: {error.fault.reason}",
                )
            ) from error


class StockRegistryService(SimulatedService):
    contract = STOCK_REGISTRY_CONTRACT

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.transfers: list[str] = []

    def op_transferOwnership(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        self.transfers.append(payload.child_text("tradeId", "") or "")
        return STOCK_REGISTRY_CONTRACT.operation("transferOwnership").output.build(
            transferred=True
        )


class PaymentService(SimulatedService):
    contract = PAYMENT_CONTRACT

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.settled_amounts: list[float] = []

    def op_transferFunds(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        self.settled_amounts.append(float(payload.child_text("amount", "0") or 0))
        return PAYMENT_CONTRACT.operation("transferFunds").output.build(settled=True)


class FundManagerService(SimulatedService):
    """Front service verifying investor orders (the composition root)."""

    contract = FUND_MANAGER_CONTRACT

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ids = itertools.count(1)
        self.orders_verified = 0

    def op_placeOrder(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        amount = float(payload.child_text("amount", "0") or 0)
        if amount <= 0:
            raise SoapFaultError(
                SoapFault(FaultCode.CLIENT, f"invalid order amount {amount}")
            )
        order_type = payload.child_text("orderType", "") or ""
        if order_type not in ("invest", "redeem"):
            raise SoapFaultError(
                SoapFault(FaultCode.CLIENT, f"unknown order type {order_type!r}")
            )
        self.orders_verified += 1
        return FUND_MANAGER_CONTRACT.operation("placeOrder").output.build(
            orderId=f"order-{next(self._ids):06d}", status="verified", symbol=""
        )


# ---------------------------------------------------------------------------
# Variation services (added/removed by customization policies)
# ---------------------------------------------------------------------------


class CurrencyConversionService(SimulatedService):
    """Converts foreign stock prices to the local currency (CC_1, CC_2)."""

    contract = CURRENCY_CONVERSION_CONTRACT

    #: Exchange rates into AUD.
    RATES: dict[str, float] = {
        "AUD": 1.0,
        "USD": 1.52,
        "EUR": 1.64,
        "GBP": 1.91,
        "JPY": 0.0105,
        "SGD": 1.12,
    }

    def op_convert(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        amount = float(payload.child_text("amount", "0") or 0)
        from_currency = payload.child_text("fromCurrency", "AUD") or "AUD"
        to_currency = payload.child_text("toCurrency", "AUD") or "AUD"
        if from_currency not in self.RATES or to_currency not in self.RATES:
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_FAILURE,
                    f"unsupported currency pair {from_currency}->{to_currency}",
                )
            )
        rate = self.RATES[from_currency] / self.RATES[to_currency]
        return CURRENCY_CONVERSION_CONTRACT.operation("convert").output.build(
            converted=round(amount * rate, 2), rate=round(rate, 6)
        )


class PESTAnalysisService(SimulatedService):
    """Assesses political/economic/social/technological risk by country."""

    contract = PEST_ANALYSIS_CONTRACT

    #: Per-country base risk (lower = safer); unknown countries score 0.6.
    COUNTRY_RISK: dict[str, float] = {
        "AU": 0.10,
        "US": 0.15,
        "GB": 0.18,
        "DE": 0.16,
        "JP": 0.17,
        "SG": 0.14,
        "BR": 0.45,
        "RU": 0.75,
    }

    def op_assess(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        country = payload.child_text("country", "") or ""
        base = self.COUNTRY_RISK.get(country, 0.6)
        rng = self.rng
        factors = {
            "political": min(1.0, base * rng.uniform(0.8, 1.2)),
            "economic": min(1.0, base * rng.uniform(0.8, 1.2)),
            "social": min(1.0, base * rng.uniform(0.7, 1.1)),
            "technological": min(1.0, base * rng.uniform(0.6, 1.0)),
        }
        overall = sum(factors.values()) / len(factors)
        return PEST_ANALYSIS_CONTRACT.operation("assess").output.build(
            political=round(factors["political"], 3),
            economic=round(factors["economic"], 3),
            social=round(factors["social"], 3),
            technological=round(factors["technological"], 3),
            overallRisk=round(overall, 3),
        )


class CreditRatingService(SimulatedService):
    """Checks investor creditworthiness before large trades (CR_1, CR_2)."""

    contract = CREDIT_RATING_CONTRACT

    RATINGS = ("AAA", "AA", "A", "BBB", "BB", "B")

    def op_check(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        investor = payload.child_text("investorId", "") or ""
        amount = float(payload.child_text("amount", "0") or 0)
        # Deterministic per investor: hash to a rating bucket.
        bucket = sum(ord(ch) for ch in investor) % len(self.RATINGS)
        rating = self.RATINGS[bucket]
        approved = bucket <= 3 or amount < 50_000
        return CREDIT_RATING_CONTRACT.operation("check").output.build(
            rating=rating, approved=approved
        )


class MarketComplianceService(SimulatedService):
    """Verifies large trades against market-compliance rules."""

    contract = MARKET_COMPLIANCE_CONTRACT

    def __init__(self, *args, rejection_threshold: float = 10_000_000.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rejection_threshold = rejection_threshold
        self.checks_performed = 0

    def op_verify(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        self.checks_performed += 1
        amount = float(payload.child_text("amount", "0") or 0)
        return MARKET_COMPLIANCE_CONTRACT.operation("verify").output.build(
            compliant=amount < self.rejection_threshold
        )
