"""The base (national) Trading Process.

"The base Trading Process is initiated when a human investor places an
investment or redemption order with their FundManagerService. The latter,
after verifying the order, invokes the FinancialAnalysisService to get a
recommendation... The FundManagerService makes a decision which stock to
buy/sell... Then, the FundManagerService sends the buying/selling request
to the StockMarketService."

The process carries **no** customization logic: currency conversion, PEST
analysis, credit rating and compliance removal are all injected/removed by
WS-Policy4MASC policies at runtime — the paper's headline separation of
concerns.
"""

from __future__ import annotations

from repro.orchestration import (
    Activity,
    Assign,
    CompensationScope,
    Expression,
    IfElse,
    Invoke,
    ProcessDefinition,
    Reply,
    Sequence,
    Throw,
)
from repro.soap import FaultCode

__all__ = ["TRADING_ANCHORS", "build_trading_process", "build_trading_saga_process"]

#: The activity names policies anchor to (kept stable as a public contract).
TRADING_ANCHORS = {
    "verify": "verify-order",
    "analysis": "get-analysis",
    "compliance": "market-compliance",
    "trade": "place-trade",
    "reply": "trade-result",
}

#: The order an instance places unless ``place_order`` says otherwise.
_ORDER = {
    "investor_id": "investor-1",
    "order_type": "invest",
    "amount": 5000.0,
    "country": "AU",
    "currency": "AUD",
    "profile": "personal",
}


def _trade(market: str, name: str, side: str, extract: dict[str, str]) -> Invoke:
    """A ``placeTrade`` of the sized quantity on the ``side`` expression."""
    return Invoke(
        name,
        operation="placeTrade",
        to=market,
        inputs={
            "orderId": "$order_id",
            "symbol": "$symbol",
            # Declarative (serializable) buy/sell decision: keeps the
            # process fully dehydratable for crash recovery.
            "side": Expression(side),
            "quantity": "$quantity",
            "limitPrice": "$price",
        },
        extract=extract,
        timeout_seconds=20.0,
    )


def _transfer(payment: str, name: str, source: str, target: str, settled: str) -> Invoke:
    """Move the order amount from ``source`` to ``target``."""
    return Invoke(
        name,
        operation="transferFunds",
        to=payment,
        inputs={
            "tradeId": "$order_id",
            "amount": "$amount",
            "fromParty": source,
            "toParty": target,
        },
        extract={settled: "settled"},
        timeout_seconds=10.0,
    )


def _trading(
    fund_manager: str,
    analysis: str,
    market: str,
    before_trade: tuple[Activity, ...],
    after_trade: tuple[Activity, ...] = (),
) -> list[Activity]:
    """The trading flow: verify, analyse, size, ``before_trade``, trade,
    ``after_trade``, reply."""
    return [
        Invoke(
            TRADING_ANCHORS["verify"],
            operation="placeOrder",
            to=fund_manager,
            inputs={
                "investorId": "$investor_id",
                "orderType": "$order_type",
                "amount": "$amount",
                "country": "$country",
                "profile": "$profile",
            },
            extract={"order_id": "orderId", "order_status": "status"},
            timeout_seconds=15.0,
        ),
        Invoke(
            TRADING_ANCHORS["analysis"],
            operation="getRecommendation",
            to=analysis,
            inputs={
                "orderType": "$order_type",
                "amount": "$amount",
                "country": "$country",
            },
            extract={"symbol": "symbol", "score": "score", "price": "price"},
            timeout_seconds=15.0,
        ),
        # Trade sizing: how many shares the requested amount buys. The
        # default quantity of 1 guards against a zero price.
        Assign(
            "size-trade",
            "quantity",
            expression="max(1, int(amount / price)) if price > 0 else 1",
        ),
        *before_trade,
        _trade(
            market,
            TRADING_ANCHORS["trade"],
            "'buy' if order_type == 'invest' else 'sell'",
            {"trade_id": "tradeId", "trade_status": "status"},
        ),
        *after_trade,
        Reply(TRADING_ANCHORS["reply"], variable="trade_status"),
    ]


def build_trading_process(
    fund_manager_address: str,
    analysis_address: str,
    compliance_address: str,
    market_address: str,
) -> ProcessDefinition:
    """The base national-trading composition.

    Targets are concrete addresses or VEP addresses — the process does not
    care which (that is wsBus's virtualization at work).
    """
    compliance = Invoke(
        TRADING_ANCHORS["compliance"],
        operation="verify",
        to=compliance_address,
        inputs={"orderId": "$order_id", "amount": "$amount"},
        extract={"compliant": "compliant"},
        timeout_seconds=15.0,
    )
    root = Sequence(
        "trading-main",
        _trading(fund_manager_address, analysis_address, market_address, (compliance,)),
    )
    return ProcessDefinition("trading-process", root, initial_variables=dict(_ORDER))


def build_trading_saga_process(
    fund_manager_address: str,
    analysis_address: str,
    market_address: str,
    payment_address: str,
    abort: bool = False,
) -> ProcessDefinition:
    """The trading composition as an unwind-position saga.

    Same flow as :func:`build_trading_process`, with ``reserve-funds`` in
    place of the compliance check and an abort gate after the trade.
    ``reserve-funds`` moves the investment amount from the investor to the
    broker and is undone by ``release-funds`` (the same transfer with the
    parties flipped); ``place-trade`` is undone by ``unwind-trade`` (the
    same trade with the side flipped). With ``abort=True`` a gate throws
    after the trade, the saga unwinds LIFO (unwind the position, then
    release the funds) and the catch-all handler replies ``unwound``.
    """
    reserve = _transfer(
        payment_address, "reserve-funds", "$investor_id", "broker", "funds_reserved"
    )
    gate = IfElse(
        "abort-gate",
        "abort == 'true'",
        then=Throw("abort-trade", FaultCode.SERVER, "position abandoned after trade"),
    )
    body = _trading(fund_manager_address, analysis_address, market_address, (reserve,), (gate,))
    root = CompensationScope(
        "trade-saga",
        Sequence("trading-saga-main", body),
        compensations={
            "reserve-funds": _transfer(
                payment_address, "release-funds", "broker", "$investor_id", "funds_released"
            ),
            TRADING_ANCHORS["trade"]: _trade(
                market_address,
                "unwind-trade",
                "'sell' if order_type == 'invest' else 'buy'",
                {"unwind_trade_id": "tradeId", "unwind_status": "status"},
            ),
        },
        fault_handlers={
            None: Sequence(
                "unwind-flow",
                [
                    Assign("mark-unwound", "trade_status", value="unwound"),
                    Reply("unwound-result", variable="trade_status"),
                ],
            )
        },
    )
    return ProcessDefinition(
        "trading-saga",
        root,
        initial_variables={**_ORDER, "abort": "true" if abort else "false"},
    )
