"""The SCM composition as an orchestrated process (Figure 4).

A client-side composition of the SCM use case: fetch the catalog, submit
the order, and read back the tracked events — the flow the WS-I sample
application drives through its Web client. Running it on the workflow
engine exercises the full stack: orchestration → (optionally wsBus) →
services.
"""

from __future__ import annotations

from repro.orchestration import (
    Activity,
    Assign,
    CompensationScope,
    IfElse,
    Invoke,
    ProcessDefinition,
    Reply,
    Sequence,
    Throw,
)
from repro.soap import FaultCode

__all__ = ["build_scm_process", "build_scm_saga_process"]

#: The one order every purchase instance places.
_ORDER = {"order_id": "order-0001", "order_items": "TVx1,DVDx2", "customer_id": "customer-1"}


def _purchase(
    retailer: str, logging: str, saga_steps: tuple[Activity, ...] = ()
) -> list[Activity]:
    """The purchase flow, with ``saga_steps`` between ordering and tracking."""
    return [
        Invoke(
            "get-catalog",
            operation="getCatalog",
            to=retailer,
            inputs={},
            output_variable="catalog_response",
            extract={"catalog": "catalog", "item_count": "itemCount"},
            timeout_seconds=15.0,
        ),
        Invoke(
            "submit-order",
            operation="submitOrder",
            to=retailer,
            inputs={
                "orderId": "$order_id",
                "items": "$order_items",
                "customerId": "$customer_id",
            },
            output_variable="order_response",
            extract={"order_status": "status", "shipped_from": "shippedFrom"},
            timeout_seconds=20.0,
        ),
        *saga_steps,
        Invoke(
            "track-order",
            operation="getEvents",
            to=logging,
            inputs={},
            output_variable="events_response",
            extract={"event_count": "count"},
            timeout_seconds=10.0,
        ),
        Reply("order-result", variable="order_status"),
    ]


def build_scm_process(retailer_address: str, logging_address: str) -> ProcessDefinition:
    """The purchase composition against a concrete (or VEP) retailer."""
    root = Sequence("scm-main", _purchase(retailer_address, logging_address))
    return ProcessDefinition("scm-purchase", root, initial_variables=dict(_ORDER))


def build_scm_saga_process(
    retailer_address: str, logging_address: str, abort: bool = False
) -> ProcessDefinition:
    """The purchase composition as a saga (cancel-order compensation).

    Same flow as :func:`build_scm_process` with payment collection added,
    wrapped in a :class:`CompensationScope`: ``submit-order`` is undone by
    ``cancel-order`` (the retailer restocks the exact warehouses that
    shipped) and ``collect-payment`` by ``refund-payment``. With
    ``abort=True`` a gate throws after payment, so the engine unwinds the
    registered chain LIFO (refund, then cancel) and the catch-all handler
    replies ``aborted`` — the instance still *completes*.
    """
    payment = (
        Invoke(
            "collect-payment",
            operation="collectPayment",
            to=retailer_address,
            inputs={
                "orderId": "$order_id",
                "customerId": "$customer_id",
                "amount": "$amount",
            },
            extract={"payment_id": "paymentId", "payment_status": "status"},
            timeout_seconds=10.0,
        ),
        IfElse(
            "abort-gate",
            "abort == 'true'",
            then=Throw("abort-order", FaultCode.SERVER, "purchase aborted after payment"),
        ),
    )
    root = CompensationScope(
        "purchase-saga",
        Sequence("saga-main", _purchase(retailer_address, logging_address, payment)),
        compensations={
            "submit-order": Invoke(
                "cancel-order",
                operation="cancelOrder",
                to=retailer_address,
                inputs={"orderId": "$order_id"},
                extract={"cancel_status": "status"},
                timeout_seconds=10.0,
            ),
            "collect-payment": Invoke(
                "refund-payment",
                operation="refundPayment",
                to=retailer_address,
                inputs={"paymentId": "$payment_id"},
                extract={"refund_status": "status"},
                timeout_seconds=10.0,
            ),
        },
        fault_handlers={
            None: Sequence(
                "abort-flow",
                [
                    Assign("mark-aborted", "order_status", value="aborted"),
                    Reply("aborted-result", variable="order_status"),
                ],
            )
        },
    )
    return ProcessDefinition(
        "scm-purchase-saga",
        root,
        initial_variables={
            **_ORDER,
            "amount": 1697.0,
            "abort": "true" if abort else "false",
        },
    )
