"""SCM service implementations."""

from __future__ import annotations

from collections.abc import Generator

from repro.casestudies.scm.contracts import (
    CONFIGURATION_CONTRACT,
    LOGGING_CONTRACT,
    MANUFACTURER_CONTRACT,
    RETAILER_CONTRACT,
    WAREHOUSE_CONTRACT,
)
from repro.services import ServiceRegistry, SimulatedService
from repro.soap import FaultCode, SoapFault, SoapFaultError
from repro.xmlutils import Element

__all__ = [
    "ConfigurationService",
    "DEFAULT_CATALOG",
    "LoggingFacilityService",
    "ManufacturerService",
    "RetailerService",
    "WarehouseService",
    "parse_order_items",
]

#: Electronic goods sold by the sample application (product -> unit price).
DEFAULT_CATALOG: dict[str, float] = {
    "TV": 1299.0,
    "DVD": 199.0,
    "Camcorder": 899.0,
    "Receiver": 499.0,
    "Speakers": 249.0,
    "Projector": 1899.0,
    "Console": 599.0,
    "Headphones": 149.0,
    "Soundbar": 329.0,
    "Turntable": 279.0,
}


def parse_order_items(items_text: str) -> list[tuple[str, int]]:
    """Parse the order line format ``ProductxQty,ProductxQty``."""
    items: list[tuple[str, int]] = []
    for item in items_text.split(","):
        item = item.strip()
        if not item:
            continue
        product, _, quantity = item.rpartition("x")
        if not product:
            raise SoapFaultError(
                SoapFault(FaultCode.CLIENT, f"malformed order item {item!r}")
            )
        items.append((product, int(quantity)))
    return items


class LoggingFacilityService(SimulatedService):
    """The Logging Facility: participants log events, customers track them."""

    contract = LOGGING_CONTRACT

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.events: list[tuple[float, str, str]] = []

    def op_logEvent(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        source = payload.child_text("source", "") or ""
        event = payload.child_text("event", "") or ""
        self.events.append((self.env.now, source, event))
        return LOGGING_CONTRACT.operation("logEvent").output.build(logged=True)

    def op_getEvents(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        source = payload.child_text("source")
        matching = [
            f"{time:.3f}:{src}:{event}"
            for time, src, event in self.events
            if source is None or src == source
        ]
        return LOGGING_CONTRACT.operation("getEvents").output.build(
            events=";".join(matching[-50:]), count=len(matching)
        )


class ManufacturerService(SimulatedService):
    """A manufacturer accepting purchase orders to replenish a warehouse."""

    contract = MANUFACTURER_CONTRACT

    def __init__(self, *args, lead_time_seconds: float = 5.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.lead_time_seconds = lead_time_seconds
        self.orders_accepted = 0

    def op_submitPO(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        self.orders_accepted += 1
        return MANUFACTURER_CONTRACT.operation("submitPO").output.build(
            accepted=True, leadTime=self.lead_time_seconds
        )


class WarehouseService(SimulatedService):
    """A warehouse shipping goods and restocking from its manufacturer.

    "When an item in a Warehouse stock falls below a certain threshold, the
    Warehouse must restock the item from the Manufacturer's inventory."
    Restocking is asynchronous: the PO is submitted inline, stock arrives
    after the manufacturer's lead time.
    """

    contract = WAREHOUSE_CONTRACT

    def __init__(
        self,
        *args,
        manufacturer_address: str | None = None,
        initial_stock: int = 50,
        restock_threshold: int = 10,
        restock_quantity: int = 50,
        catalog: dict[str, float] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.manufacturer_address = manufacturer_address
        self.restock_threshold = restock_threshold
        self.restock_quantity = restock_quantity
        self.stock: dict[str, int] = {
            product: initial_stock for product in (catalog or DEFAULT_CATALOG)
        }
        self._restocking: set[str] = set()
        self.shipments = 0
        self.stockouts = 0
        self.returns = 0

    def op_checkStock(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        product = payload.child_text("product", "") or ""
        return WAREHOUSE_CONTRACT.operation("checkStock").output.build(
            product=product, level=self.stock.get(product, 0)
        )

    def op_restock(self, payload: Element, ctx) -> Generator:
        """Return previously shipped goods to stock (saga compensation)."""
        yield ctx.work()
        product = payload.child_text("product", "") or ""
        quantity = int(payload.child_text("quantity", "0") or 0)
        if quantity <= 0:
            raise SoapFaultError(
                SoapFault(FaultCode.CLIENT, f"invalid quantity {quantity}")
            )
        self.stock[product] = self.stock.get(product, 0) + quantity
        self.returns += 1
        return WAREHOUSE_CONTRACT.operation("restock").output.build(
            product=product, level=self.stock[product]
        )

    def op_shipGoods(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        product = payload.child_text("product", "") or ""
        quantity = int(payload.child_text("quantity", "0") or 0)
        if quantity <= 0:
            raise SoapFaultError(
                SoapFault(FaultCode.CLIENT, f"invalid quantity {quantity}")
            )
        available = self.stock.get(product, 0)
        if available < quantity:
            self.stockouts += 1
            response = WAREHOUSE_CONTRACT.operation("shipGoods").output.build(
                shipped=False, warehouse=self.name
            )
        else:
            self.stock[product] = available - quantity
            self.shipments += 1
            response = WAREHOUSE_CONTRACT.operation("shipGoods").output.build(
                shipped=True, warehouse=self.name
            )
        if (
            self.stock.get(product, 0) < self.restock_threshold
            and product not in self._restocking
            and self.manufacturer_address is not None
        ):
            self._restocking.add(product)
            self.env.process(self._restock(product), name=f"restock:{self.name}:{product}")
        return response

    def _restock(self, product: str) -> Generator:
        """Submit a PO and receive the goods after the lead time."""
        try:
            request = MANUFACTURER_CONTRACT.operation("submitPO").input.build(
                product=product, quantity=self.restock_quantity
            )
            response = yield from self.invoker.invoke(
                self.manufacturer_address, "submitPO", request, timeout=10.0
            )
            lead_time = float(response.body.child_text("leadTime", "5.0") or 5.0)
            yield lead_time
            self.stock[product] = self.stock.get(product, 0) + self.restock_quantity
        except SoapFaultError:
            pass  # manufacturer unavailable: stock stays low until next trigger
        finally:
            self._restocking.discard(product)


class RetailerService(SimulatedService):
    """A retailer fulfilling orders with warehouse fall-through A→B→C."""

    contract = RETAILER_CONTRACT

    def __init__(
        self,
        *args,
        warehouse_addresses: list[str] | None = None,
        logging_address: str | None = None,
        catalog: dict[str, float] | None = None,
        log_events: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.warehouse_addresses = list(warehouse_addresses or ())
        self.logging_address = logging_address
        self.catalog = dict(catalog or DEFAULT_CATALOG)
        #: Rendered catalog reply text, rebuilt only when the catalog changes
        #: (every getCatalog reply is the same string otherwise).
        self._catalog_text: str | None = None
        self._catalog_text_source: dict[str, float] | None = None
        self.log_events = log_events
        self.orders_fulfilled = 0
        self.orders_rejected = 0
        self.orders_cancelled = 0
        self.payments_refunded = 0
        #: Fulfilled-but-cancellable orders:
        #: orderId -> [(product, quantity, warehouse address), ...].
        self.open_orders: dict[str, list[tuple[str, int, str]]] = {}
        #: Collected payments: paymentId -> (customerId, amount).
        self.payments: dict[str, tuple[str, float]] = {}

    def _log(self, event: str) -> Generator:
        """Log a business event; logging failures never fail the use case."""
        if not self.log_events or self.logging_address is None:
            return
        try:
            request = LOGGING_CONTRACT.operation("logEvent").input.build(
                source=self.name, event=event
            )
            yield from self.invoker.invoke(
                self.logging_address, "logEvent", request, timeout=5.0
            )
        except SoapFaultError:
            pass

    def op_getCatalog(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        yield from self._log("getCatalog")
        catalog_text = self._catalog_text
        if catalog_text is None or self._catalog_text_source != self.catalog:
            catalog_text = ";".join(
                f"{product}:{price:.2f}" for product, price in sorted(self.catalog.items())
            )
            self._catalog_text = catalog_text
            self._catalog_text_source = dict(self.catalog)
        return RETAILER_CONTRACT.operation("getCatalog").output.build_interned(
            catalog=catalog_text, itemCount=len(self.catalog)
        )

    def op_submitOrder(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        order_id = payload.child_text("orderId", "") or ""
        items = parse_order_items(payload.child_text("items", "") or "")
        if not items:
            raise SoapFaultError(SoapFault(FaultCode.CLIENT, "order has no items"))
        shipped_from: list[str] = []
        reservations: list[tuple[str, int, str]] = []
        for product, quantity in items:
            if product not in self.catalog:
                raise SoapFaultError(
                    SoapFault(FaultCode.CLIENT, f"unknown product {product!r}")
                )
            fulfilled = yield from self._fulfil(product, quantity)
            if fulfilled is None:
                self.orders_rejected += 1
                yield from self._log(f"submitOrder:{order_id}:rejected")
                return RETAILER_CONTRACT.operation("submitOrder").output.build(
                    orderId=order_id, status="rejected", shippedFrom="none"
                )
            warehouse, address = fulfilled
            shipped_from.append(warehouse)
            reservations.append((product, quantity, address))
        self.orders_fulfilled += 1
        self.open_orders[order_id] = reservations
        yield from self._log(f"submitOrder:{order_id}:fulfilled")
        return RETAILER_CONTRACT.operation("submitOrder").output.build(
            orderId=order_id, status="fulfilled", shippedFrom=",".join(shipped_from)
        )

    def op_cancelOrder(self, payload: Element, ctx) -> Generator:
        """Saga compensation for submitOrder: reverse the reservations."""
        yield ctx.work()
        order_id = payload.child_text("orderId", "") or ""
        reservations = self.open_orders.pop(order_id, None)
        if reservations is None:
            return RETAILER_CONTRACT.operation("cancelOrder").output.build(
                orderId=order_id, status="unknown"
            )
        for product, quantity, address in reservations:
            request = WAREHOUSE_CONTRACT.operation("restock").input.build(
                product=product, quantity=quantity
            )
            try:
                yield from self.invoker.invoke(address, "restock", request, timeout=10.0)
            except SoapFaultError:
                pass  # warehouse unreachable: the goods are written off
        self.orders_cancelled += 1
        yield from self._log(f"cancelOrder:{order_id}:cancelled")
        return RETAILER_CONTRACT.operation("cancelOrder").output.build(
            orderId=order_id, status="cancelled"
        )

    def op_collectPayment(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        order_id = payload.child_text("orderId", "") or ""
        customer_id = payload.child_text("customerId", "") or ""
        amount = float(payload.child_text("amount", "0") or 0.0)
        payment_id = f"pay-{order_id}"
        self.payments[payment_id] = (customer_id, amount)
        yield from self._log(f"collectPayment:{payment_id}:collected")
        return RETAILER_CONTRACT.operation("collectPayment").output.build(
            paymentId=payment_id, status="collected"
        )

    def op_refundPayment(self, payload: Element, ctx) -> Generator:
        """Saga compensation for collectPayment."""
        yield ctx.work()
        payment_id = payload.child_text("paymentId", "") or ""
        if self.payments.pop(payment_id, None) is None:
            return RETAILER_CONTRACT.operation("refundPayment").output.build(
                paymentId=payment_id, status="unknown"
            )
        self.payments_refunded += 1
        yield from self._log(f"refundPayment:{payment_id}:refunded")
        return RETAILER_CONTRACT.operation("refundPayment").output.build(
            paymentId=payment_id, status="refunded"
        )

    def _fulfil(self, product: str, quantity: int) -> Generator:
        """Warehouse fall-through: first warehouse that can ship wins.

        Returns ``(warehouse name, warehouse address)`` — the address is
        kept with the reservation so a cancelOrder can restock the exact
        warehouse that shipped.
        """
        request = WAREHOUSE_CONTRACT.operation("shipGoods").input.build(
            product=product, quantity=quantity
        )
        for address in self.warehouse_addresses:
            try:
                response = yield from self.invoker.invoke(
                    address, "shipGoods", request.copy(), timeout=10.0
                )
            except SoapFaultError:
                continue  # warehouse unreachable: fall through to the next
            if (response.body.child_text("shipped") or "") == "true":
                return (response.body.child_text("warehouse"), address)
        return None


class ConfigurationService(SimulatedService):
    """Lists registered implementations of each service type (UDDI front)."""

    contract = CONFIGURATION_CONTRACT

    def __init__(self, *args, registry: ServiceRegistry | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.registry = registry

    def op_getImplementations(self, payload: Element, ctx) -> Generator:
        yield ctx.work()
        service_type = payload.child_text("serviceType", "") or ""
        records = self.registry.find(service_type) if self.registry is not None else []
        return CONFIGURATION_CONTRACT.operation("getImplementations").output.build(
            addresses=",".join(record.address for record in records),
            count=len(records),
        )
