"""Tests for the WS-I SCM case study: services, deployment, workload."""

import pytest

from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    STORM_FAULTS,
    WAREHOUSE_CONTRACT,
    build_scm_deployment,
    build_scm_process,
)
from repro.casestudies.scm.services import DEFAULT_CATALOG, parse_order_items
from repro.experiments import fault_storm, run
from repro.faultinjection import EndpointFault
from repro.orchestration import TrackingService, WorkflowEngine
from repro.services import Invoker
from repro.soap import SoapFaultError
from repro.workload import RequestPlan, WorkloadRunner


@pytest.fixture
def scm():
    return build_scm_deployment(seed=7, log_events=True)


def invoke(deployment, address, operation, payload, timeout=30.0):
    invoker = Invoker(deployment.env, deployment.network, caller="test-client")

    def client():
        response = yield from invoker.invoke(address, operation, payload, timeout=timeout)
        return response

    return deployment.env.run(deployment.env.process(client()))


class TestOrderParsing:
    def test_parse_items(self):
        assert parse_order_items("TVx1,DVDx2") == [("TV", 1), ("DVD", 2)]

    def test_parse_tolerates_spaces(self):
        assert parse_order_items(" TVx1 , DVDx2 ") == [("TV", 1), ("DVD", 2)]

    def test_malformed_item_faults(self):
        with pytest.raises(SoapFaultError):
            parse_order_items("garbage")


class TestRetailer:
    def test_get_catalog_lists_products(self, scm):
        response = invoke(
            scm,
            scm.retailers["A"].address,
            "getCatalog",
            RETAILER_CONTRACT.operation("getCatalog").input.build(),
        )
        assert int(response.body.child_text("itemCount")) == len(DEFAULT_CATALOG)
        assert "TV" in response.body.child_text("catalog")

    def test_submit_order_fulfils_from_warehouse_a(self, scm):
        response = invoke(
            scm,
            scm.retailers["A"].address,
            "submitOrder",
            RETAILER_CONTRACT.operation("submitOrder").input.build(
                orderId="o-1", items="TVx1", customerId="c-1"
            ),
        )
        assert response.body.child_text("status") == "fulfilled"
        assert response.body.child_text("shippedFrom") == "WA"
        assert scm.warehouses["WA"].shipments == 1

    def test_warehouse_fall_through(self, scm):
        """WA empty -> WB ships (the A->B->C fall-through)."""
        scm.warehouses["WA"].stock["TV"] = 0
        response = invoke(
            scm,
            scm.retailers["A"].address,
            "submitOrder",
            RETAILER_CONTRACT.operation("submitOrder").input.build(
                orderId="o-2", items="TVx1", customerId="c-1"
            ),
        )
        assert response.body.child_text("shippedFrom") == "WB"
        assert scm.warehouses["WA"].stockouts == 1

    def test_fall_through_skips_unavailable_warehouse(self, scm):
        scm.network.endpoint(scm.warehouses["WA"].address).available = False
        response = invoke(
            scm,
            scm.retailers["A"].address,
            "submitOrder",
            RETAILER_CONTRACT.operation("submitOrder").input.build(
                orderId="o-3", items="TVx1", customerId="c-1"
            ),
        )
        assert response.body.child_text("shippedFrom") == "WB"

    def test_order_rejected_when_all_warehouses_empty(self, scm):
        for warehouse in scm.warehouses.values():
            warehouse.stock["TV"] = 0
            warehouse.manufacturer_address = None  # no restocking
        response = invoke(
            scm,
            scm.retailers["A"].address,
            "submitOrder",
            RETAILER_CONTRACT.operation("submitOrder").input.build(
                orderId="o-4", items="TVx1", customerId="c-1"
            ),
        )
        assert response.body.child_text("status") == "rejected"
        assert scm.retailers["A"].orders_rejected == 1

    def test_unknown_product_faults(self, scm):
        with pytest.raises(SoapFaultError):
            invoke(
                scm,
                scm.retailers["A"].address,
                "submitOrder",
                RETAILER_CONTRACT.operation("submitOrder").input.build(
                    orderId="o-5", items="Unicornx1", customerId="c-1"
                ),
            )

    def test_multi_item_order(self, scm):
        response = invoke(
            scm,
            scm.retailers["B"].address,
            "submitOrder",
            RETAILER_CONTRACT.operation("submitOrder").input.build(
                orderId="o-6", items="TVx1,DVDx2,Speakersx1", customerId="c-2"
            ),
        )
        assert response.body.child_text("status") == "fulfilled"
        assert response.body.child_text("shippedFrom").count("WA") == 3

    def test_logging_failure_does_not_fail_order(self, scm):
        scm.network.endpoint(scm.logging.address).available = False
        response = invoke(
            scm,
            scm.retailers["A"].address,
            "getCatalog",
            RETAILER_CONTRACT.operation("getCatalog").input.build(),
            timeout=30.0,
        )
        assert response.body.child_text("catalog")


class TestWarehouseRestocking:
    def test_restock_triggered_below_threshold(self):
        scm = build_scm_deployment(seed=7, initial_stock=12, log_events=False)
        warehouse = scm.warehouses["WA"]
        warehouse.restock_threshold = 10
        warehouse.restock_quantity = 40
        invoke(
            scm,
            warehouse.address,
            "shipGoods",
            WAREHOUSE_CONTRACT.operation("shipGoods").input.build(product="TV", quantity=5),
        )
        assert warehouse.stock["TV"] == 7  # below threshold, restock pending
        scm.env.run(until=scm.env.now + 60.0)  # wait out manufacturer lead time
        assert warehouse.stock["TV"] == 47
        assert scm.manufacturers["A"].orders_accepted == 1

    def test_no_duplicate_restock_in_flight(self):
        scm = build_scm_deployment(seed=7, initial_stock=12, log_events=False)
        warehouse = scm.warehouses["WA"]
        warehouse.restock_threshold = 12
        for index in range(2):
            invoke(
                scm,
                warehouse.address,
                "shipGoods",
                WAREHOUSE_CONTRACT.operation("shipGoods").input.build(product="TV", quantity=1),
            )
        scm.env.run(until=scm.env.now + 60.0)
        assert scm.manufacturers["A"].orders_accepted == 1

    def test_check_stock(self, scm):
        response = invoke(
            scm,
            scm.warehouses["WB"].address,
            "checkStock",
            WAREHOUSE_CONTRACT.operation("checkStock").input.build(product="TV"),
        )
        assert int(response.body.child_text("level")) > 0


class TestLoggingAndConfiguration:
    def test_events_logged_and_tracked(self, scm):
        invoke(
            scm,
            scm.retailers["A"].address,
            "getCatalog",
            RETAILER_CONTRACT.operation("getCatalog").input.build(),
        )
        from repro.casestudies.scm import LOGGING_CONTRACT

        response = invoke(
            scm,
            scm.logging.address,
            "getEvents",
            LOGGING_CONTRACT.operation("getEvents").input.build(source="RetailerA"),
        )
        assert int(response.body.child_text("count")) >= 1

    def test_configuration_lists_implementations(self, scm):
        from repro.casestudies.scm import CONFIGURATION_CONTRACT

        response = invoke(
            scm,
            scm.configuration.address,
            "getImplementations",
            CONFIGURATION_CONTRACT.operation("getImplementations").input.build(
                serviceType="Retailer"
            ),
        )
        assert int(response.body.child_text("count")) == 4


class TestScmProcess:
    def test_purchase_composition_end_to_end(self, scm):
        engine = WorkflowEngine(scm.env, network=scm.network)
        tracking = engine.add_service(TrackingService())
        definition = build_scm_process(
            retailer_address=scm.retailers["C"].address,
            logging_address=scm.logging.address,
        )
        engine.register_definition(definition)
        instance = engine.start(definition)
        assert engine.run_to_completion(instance) == "fulfilled"
        names = tracking.executed_activity_names(instance.id)
        assert names.index("get-catalog") < names.index("submit-order") < names.index("track-order")
        assert instance.variables["item_count"] == len(DEFAULT_CATALOG)


class TestWorkload:
    def test_workload_collects_metrics(self, scm):
        plan = RequestPlan(
            target=scm.retailers["A"].address,
            operation="getCatalog",
            payload_factory=lambda c, i: RETAILER_CONTRACT.operation("getCatalog").input.build(),
            timeout=10.0,
        )
        result = WorkloadRunner(scm.env, scm.network).run(plan, clients=3, requests_per_client=20)
        assert len(result.records) == 60
        assert len(result.failures) == 0
        assert result.rtt_stats()["mean"] > 0
        assert result.throughput() > 0

    def test_padding_sweeps_request_size(self, scm):
        def plan(padding):
            return RequestPlan(
                target=scm.retailers["A"].address,
                operation="getCatalog",
                payload_factory=lambda c, i: RETAILER_CONTRACT.operation("getCatalog").input.build(),
                padding_bytes=padding,
            )

        runner = WorkloadRunner(scm.env, scm.network)
        small = runner.run(plan(0), clients=1, requests_per_client=20)
        large = runner.run(plan(64 * 1024), clients=1, requests_per_client=20)
        assert large.rtt_stats()["mean"] > small.rtt_stats()["mean"]

    def test_think_time_spreads_run(self, scm):
        plan = RequestPlan(
            target=scm.retailers["A"].address,
            operation="getCatalog",
            payload_factory=lambda c, i: RETAILER_CONTRACT.operation("getCatalog").input.build(),
            think_time_seconds=1.0,
        )
        result = WorkloadRunner(scm.env, scm.network).run(plan, clients=1, requests_per_client=10)
        assert result.duration >= 10.0


class TestFaultInjectionIntegration:
    def test_table1_mix_produces_failures(self):
        scm = build_scm_deployment(seed=13, log_events=False)
        scm.inject_table1_mix()
        plan = RequestPlan(
            target=scm.retailers["A"].address,
            operation="getCatalog",
            payload_factory=lambda c, i: RETAILER_CONTRACT.operation("getCatalog").input.build(),
            timeout=5.0,
            think_time_seconds=2.0,
        )
        result = WorkloadRunner(scm.env, scm.network).run(plan, clients=4, requests_per_client=100)
        assert len(result.failures) > 0
        scm.faults.finalize()
        log = scm.faults.logs[scm.retailers["A"].address]
        assert log.availability(scm.env.now) < 1.0

    def test_outage_holds_a_flapping_retailer_down(self):
        """An outage overlapping the storm's flaps keeps Retailer D down
        until the outage ends: a flap's own recovery must not end it early."""
        retailer_d = "http://scm/retailerD"
        available = {}

        def probe(bus):
            available[bus.env.now] = bus.network.endpoint(retailer_d).available

        outage = EndpointFault(retailer_d, 10.0, 20.0, cycles=1)
        scenario = fault_storm(
            7, resilience=False, faults=STORM_FAULTS + (outage,),
            tick_seconds=1.0, clients=1, requests=100,
        )
        run(scenario, on_tick=probe)
        # D flaps down at 15 s and up at 23 s, inside the outage [10, 30).
        assert [available[t] for t in (9.0, 11.0, 16.0, 24.0, 29.0, 31.0, 36.0)] == [
            True, False, False, False, False, True, False
        ]


class TestDegradationInjection:
    def test_degradations_inflate_rtt_or_time_out(self):
        scm = build_scm_deployment(seed=51, log_events=False)
        scm.faults.inject(
            EndpointFault(scm.retailers["B"].address, 130.0, 10.0, delay=8.0, random=True)
        )
        plan = RequestPlan(
            target=scm.retailers["B"].address,
            operation="getCatalog",
            payload_factory=lambda c, i: RETAILER_CONTRACT.operation("getCatalog").input.build(),
            timeout=5.0,
            think_time_seconds=2.0,
        )
        result = WorkloadRunner(scm.env, scm.network).run(
            plan, clients=4, requests_per_client=150
        )
        # The 8 s injected delay exceeds the 5 s client timeout, so
        # degradation episodes manifest as Timeout faults.
        from repro.soap import FaultCode

        assert any(r.fault_code is FaultCode.TIMEOUT for r in result.failures)


class TestPaddingVariable:
    def test_invoke_padding_from_variable(self):
        """Invoke.padding_variable inflates the request size from a
        process variable (used by request-size sweep compositions)."""
        from repro.orchestration import Invoke, ProcessDefinition, Reply, Sequence, WorkflowEngine

        scm = build_scm_deployment(seed=52, log_events=False)
        engine = WorkflowEngine(scm.env, network=scm.network)
        sizes = []
        engine.invoker.add_message_tap(
            lambda d, e, o, t: sizes.append(e.size_bytes) if d == "request" else None
        )
        definition = ProcessDefinition(
            "padded",
            Sequence(
                "main",
                [
                    Invoke(
                        "call",
                        operation="getCatalog",
                        to=scm.retailers["A"].address,
                        padding_variable="request_padding",
                        extract={"catalog": "catalog"},
                    ),
                    Reply("r", variable="catalog"),
                ],
            ),
            initial_variables={"request_padding": 32 * 1024},
        )
        instance = engine.start(definition)
        engine.run_to_completion(instance)
        assert sizes and sizes[0] >= 32 * 1024


def test_policy_file_loader_rejects_an_unknown_policy_or_field():
    """A builder is its committed file plus the fields its parameters set
    (every call shape is pinned by ``tests/golden/policy_xml/``)."""
    from repro.casestudies import load_policy_document
    from repro.policy import PolicyError

    package, saga = "repro.casestudies.scm.policies", "purchase-saga-compensate-on-budget-exhausted"
    with pytest.raises(PolicyError, match="no policy named"):
        load_policy_document(package, "scm-saga", {"saga": {"mode": "choreography"}})
    with pytest.raises(PolicyError, match="no field 'moed'"):
        load_policy_document(package, "scm-saga", {saga: {"moed": "choreography"}})
