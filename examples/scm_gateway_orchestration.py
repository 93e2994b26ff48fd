"""Gateway deployment: a composition running *through* wsBus.

The paper's first deployment mode: "wsBus can be deployed either as a
gateway to a Process Orchestration Engine... the Process Orchestration
Engine should be configured to explicitly direct service calls to the
virtual endpoints configured in wsBus."

This example builds the full WS-I SCM world, puts the four Retailers and
the Logging Facility behind VEPs, binds the workflow engine to the bus
(`bus.bind_engine`), and runs purchase compositions that reference only
*abstract service types* — while retailers crash and recover underneath.

Run:  python examples/scm_gateway_orchestration.py
"""

from repro.casestudies.scm import (
    LOGGING_CONTRACT,
    RETAILER_CONTRACT,
    build_scm_deployment,
    logging_skip_policy_document,
    retailer_recovery_policy_document,
)
from repro.orchestration import (
    Invoke,
    ProcessDefinition,
    Reply,
    Sequence,
    TrackingService,
    WorkflowEngine,
)
from repro.policy import PolicyRepository
from repro.wsbus import WsBus


def purchase_process() -> ProcessDefinition:
    """A composition that only names abstract service types."""
    return ProcessDefinition(
        "purchase-via-gateway",
        Sequence(
            "main",
            [
                Invoke(
                    "get-catalog",
                    operation="getCatalog",
                    service_type="Retailer",  # resolved to the VEP by the binder
                    extract={"catalog": "catalog"},
                    timeout_seconds=60.0,
                ),
                Invoke(
                    "submit-order",
                    operation="submitOrder",
                    service_type="Retailer",
                    inputs={"orderId": "$order_id", "items": "TVx1,Speakersx2",
                            "customerId": "$customer"},
                    extract={"status": "status", "shipped_from": "shippedFrom"},
                    timeout_seconds=60.0,
                ),
                Invoke(
                    "log-purchase",
                    operation="logEvent",
                    service_type="LoggingFacility",
                    inputs={"source": "gateway-demo", "event": "purchase-complete"},
                    timeout_seconds=60.0,
                ),
                Reply("result", variable="status"),
            ],
        ),
        initial_variables={"order_id": "order-1", "customer": "c-1"},
    )


def main() -> None:
    deployment = build_scm_deployment(seed=77, log_events=False)
    repository = PolicyRepository()
    repository.load(retailer_recovery_policy_document())  # retry x3 then failover
    repository.load(logging_skip_policy_document())       # logging is skippable

    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=repository,
        registry=deployment.registry,
        member_timeout=5.0,
    )
    retailers = bus.create_vep(
        "retailers", RETAILER_CONTRACT,
        members=deployment.retailer_addresses, selection_strategy="round_robin",
    )
    bus.create_vep("logging", LOGGING_CONTRACT, members=[deployment.logging.address])

    engine = WorkflowEngine(
        deployment.env, network=deployment.network, registry=deployment.registry
    )
    engine.add_service(TrackingService())
    bus.bind_engine(engine)  # abstract types now resolve to VEP addresses
    engine.register_definition(purchase_process())

    print("The VEP publishes an abstract WSDL; members are invisible to callers:")
    wsdl = retailers.abstract_wsdl()
    print("  " + "\n  ".join(wsdl.splitlines()[:4]) + "\n  ...")

    def chaos():
        """Take retailers down and up while orders flow."""
        for name in ("A", "B", "C"):
            yield 3.0
            endpoint = deployment.network.endpoint(deployment.retailers[name].address)
            endpoint.available = False
            print(f"t={deployment.env.now:6.2f}s  !! Retailer{name} crashed")
            yield 9.0
            endpoint.available = True
            print(f"t={deployment.env.now:6.2f}s  !! Retailer{name} recovered")

    deployment.env.process(chaos())

    def run_orders():
        for index in range(8):
            instance = engine.start(
                "purchase-via-gateway",
                variables={"order_id": f"order-{index}", "customer": f"c-{index}"},
            )
            result = yield instance.process
            print(
                f"t={deployment.env.now:6.2f}s  order-{index}: {result} "
                f"(shipped from {instance.variables.get('shipped_from')})"
            )
            yield 4.0

    deployment.env.run(deployment.env.process(run_orders()))

    stats = bus.stats_summary()
    print(
        f"\nAll orders fulfilled through the gateway: "
        f"{stats['veps']['retailers']['requests']} retailer requests, "
        f"{stats['veps']['retailers']['recovered']} transparently recovered, "
        f"{stats['dead_letters']} dead-lettered."
    )


if __name__ == "__main__":
    main()
