"""SCM testbed assembly.

Mirrors the paper's experimental setup: SCM backend services on one
(simulated) server, the workload generator and wsBus on the client side,
everything connected by a fast LAN. Retailers A-D get different processing
and fault profiles so that their direct reliability/availability figures
spread the way Table 1's do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.casestudies.scm.services import (
    ConfigurationService,
    LoggingFacilityService,
    ManufacturerService,
    RetailerService,
    WarehouseService,
)
from repro.faultinjection import ApplicationFault, EndpointFault, FaultInjector
from repro.services import ProcessingModel, ServiceContainer, ServiceRegistry
from repro.simulation import Environment, RandomSource
from repro.transport import Network

__all__ = [
    "SCMDeployment",
    "STORM_FAULTS",
    "TABLE1_FAULTS",
    "build_scm_deployment",
]

#: The Table 1 fault mix. Downtime windows per Retailer: random up/down
#: stretches with MTTR kept constant and MTBF chosen so the *nominal*
#: availability MTBF / (MTBF + MTTR) of each direct configuration lands
#: near the paper's measured value. Then application-fault probabilities:
#: these produce fast ``ServiceFailure`` replies ("remote applications can
#: produce unexpected results"), which is what lets a retailer's failure
#: rate exceed what its downtime alone explains — exactly the relationship
#: in the paper's Table 1 (Retailer B: 81 failures/1000 at 0.992
#: availability). Tuned so the failure columns land near the paper's:
#: A ≈ 105, B ≈ 81, C ≈ 17, D ≈ 91 per 1000.
TABLE1_FAULTS: tuple[EndpointFault | ApplicationFault, ...] = (
    EndpointFault("http://scm/retailerA", 200.0, 10.0, random=True),  # 0.952
    EndpointFault("http://scm/retailerB", 620.0, 5.0, random=True),  # 0.992
    EndpointFault("http://scm/retailerC", 2495.0, 5.0, random=True),  # 0.998
    EndpointFault("http://scm/retailerD", 289.0, 5.0, random=True),  # 0.983
    ApplicationFault("http://scm/retailerA", 0.060),
    ApplicationFault("http://scm/retailerB", 0.073),
    ApplicationFault("http://scm/retailerC", 0.015),
    ApplicationFault("http://scm/retailerD", 0.075),
)

#: The fault storm: three of the four Retailers misbehave at once.
#: Retailer A suffers long random QoS-degradation episodes (mean gap 40 s,
#: mean duration 15 s), Retailer B a 10 s latency spike after every 30 s
#: healthy, Retailer D flaps (12 s up, 8 s down). The 8 s delays exceed
#: typical client timeouts, so a degraded Retailer answers with Timeout
#: faults. The same three also give application faults; Retailer B's come
#: on top of its latency spikes. Retailer C is deliberately left healthy
#: so failover has somewhere to go.
STORM_FAULTS: tuple[EndpointFault | ApplicationFault, ...] = (
    EndpointFault("http://scm/retailerA", 40.0, 15.0, delay=8.0, random=True),
    EndpointFault("http://scm/retailerB", 30.0, 10.0, delay=8.0, start_after=5.0),
    EndpointFault("http://scm/retailerD", 12.0, 8.0, start_after=3.0),
    ApplicationFault("http://scm/retailerA", 0.10),
    ApplicationFault("http://scm/retailerB", 0.12),
    ApplicationFault("http://scm/retailerD", 0.08),
)


@dataclass
class SCMDeployment:
    """Everything the SCM experiments need, fully wired."""

    env: Environment
    random_source: RandomSource
    network: Network
    container: ServiceContainer
    registry: ServiceRegistry
    retailers: dict[str, RetailerService] = field(default_factory=dict)
    warehouses: dict[str, WarehouseService] = field(default_factory=dict)
    manufacturers: dict[str, ManufacturerService] = field(default_factory=dict)
    logging: LoggingFacilityService | None = None
    configuration: ConfigurationService | None = None
    #: Every injected endpoint and application fault.
    faults: FaultInjector = field(init=False)

    def __post_init__(self) -> None:
        self.faults = FaultInjector(self.env, self.network, self.random_source)

    @property
    def retailer_addresses(self) -> list[str]:
        return [self.retailers[name].address for name in sorted(self.retailers)]

    def inject_table1_mix(self) -> None:
        """The full Table 1 fault mix (:data:`TABLE1_FAULTS`)."""
        for fault in TABLE1_FAULTS:
            self.faults.inject(fault)

    def inject_fault_storm(self) -> None:
        """A harsh fault mix for resilience ablations (:data:`STORM_FAULTS`).

        The spike and flap schedules are fixed; the degradation and
        application-fault streams come from named
        :class:`~repro.simulation.RandomSource` forks, so the whole storm
        is reproducible for a given seed.
        """
        for fault in STORM_FAULTS:
            self.faults.inject(fault)


def build_scm_deployment(
    seed: int = 0,
    initial_stock: int = 10_000,
    log_events: bool = True,
) -> SCMDeployment:
    """Deploy the complete SCM application on a fresh simulation.

    ``initial_stock`` defaults high so reliability experiments measure
    middleware behaviour, not stockouts; inventory experiments lower it.
    """
    env = Environment()
    random_source = RandomSource(seed)
    network = Network(env, random_source)
    container = ServiceContainer(env, network, random_source)
    registry = ServiceRegistry()
    deployment = SCMDeployment(
        env=env,
        random_source=random_source,
        network=network,
        container=container,
        registry=registry,
    )

    logging = LoggingFacilityService(
        env,
        "LoggingFacility",
        "http://scm/logging",
        processing=ProcessingModel(base_seconds=0.002),
    )
    container.deploy(logging)
    registry.register("LoggingFacility", logging.name, logging.address)
    deployment.logging = logging

    for index, warehouse_name in enumerate(("WA", "WB", "WC")):
        manufacturer = ManufacturerService(
            env,
            f"M{warehouse_name[1]}",
            f"http://scm/manufacturer{warehouse_name[1]}",
            processing=ProcessingModel(base_seconds=0.004),
            lead_time_seconds=5.0 + index,
        )
        container.deploy(manufacturer)
        registry.register("Manufacturer", manufacturer.name, manufacturer.address)
        deployment.manufacturers[warehouse_name[1]] = manufacturer

        warehouse = WarehouseService(
            env,
            warehouse_name,
            f"http://scm/warehouse{warehouse_name[1]}",
            processing=ProcessingModel(base_seconds=0.003),
            manufacturer_address=manufacturer.address,
            initial_stock=initial_stock,
        )
        container.deploy(warehouse)
        registry.register("Warehouse", warehouse.name, warehouse.address)
        deployment.warehouses[warehouse_name] = warehouse

    warehouse_addresses = [
        deployment.warehouses[name].address for name in ("WA", "WB", "WC")
    ]
    # Retailers differ slightly in processing speed (different "vendors").
    processing_profiles = {
        "A": ProcessingModel(base_seconds=0.008, per_kb_seconds=0.0004),
        "B": ProcessingModel(base_seconds=0.006, per_kb_seconds=0.0003),
        "C": ProcessingModel(base_seconds=0.005, per_kb_seconds=0.0003),
        "D": ProcessingModel(base_seconds=0.007, per_kb_seconds=0.0004),
    }
    for name, processing in processing_profiles.items():
        retailer = RetailerService(
            env,
            f"Retailer{name}",
            f"http://scm/retailer{name}",
            processing=processing,
            warehouse_addresses=warehouse_addresses,
            logging_address=logging.address,
            log_events=log_events,
        )
        container.deploy(retailer)
        registry.register("Retailer", retailer.name, retailer.address)
        deployment.retailers[name] = retailer

    configuration = ConfigurationService(
        env,
        "Configuration",
        "http://scm/configuration",
        processing=ProcessingModel(base_seconds=0.002),
        registry=registry,
    )
    container.deploy(configuration)
    registry.register("Configuration", configuration.name, configuration.address)
    deployment.configuration = configuration
    return deployment
