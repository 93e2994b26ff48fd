"""The MASC facade: one object assembling the whole middleware stack.

Wires together the simulation environment, network, service registry,
orchestration engine, policy repository/parser, monitoring service,
decision maker and adaptation service exactly as in Figure 1 of the paper.
Case studies and experiments build on this facade; each part remains
individually replaceable.
"""

from __future__ import annotations

from repro.core.adaptation_service import MASCAdaptationService
from repro.core.decision_maker import MASCPolicyDecisionMaker
from repro.core.monitoring_service import MASCMonitoringService
from repro.core.monitoring_store import MonitoringStore
from repro.core.parser import MASCPolicyParser
from repro.observability import NULL_METRICS, NULL_TRACER
from repro.orchestration import TrackingService, WorkflowEngine
from repro.policy import PolicyRepository
from repro.services import ServiceContainer, ServiceRegistry
from repro.simulation import Environment, RandomSource
from repro.transport import LatencyModel, Network

__all__ = ["MASC"]


class MASC:
    """A fully assembled MASC middleware stack on a fresh simulation."""

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel | None = None,
        validate_policies: bool = True,
        qos_lookup=None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.env = Environment()
        self.random_source = RandomSource(seed)
        #: One tracer/metrics registry for the whole stack (defaults are
        #: no-ops); pass the same instances to a WsBus sharing this env so
        #: cross-layer spans land in one trace.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer.bind_clock(self.env)
        self.network = Network(self.env, self.random_source, latency=latency)
        self.registry = ServiceRegistry()
        self.container = ServiceContainer(self.env, self.network, self.random_source)

        self.engine = WorkflowEngine(
            self.env,
            network=self.network,
            registry=self.registry,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.tracking = self.engine.add_service(TrackingService())

        self.repository = PolicyRepository()
        self.parser = MASCPolicyParser(self.repository, validate=validate_policies)
        self.store = MonitoringStore()
        self.monitoring = MASCMonitoringService(
            self.env,
            self.repository,
            store=self.store,
            registry=self.registry,
            qos_lookup=qos_lookup,
        )
        self.decision_maker = MASCPolicyDecisionMaker(
            self.env, self.repository, tracer=self.tracer, metrics=self.metrics
        )
        self.adaptation = MASCAdaptationService(self.decision_maker)
        self.engine.add_service(self.adaptation)

        # Sensors feed the decision maker; the engine's outgoing messages
        # are introspected by monitoring.
        self.monitoring.add_sink(self.decision_maker.handle)
        self.monitoring.attach_to_invoker(self.engine.invoker)

    # -- convenience -------------------------------------------------------------

    def deploy(self, service):
        """Host a service and register it in the UDDI-style registry."""
        self.container.deploy(service)
        self.registry.register(service.service_type, service.name, service.address)
        return service

    def load_policies(self, xml_text: str):
        """Import one WS-Policy4MASC XML document."""
        return self.parser.import_xml(xml_text)

    def run(self, until=None):
        """Advance the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until)

    def start_process(self, definition, **kwargs):
        return self.engine.start(definition, **kwargs)
