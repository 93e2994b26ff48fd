"""Workflow engine and pluggable runtime services.

Mirrors the WF hosting model the paper builds on: "a lightweight WF runtime
engine that can be hosted in any .NET application... takes care of different
middleware concerns through an extensible set of WF runtime services (e.g.,
Tracking, Persistence and Transaction support are built-in)". MASC's
adaptation service is registered as exactly such a runtime service (see
:mod:`repro.core.adaptation_service`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.orchestration.definition import ProcessDefinition
from repro.orchestration.errors import ProcessFault
from repro.orchestration.instance import ProcessInstance
from repro.services import Invoker, ServiceRegistry
from repro.simulation import Environment, EventRouter
from repro.soap import FaultCode, SoapFault
from repro.transport import Network
from repro.xmlutils import Element

__all__ = [
    "EngineEvent",
    "RuntimeService",
    "TrackingEvent",
    "TrackingService",
    "WorkflowEngine",
]


@dataclass(frozen=True, slots=True)
class EngineEvent:
    """One lifecycle fact the engine publishes to its runtime services.

    ``kind`` names the fact (``instance_created``, ``activity_completed``,
    ...; docs/persistence.md tables every kind), ``activity`` is the
    activity it concerns, if any, and ``data`` carries the kind's other
    fields.
    """

    kind: str
    instance: ProcessInstance
    activity: Any
    data: dict[str, Any]


class RuntimeService:
    """Base class for engine plug-ins: each reads the event kinds it needs.

    A service may declare ``kinds``, the collection of event kinds its
    ``on_event`` reads; the engine then hands it only those. A service
    that declares none is handed every kind.
    """

    def attached(self, engine: "WorkflowEngine") -> None:
        """Called when the service is registered with an engine."""

    def on_event(self, event: EngineEvent) -> None:
        """Called for every lifecycle fact the engine publishes."""


@dataclass(frozen=True)
class FaultVerdict:
    """What a fault advisor orders the engine to do with an activity fault.

    ``kind``: ``propagate`` (default behaviour), ``retry`` (re-run the
    activity after ``delay_seconds``), ``skip`` (treat as completed), or
    ``replace`` (run ``replacement`` instead).
    """

    kind: str
    delay_seconds: float = 0.0
    replacement: Any = None
    policy_name: str | None = None


@dataclass(frozen=True)
class TrackingEvent:
    """One tracked lifecycle event."""

    time: float
    instance_id: str
    kind: str
    activity_name: str | None = None
    detail: str | None = None


#: The kinds :class:`TrackingService` records, each with how it renders
#: the event's ``detail`` (None: no detail).
_TRACKED = {
    "instance_created": None,
    "instance_completed": None,
    "instance_faulted": lambda event: str(event.instance.fault),
    "instance_terminated": None,
    "instance_suspended": None,
    "instance_resumed": None,
    "instance_rehydrated": None,
    "activity_started": None,
    "activity_completed": None,
    "activity_replayed": None,
    "activity_faulted": lambda event: str(event.data["fault"].fault),
    "activity_retried": lambda event: (
        f"attempt {event.data['attempt']}: {event.data['fault'].fault}"
    ),
    "activity_skipped": lambda event: str(event.data["fault"].fault),
    "activity_replaced": lambda event: f"replaced by {event.data['replacement'].name}",
    "saga_step_registered": lambda event: event.data["scope"],
    "activity_compensated": lambda event: f"compensates {event.data['step']}",
}


class TrackingService(RuntimeService):
    """Built-in runtime service recording the full execution trace."""

    kinds = frozenset(_TRACKED)

    def __init__(self) -> None:
        self.events: list[TrackingEvent] = []
        self._engine: WorkflowEngine | None = None

    def attached(self, engine: "WorkflowEngine") -> None:
        self._engine = engine

    def on_event(self, event: EngineEvent) -> None:
        # A replayed start or saga step is replay bookkeeping, not a new
        # fact: a recovered run's tail must contain only events the
        # reference run also produced at that point.
        if event.data.get("replayed"):
            return
        assert self._engine is not None
        activity, detail = event.activity, _TRACKED[event.kind]
        self.events.append(
            TrackingEvent(
                time=self._engine.env.now,
                instance_id=event.instance.id,
                kind=event.kind,
                activity_name=activity.name if activity is not None else None,
                detail=detail(event) if detail is not None else None,
            )
        )

    # -- query helpers used by tests and experiments -----------------------------

    def events_for(self, instance_id: str, kind: str | None = None) -> list[TrackingEvent]:
        return [
            event
            for event in self.events
            if event.instance_id == instance_id and (kind is None or event.kind == kind)
        ]

    def executed_activity_names(self, instance_id: str) -> list[str]:
        return [
            event.activity_name or ""
            for event in self.events_for(instance_id, "activity_completed")
        ]


class WorkflowEngine:
    """Hosts process definitions and runs instances on the simulation."""

    def __init__(
        self,
        env: Environment,
        network: Network | None = None,
        invoker: Invoker | None = None,
        registry: ServiceRegistry | None = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if invoker is None:
            if network is None:
                raise ValueError("WorkflowEngine needs a network or an invoker")
            invoker = Invoker(env, network, caller="orchestration-engine")
        self.env = env
        self.invoker = invoker
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer.bind_clock(env)
        self.definitions: dict[str, ProcessDefinition] = {}
        self.instances: dict[str, ProcessInstance] = {}
        self._services: list[RuntimeService] = []
        #: Each service's ``on_event``, subscribed with its ``kinds``.
        self.router = EventRouter()
        self._ids = itertools.count(1)
        #: True once :meth:`crash` was called; instances freeze at their
        #: next activity boundary and no new instances can start.
        self.crashed = False
        #: Optional override for abstract service resolution (VEP binding).
        self.binder = None
        #: Optional process-level fault advisor:
        #: ``(instance, activity, fault, attempts) -> FaultVerdict | None``.
        #: MASC's process-layer corrective adaptation plugs in here.
        self.fault_advisor = None

    # -- configuration ------------------------------------------------------------

    def add_service(self, service: RuntimeService) -> RuntimeService:
        """Register a runtime service (Tracking, Persistence, MASC...)."""
        self._services.append(service)
        self.router.subscribe(service.on_event, getattr(service, "kinds", None))
        service.attached(self)
        return service

    def service_of_type(self, service_type: type) -> RuntimeService | None:
        for service in self._services:
            if isinstance(service, service_type):
                return service
        return None

    def register_definition(self, definition: ProcessDefinition) -> ProcessDefinition:
        self.definitions[definition.name] = definition
        return definition

    # -- notifications ---------------------------------------------------------------

    def notify(self, kind: str, instance: ProcessInstance, activity=None, **data) -> None:
        """Publish one lifecycle fact to every runtime service reading it."""
        handlers = self.router.routes.get(kind, self.router.every)
        if not handlers:
            return
        event = EngineEvent(kind, instance, activity, data)
        for handler in handlers:
            handler(event)

    def consult_fault_advisor(self, instance, activity, fault, attempts: int):
        """Offer an activity fault to the advisor (None = propagate)."""
        if self.fault_advisor is None:
            return None
        return self.fault_advisor(instance, activity, fault, attempts)

    # -- execution ----------------------------------------------------------------------

    def start(
        self,
        definition: ProcessDefinition | str,
        input: Element | None = None,
        variables: dict[str, Any] | None = None,
    ) -> ProcessInstance:
        """Create and start an instance; returns it immediately.

        Run the simulation (``env.run(instance.process)``) to completion to
        obtain the result. Static customization happens inside this call:
        ``instance_created`` fires before the first activity executes, and
        MASC's adaptation service edits the fresh instance tree there.
        """
        if self.crashed:
            raise RuntimeError(
                "engine has crashed; rehydrate its instances into a fresh engine"
            )
        if isinstance(definition, str):
            definition = self.definitions[definition]
        instance_id = f"proc-{next(self._ids):06d}"
        merged_variables: dict[str, Any] = dict(definition.initial_variables)
        merged_variables.update(variables or {})
        instance = ProcessInstance(
            engine=self,
            instance_id=instance_id,
            definition_name=definition.name,
            root=definition.copy_tree(),
            variables=merged_variables,
            input=input,
        )
        # A private history: the definition's tree, no edits yet.
        instance.tree_history = (instance.root, definition, ())
        self.instances[instance_id] = instance
        self.metrics.counter("engine.instances.started").inc()
        if self.tracer.enabled:
            # The root of the process-layer trace: every activity span and
            # cross-layer masc.enact span hangs off this one. Correlates on
            # the instance id — the same value carried in the MASC
            # ProcessInstanceID SOAP header, so bus-side spans for this
            # instance's invokes share the correlation id.
            instance.span = self.tracer.start_span(
                "process.instance",
                correlation_id=instance_id,
                attributes={"process": definition.name},
            )
        self.notify("instance_created", instance)
        instance.process = self.env.process(instance.run(), name=f"instance:{instance_id}")
        return instance

    def run_to_completion(self, instance: ProcessInstance) -> Any:
        """Convenience: drive the simulation until the instance finishes."""
        return self.env.run(instance.process)

    # -- crash & recovery ---------------------------------------------------------------

    def crash(self, reason: str = "engine host failure") -> None:
        """Simulate an abrupt engine/host failure (idempotent).

        The engine stops scheduling: every live instance freezes at its
        next activity boundary — exactly the state its latest checkpoint
        captured — and :meth:`start` refuses new work. Recovery means
        rehydrating the instances from a checkpoint store into a *fresh*
        engine (:meth:`rehydrate`).
        """
        if self.crashed:
            return
        self.crashed = True
        self.metrics.counter("engine.crashes").inc()
        if self.tracer.enabled:
            span = self.tracer.start_span("engine.crash", attributes={"reason": reason})
            span.end(status="crashed")

    def rehydrate(self, store, instance_id: str) -> ProcessInstance:
        """Reconstruct a checkpointed instance in this engine and resume it.

        ``store`` is a :class:`repro.persistence.CheckpointStore` (or any
        object with its record-query API). The instance is rebuilt from its
        latest checkpoint plus the modification journal, registered with
        this engine under its original id, and scheduled; already-completed
        activities fast-forward via replay credits instead of re-executing.
        """
        from repro.persistence import rehydrate_instance

        return rehydrate_instance(self, store, instance_id)

    def resolve_service(self, service_type: str, instance: ProcessInstance) -> str:
        """Map an abstract service type to a concrete address."""
        if self.binder is not None:
            address = self.binder(service_type, instance)
            if address:
                return address
        if self.registry is not None:
            record = self.registry.find_one(service_type)
            if record is not None:
                return record.address
        raise ProcessFault(
            SoapFault(
                FaultCode.SERVICE_UNAVAILABLE,
                f"no implementation of service type {service_type!r} is known",
                source="orchestration-engine",
            )
        )
