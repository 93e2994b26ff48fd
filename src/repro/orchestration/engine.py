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
from repro.simulation import Environment
from repro.soap import FaultCode, SoapFault
from repro.transport import Network
from repro.xmlutils import Element

__all__ = [
    "RuntimeService",
    "TrackingEvent",
    "TrackingService",
    "WorkflowEngine",
]


class RuntimeService:
    """Base class for engine plug-ins.

    Subclasses override the hooks they care about. Hook names double as the
    engine's notification topics.
    """

    def attached(self, engine: "WorkflowEngine") -> None:
        """Called when the service is registered with an engine."""

    def instance_created(self, instance: ProcessInstance) -> None: ...
    def instance_started(self, instance: ProcessInstance) -> None: ...
    def instance_completed(self, instance: ProcessInstance) -> None: ...
    def instance_faulted(self, instance: ProcessInstance) -> None: ...
    def instance_terminated(self, instance: ProcessInstance) -> None: ...
    def instance_suspended(self, instance: ProcessInstance) -> None: ...
    def instance_resumed(self, instance: ProcessInstance) -> None: ...
    def instance_rehydrated(self, instance: ProcessInstance) -> None: ...
    def instance_modified(self, instance: ProcessInstance, operations, bindings) -> None: ...
    def engine_crashed(self, engine: "WorkflowEngine") -> None: ...
    def activity_started(self, instance: ProcessInstance, activity) -> None: ...
    def activity_restarted(self, instance: ProcessInstance, activity) -> None: ...
    def activity_completed(self, instance: ProcessInstance, activity) -> None: ...
    def activity_replayed(self, instance: ProcessInstance, activity) -> None: ...
    def activity_cancelled(
        self, instance: ProcessInstance, activity, interrupted: bool
    ) -> None: ...
    def activity_faulted(self, instance: ProcessInstance, activity, fault) -> None: ...
    def activity_refaulted(self, instance: ProcessInstance, activity, fault) -> None: ...
    def activity_retried(
        self, instance: ProcessInstance, activity, fault, attempt: int
    ) -> None: ...
    def activity_skipped(self, instance: ProcessInstance, activity, fault) -> None: ...
    def activity_replaced(self, instance: ProcessInstance, activity, replacement) -> None: ...
    def timeout_extended(
        self, instance: ProcessInstance, activity_name: str, extra_seconds: float
    ) -> None: ...
    def saga_step_registered(
        self, instance: ProcessInstance, scope_name: str | None, step_name: str,
        replayed: bool,
    ) -> None: ...
    def compensation_started(
        self, instance: ProcessInstance, step_name: str, replayed: bool
    ) -> None: ...
    def activity_compensated(
        self, instance: ProcessInstance, step_name: str, activity, replayed: bool
    ) -> None: ...


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


class TrackingService(RuntimeService):
    """Built-in runtime service recording the full execution trace."""

    def __init__(self) -> None:
        self.events: list[TrackingEvent] = []
        self._engine: WorkflowEngine | None = None

    def attached(self, engine: "WorkflowEngine") -> None:
        self._engine = engine

    def _track(self, instance: ProcessInstance, kind: str, activity=None, detail=None) -> None:
        assert self._engine is not None
        self.events.append(
            TrackingEvent(
                time=self._engine.env.now,
                instance_id=instance.id,
                kind=kind,
                activity_name=activity.name if activity is not None else None,
                detail=detail,
            )
        )

    def instance_created(self, instance) -> None:
        self._track(instance, "instance_created")

    def instance_completed(self, instance) -> None:
        self._track(instance, "instance_completed")

    def instance_faulted(self, instance) -> None:
        self._track(instance, "instance_faulted", detail=str(instance.fault))

    def instance_terminated(self, instance) -> None:
        self._track(instance, "instance_terminated")

    def instance_suspended(self, instance) -> None:
        self._track(instance, "instance_suspended")

    def instance_resumed(self, instance) -> None:
        self._track(instance, "instance_resumed")

    def activity_started(self, instance, activity) -> None:
        self._track(instance, "activity_started", activity)

    def activity_completed(self, instance, activity) -> None:
        self._track(instance, "activity_completed", activity)

    def activity_replayed(self, instance, activity) -> None:
        self._track(instance, "activity_replayed", activity)

    def instance_rehydrated(self, instance) -> None:
        self._track(instance, "instance_rehydrated")

    def activity_faulted(self, instance, activity, fault) -> None:
        self._track(instance, "activity_faulted", activity, detail=str(fault.fault))

    def activity_retried(self, instance, activity, fault, attempt) -> None:
        self._track(
            instance, "activity_retried", activity, detail=f"attempt {attempt}: {fault.fault}"
        )

    def activity_skipped(self, instance, activity, fault) -> None:
        self._track(instance, "activity_skipped", activity, detail=str(fault.fault))

    def activity_replaced(self, instance, activity, replacement) -> None:
        self._track(
            instance, "activity_replaced", activity, detail=f"replaced by {replacement.name}"
        )

    def saga_step_registered(self, instance, scope_name, step_name, replayed) -> None:
        # Replayed registrations are replay bookkeeping, not new facts: a
        # recovered run's tail must contain only events the reference run
        # also produced at that point.
        if not replayed:
            self.events.append(
                TrackingEvent(
                    time=self._engine.env.now if self._engine else 0.0,
                    instance_id=instance.id,
                    kind="saga_step_registered",
                    activity_name=step_name,
                    detail=scope_name,
                )
            )

    def activity_compensated(self, instance, step_name, activity, replayed) -> None:
        if not replayed:
            self._track(
                instance, "activity_compensated", activity, detail=f"compensates {step_name}"
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

    def notify(self, hook: str, *args) -> None:
        for service in self._services:
            getattr(service, hook)(*args)

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
        self.notify("instance_started", instance)
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
        self.notify("engine_crashed", self)

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
