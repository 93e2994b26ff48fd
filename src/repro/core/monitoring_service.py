"""MASCMonitoringService: the sensor half of the MAPE loop.

Taps the orchestration engine's invoker to introspect every exchanged SOAP
message, stores messages in the :class:`~repro.core.monitoring_store.
MonitoringStore`, and evaluates monitoring policies:

- *detection* policies (no fault classification): when the relevance
  condition and all message conditions **hold**, the policy fires and its
  ``emits`` events are raised with the extracted context — these drive
  dynamic customization ("the MASCMonitoringService module raises an event
  that for a particular process instance it detected... adaptation
  pre-conditions specified in monitoring policies");
- *constraint* policies (with ``classify_as``): when a message condition is
  **violated**, a fault event named ``fault.<Code>`` is raised — "the
  Monitoring service uses ECA rules to assign a meaningful fault type to
  the violation event";
- QoS thresholds are checked against a pluggable QoS lookup (the wsBus QoS
  Measurement Service implements the expected interface), raising
  ``fault.SLAViolation`` events on breach.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.events import MASCEvent
from repro.core.monitoring_store import MonitoringStore, StoredMessage
from repro.policy import MonitoringPolicy, PolicyRepository
from repro.policy.model import QoSLookup
from repro.services import ServiceRegistry
from repro.soap import FaultCode, SoapEnvelope

__all__ = ["MASCMonitoringService"]


class MASCMonitoringService:
    """Evaluates monitoring policies over observed messages and QoS data."""

    def __init__(
        self,
        env,
        repository: PolicyRepository,
        store: MonitoringStore | None = None,
        registry: ServiceRegistry | None = None,
        qos_lookup: QoSLookup | None = None,
    ) -> None:
        self.env = env
        self.repository = repository
        # NB: `store or ...` would discard an *empty* store (len() == 0 is
        # falsy); identity check required.
        self.store = store if store is not None else MonitoringStore()
        self.registry = registry
        self.qos_lookup = qos_lookup
        self._sinks: list[Callable[[MASCEvent], None]] = []
        #: Counters for experiment reporting.
        self.messages_observed = 0
        self.policies_fired = 0
        self.violations_raised = 0

    def add_sink(self, sink: Callable[[MASCEvent], None]) -> None:
        """Subscribe to raised MASC events (the decision maker does this)."""
        self._sinks.append(sink)

    def attach_to_invoker(self, invoker) -> None:
        """Introspect all messages this invoker exchanges."""
        invoker.add_message_tap(self.observe_message)

    # -- observation -------------------------------------------------------------

    def observe_message(
        self, direction: str, envelope: SoapEnvelope, operation: str, target: str
    ) -> None:
        """Entry point for each exchanged message (tap callback)."""
        self.messages_observed += 1
        message = StoredMessage(
            time=self.env.now,
            direction=direction,
            operation=operation,
            target=target,
            envelope=envelope,
            process_instance_id=envelope.addressing.process_instance_id,
        )
        fired_rules = self.store.store(message)
        for rule, context in fired_rules:
            self._raise(
                MASCEvent(
                    name=rule.emits,
                    time=self.env.now,
                    operation=operation,
                    endpoint=target,
                    service_type=self._service_type_of(target),
                    process_instance_id=message.process_instance_id,
                    envelope=envelope,
                    context=context,
                    raised_by=rule.name,
                )
            )
        self._evaluate_policies(message)

    def _service_type_of(self, address: str) -> str | None:
        return None if self.registry is None else self.registry.service_type_of(address)

    # -- policy evaluation -----------------------------------------------------------

    def _evaluate_policies(self, message: StoredMessage) -> None:
        """Map each in-scope policy's verdict onto MASC events: a fired
        detection raises its ``emits``, a violated constraint raises
        ``fault.<Code>``, and either way every breached threshold raises
        ``fault.<Code or SLAViolation>``."""
        subject = {
            "service_type": self._service_type_of(message.target),
            "endpoint": message.target,
            "operation": message.operation,
        }
        for policy in self.repository.monitoring_policies_for(
            f"message.{message.direction}", **subject
        ):
            verdict = policy.evaluate(message.envelope, self.qos_lookup, message.target)
            if verdict is None:
                continue
            if policy.classify_as is not None:
                if not verdict.conditions_hold:
                    self.violations_raised += 1
                    self._raise_from(
                        policy, message, subject, f"fault.{policy.classify_as.value}", verdict.context
                    )
            elif verdict.conditions_hold:
                self.policies_fired += 1
                for emitted in policy.emits:
                    self._raise_from(policy, message, subject, emitted, dict(verdict.context))
            code = policy.classify_as or FaultCode.SLA_VIOLATION
            for threshold, observed in verdict.breaches:
                self.violations_raised += 1
                self._raise_from(
                    policy,
                    message,
                    subject,
                    f"fault.{code.value}",
                    {
                        **verdict.context,
                        "violated_metric": threshold.metric,
                        "observed_value": observed,
                        "threshold_value": threshold.value,
                    },
                )

    def _raise_from(
        self,
        policy: MonitoringPolicy,
        message: StoredMessage,
        subject: dict,
        name: str,
        context: dict,
    ) -> None:
        self._raise(
            MASCEvent(
                name=name,
                time=self.env.now,
                process_instance_id=message.process_instance_id,
                envelope=message.envelope,
                context=context,
                raised_by=policy.name,
                **subject,
            )
        )

    def _raise(self, event: MASCEvent) -> None:
        for sink in self._sinks:
            sink(event)
