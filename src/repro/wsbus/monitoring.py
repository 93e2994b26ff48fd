"""wsBus Monitoring Service: assertion-based fault capture.

"The monitoring policies can be attached to Monitoring Points at various
levels of granularity such as a Service Endpoint or a Service Operation."
The service:

- evaluates message pre/post-conditions from monitoring policies in scope,
- checks QoS thresholds against the QoS Measurement Service,
- classifies violations and transport/application faults into the fault
  taxonomy ("assign a meaningful fault type to the violation event"),
- raises MASC events on its ``router`` toward the decision maker (for
  cross-layer policies) and hands faults to the Adaptation Manager
  "along with all the data required for recovery".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import MASCEvent
from repro.observability import NULL_METRICS, NULL_TRACER, correlation_id_for
from repro.policy import PolicyRepository
from repro.simulation import EventRouter
from repro.soap import FaultCode, SoapEnvelope, SoapFault
from repro.wsbus.qos import QoSMeasurementService

__all__ = ["BusMonitoringService", "MonitoringPoint"]


@dataclass(frozen=True)
class MonitoringPoint:
    """Where monitoring policies attach: endpoint or operation granularity."""

    service_type: str | None = None
    endpoint: str | None = None
    operation: str | None = None

    def subject(self) -> dict[str, str | None]:
        return {
            "service_type": self.service_type,
            "endpoint": self.endpoint,
            "operation": self.operation,
        }


class BusMonitoringService:
    """Evaluates monitoring policies at messaging-layer monitoring points."""

    def __init__(
        self,
        env,
        repository: PolicyRepository,
        qos: QoSMeasurementService,
        tracer=None,
        metrics=None,
    ) -> None:
        self.env = env
        self.repository = repository
        self.qos = qos
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.router = EventRouter()
        self.violations_detected = 0

    # -- message checks ------------------------------------------------------------

    def check_message(
        self, direction: str, envelope: SoapEnvelope, point: MonitoringPoint
    ) -> SoapFault | None:
        """Evaluate monitoring policies for one message.

        Returns the first classified violation fault (or None), and
        publishes detection events/extractions as side effects.
        """
        self.metrics.counter("wsbus.monitoring.checks").inc()
        first_fault: SoapFault | None = None
        for policy in self.repository.monitoring_policies_for(
            f"message.{direction}", **point.subject()
        ):
            verdict = policy.evaluate(envelope, self.qos.lookup, point.endpoint)
            if verdict is None:
                continue
            if policy.classify_as is not None and not verdict.conditions_hold:
                self.violations_detected += 1
                fault = SoapFault(
                    policy.classify_as,
                    f"monitoring policy {policy.name!r} violated: "
                    + "; ".join(c.describe() for c in policy.conditions),
                    actor=point.endpoint,
                    source="wsbus-monitoring",
                )
                if first_fault is None:
                    first_fault = fault
                # The policy's declared events accompany the classification:
                # the paper sends the violation "toward the decision maker"
                # regardless of whether it was also classified as a fault.
                # A violated constraint's thresholds are not checked.
                violation_context = {**verdict.context, "violated_policy": policy.name}
                for emitted in policy.emits:
                    self._emit(
                        emitted, envelope, point, violation_context, policy.name, fault=fault
                    )
                continue
            if policy.classify_as is None and verdict.conditions_hold:
                for emitted in policy.emits:
                    self._emit(emitted, envelope, point, verdict.context, policy.name)
            code = policy.classify_as or FaultCode.SLA_VIOLATION
            for threshold, observed in verdict.breaches:
                self.violations_detected += 1
                if first_fault is None:
                    first_fault = SoapFault(
                        code,
                        f"QoS guarantee violated: {threshold.describe()} "
                        f"(observed {observed})",
                        actor=point.endpoint,
                        source="wsbus-monitoring",
                    )
                violation_context = {
                    **verdict.context,
                    "violated_metric": threshold.metric,
                    "observed_value": observed,
                    "threshold_value": threshold.value,
                }
                self._emit(f"fault.{code.value}", envelope, point, violation_context, policy.name)
        if first_fault is not None:
            self.metrics.counter("wsbus.monitoring.violations").inc()
            if self.tracer.enabled:
                # A zero-length marker span: where and why monitoring flagged
                # the message (the rare path — the clean path emits nothing).
                self.tracer.start_span(
                    "wsbus.monitoring.violation",
                    correlation_id=correlation_id_for(envelope),
                    attributes={
                        "direction": direction,
                        "endpoint": point.endpoint,
                        "operation": point.operation,
                    },
                ).end(status=f"fault:{first_fault.code.value}")
        return first_fault

    # -- fault classification ---------------------------------------------------------

    def classify(self, fault: SoapFault, point: MonitoringPoint) -> SoapFault:
        """Refine a detected fault's classification.

        Transport/application faults already carry a taxonomy code from the
        invoker; this hook exists so monitoring policies observing the
        fault can reclassify (first matching policy with ``classify_as``
        wins) and so every fault becomes a MASC event.
        """
        policies = self.repository.monitoring_policies_for(
            f"fault.{fault.code.value}", **point.subject()
        )
        classified = fault
        for policy in policies:
            if policy.classify_as is not None and policy.classify_as != fault.code:
                classified = SoapFault(
                    policy.classify_as,
                    fault.reason,
                    actor=fault.actor,
                    detail=fault.detail,
                    source=fault.source,
                )
                break
        return classified

    def notify_fault(
        self, fault: SoapFault, envelope: SoapEnvelope, point: MonitoringPoint
    ) -> None:
        """Raise the fault as a MASC event (decision-maker visibility)."""
        self.metrics.counter("wsbus.monitoring.faults").inc()
        event = MASCEvent.for_fault(
            self.env.now,
            fault,
            process_instance_id=envelope.addressing.process_instance_id,
            envelope=envelope,
            context={"fault_reason": fault.reason, "fault_actor": fault.actor},
            **point.subject(),
        )
        self.router.publish(event.name, event)

    # -- helpers -----------------------------------------------------------------------

    def _emit(
        self,
        name: str,
        envelope: SoapEnvelope,
        point: MonitoringPoint,
        context: dict,
        raised_by: str,
        fault: SoapFault | None = None,
    ) -> None:
        """Publish one event on behalf of the monitoring policy ``raised_by``."""
        self.router.publish(
            name,
            MASCEvent(
                name=name,
                time=self.env.now,
                process_instance_id=envelope.addressing.process_instance_id,
                envelope=envelope,
                fault=fault,
                context=context,
                raised_by=raised_by,
                **point.subject(),
            ),
        )
