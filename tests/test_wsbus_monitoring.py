"""Direct unit tests for the wsBus monitoring service."""

import pytest

from repro.policy import (
    MessageCondition,
    MonitoringPolicy,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    QoSThreshold,
)
from repro.simulation import Environment
from repro.soap import FaultCode, SoapEnvelope, SoapFault
from repro.wsbus import BusMonitoringService, MonitoringPoint, QoSMeasurementService
from repro.xmlutils import Element


def envelope(**parts):
    body = Element("orderRequest")
    for key, value in parts.items():
        body.add(key, text=str(value))
    return SoapEnvelope(body=body)


def service_with(policies, qos=None):
    env = Environment()
    repository = PolicyRepository()
    document = PolicyDocument("d")
    document.monitoring_policies.extend(policies)
    repository.load(document)
    monitoring = BusMonitoringService(env, repository, qos or QoSMeasurementService())
    events = []
    monitoring.router.subscribe(events.append)
    return monitoring, events


POINT = MonitoringPoint(service_type="Orders", endpoint="http://svc", operation="submitOrder")


class TestCheckMessage:
    def test_violation_returns_classified_fault(self):
        monitoring, events = service_with(
            [
                MonitoringPolicy(
                    name="amount-cap",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "lte", "1000"),),
                    classify_as=FaultCode.SERVICE_FAILURE,
                )
            ]
        )
        fault = monitoring.check_message("request", envelope(amount=5000), POINT)
        assert fault is not None and fault.code is FaultCode.SERVICE_FAILURE
        assert monitoring.violations_detected == 1
        assert "amount-cap" in fault.reason

    def test_satisfied_constraint_returns_none(self):
        monitoring, events = service_with(
            [
                MonitoringPolicy(
                    name="amount-cap",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "lte", "1000"),),
                    classify_as=FaultCode.SERVICE_FAILURE,
                )
            ]
        )
        assert monitoring.check_message("request", envelope(amount=10), POINT) is None

    def test_detection_policy_emits(self):
        monitoring, events = service_with(
            [
                MonitoringPolicy(
                    name="detector",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "gte", "100"),),
                    extract={"amount": "amount"},
                    emits=("order.large",),
                )
            ]
        )
        assert monitoring.check_message("request", envelope(amount=500), POINT) is None
        assert [e.name for e in events] == ["order.large"]
        assert events[0].context["amount"] == 500

    def test_scope_filters_policies(self):
        monitoring, events = service_with(
            [
                MonitoringPolicy(
                    name="other-scope",
                    events=("message.request",),
                    scope=PolicyScope(service_type="Warehouse"),
                    conditions=(MessageCondition("never", "exists"),),
                    classify_as=FaultCode.SERVICE_FAILURE,
                )
            ]
        )
        assert monitoring.check_message("request", envelope(amount=1), POINT) is None

    def test_qos_threshold_violation(self):
        from repro.services import InvocationOutcome, InvocationRecord

        qos = QoSMeasurementService()
        qos.observe(
            InvocationRecord(
                "c", "http://svc", "submitOrder", 0.0, 3.0, InvocationOutcome.SUCCESS
            )
        )
        monitoring, events = service_with(
            [
                MonitoringPolicy(
                    name="sla",
                    events=("message.response",),
                    qos_thresholds=(QoSThreshold("response_time", "lte", 1.0),),
                )
            ],
            qos=qos,
        )
        fault = monitoring.check_message("response", envelope(status="ok"), POINT)
        assert fault is not None and fault.code is FaultCode.SLA_VIOLATION
        assert events and events[0].name == "fault.SLAViolation"
        assert events[0].context["observed_value"] == pytest.approx(3.0)


    def test_violated_constraint_emits_with_violated_policy_and_skips_thresholds(self):
        """The bus raises the policy's ``emits`` with ``violated_policy`` in
        the context and leaves the violated policy's thresholds unchecked
        (the process layer checks them: ``test_core_masc.py``)."""

        class Breached:
            lookups = 0

            def lookup(self, metric, window, aggregate, endpoint):
                self.lookups += 1
                return 99.0

        qos = Breached()
        monitoring, events = service_with(
            [
                MonitoringPolicy(
                    name="amount-cap",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "lte", "1000"),),
                    extract={"amount": "amount"},
                    classify_as=FaultCode.SERVICE_FAILURE,
                    emits=("order.rejected",),
                    qos_thresholds=(QoSThreshold("response_time", "lte", 1.0),),
                )
            ],
            qos=qos,
        )
        fault = monitoring.check_message("request", envelope(amount=5000), POINT)
        assert fault.code is FaultCode.SERVICE_FAILURE
        assert [(e.name, e.context, e.fault) for e in events] == [
            ("order.rejected", {"amount": 5000, "violated_policy": "amount-cap"}, fault)
        ]
        assert qos.lookups == 0 and monitoring.violations_detected == 1
        # Satisfied, the same policy's thresholds are checked.
        fault = monitoring.check_message("request", envelope(amount=10), POINT)
        assert fault.code is FaultCode.SERVICE_FAILURE and "QoS guarantee" in fault.reason
        assert qos.lookups == 1 and events[-1].name == "fault.ServiceFailure"


class TestClassify:
    def test_reclassification_by_policy(self):
        monitoring, _ = service_with(
            [
                MonitoringPolicy(
                    name="timeouts-are-sla-violations",
                    events=("fault.Timeout",),
                    classify_as=FaultCode.SLA_VIOLATION,
                )
            ]
        )
        original = SoapFault(FaultCode.TIMEOUT, "too slow", actor="http://svc")
        reclassified = monitoring.classify(original, POINT)
        assert reclassified.code is FaultCode.SLA_VIOLATION
        assert reclassified.reason == "too slow"
        assert reclassified.actor == "http://svc"

    def test_no_matching_policy_keeps_code(self):
        monitoring, _ = service_with([])
        fault = SoapFault(FaultCode.TIMEOUT, "x")
        assert monitoring.classify(fault, POINT).code is FaultCode.TIMEOUT

    def test_notify_fault_raises_event(self):
        monitoring, events = service_with([])
        monitoring.notify_fault(SoapFault(FaultCode.TIMEOUT, "x"), envelope(a=1), POINT)
        assert events and events[0].name == "fault.Timeout"
        assert events[0].fault is not None
