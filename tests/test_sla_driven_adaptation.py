"""SLA-threshold monitoring driving process-layer adaptation.

Connects the pieces end-to-end the way the paper's SLA story describes:
the wsBus QoS Measurement Service feeds the MASC monitoring service's
QoS-threshold assertions ("thresholds over QoS guarantees (e.g. service
response time) as stipulated in pre-established SLAs"); a breach raises
``fault.SLAViolation``; an adaptation policy reacts.
"""

import pytest

from conftest import ECHO_CONTRACT, EchoService, SlowEchoService
from repro.core import MASC
from repro.orchestration import Invoke, ProcessDefinition, Reply, Sequence
from repro.orchestration.instance import InstanceStatus
from repro.policy import (
    AdaptationPolicy,
    MonitoringPolicy,
    PolicyDocument,
    PolicyScope,
    QoSThreshold,
    serialize_policy_document,
)
from repro.policy.actions import TerminateProcessAction
from repro.wsbus import QoSMeasurementService


@pytest.fixture
def world():
    """A MASC stack whose monitoring consults a QoS measurement service."""
    qos = QoSMeasurementService()
    masc = MASC(seed=33, qos_lookup=qos.lookup)
    qos.attach_to_invoker(masc.engine.invoker)
    masc.deploy(SlowEchoService(masc.env, "sluggish", "http://svc/slow", delay=2.0))
    return masc, qos


def slow_call_definition(repeats=3):
    calls = [
        Invoke(
            f"call-{index}",
            operation="echo",
            to="http://svc/slow",
            inputs={"text": "x"},
            timeout_seconds=30.0,
        )
        for index in range(repeats)
    ]
    return ProcessDefinition(
        "sla-sensitive", Sequence("main", calls + [Reply("r", expression="'done'")])
    )


def sla_policy_document():
    document = PolicyDocument("sla")
    document.monitoring_policies.append(
        MonitoringPolicy(
            name="response-time-sla",
            events=("message.response",),
            scope=PolicyScope(service_type="Echo"),
            qos_thresholds=(QoSThreshold("response_time", "lte", 0.5, window=10),),
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="abort-on-sla-breach",
            triggers=("fault.SLAViolation",),
            actions=(TerminateProcessAction(reason="SLA breached"),),
        )
    )
    return serialize_policy_document(document)


class TestSlaDrivenAdaptation:
    def test_breach_terminates_instance(self, world):
        masc, qos = world
        masc.load_policies(sla_policy_document())
        instance = masc.engine.start(slow_call_definition())
        masc.env.run()
        # The first 2 s response breaches the 0.5 s SLA; the policy
        # terminates the instance before all three calls complete.
        assert instance.status is InstanceStatus.TERMINATED
        assert len(instance.executed_activities & {"call-0", "call-1", "call-2"}) < 3

    def test_no_breach_no_adaptation(self, world):
        masc, qos = world
        masc.deploy(EchoService(masc.env, "fast", "http://svc/fast"))
        masc.load_policies(sla_policy_document())
        definition = ProcessDefinition(
            "fast-calls",
            Sequence(
                "main",
                [
                    Invoke(
                        "quick",
                        operation="echo",
                        to="http://svc/fast",
                        inputs={"text": "x"},
                        extract={"echoed": "text"},
                    ),
                    Reply("r", variable="echoed"),
                ],
            ),
        )
        instance = masc.engine.start(definition)
        assert masc.engine.run_to_completion(instance) == "x@fast"
        assert instance.status is InstanceStatus.COMPLETED

    def test_violation_event_carries_measurements(self, world):
        masc, qos = world
        masc.load_policies(sla_policy_document())
        events = []
        masc.monitoring.router.subscribe(events.append)
        instance = masc.engine.start(slow_call_definition(repeats=1))
        masc.env.run()
        violations = [e for e in events if e.name == "fault.SLAViolation"]
        assert violations
        context = violations[0].context
        assert context["violated_metric"] == "response_time"
        assert context["observed_value"] > 0.5
        assert context["threshold_value"] == 0.5
