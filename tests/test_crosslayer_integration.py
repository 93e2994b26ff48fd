"""Cross-layer integration: orchestration + wsBus + MASC coordination.

The paper's signature scenario: "before retrying invocation of a faulty
service, the adaptation policy might stipulate that MASCAdaptationService
should first suspend the calling process instance... or increase its
timeout interval to avoid the calling process timing out. To be able to
decide the process instance to be adapted, MASCAdaptationService
transparently adds the ProcessInstanceID of the calling process to
outgoing SOAP messages."
"""

import pytest

from conftest import ECHO_CONTRACT, EchoService
from repro.core import MASC
from repro.orchestration import (
    Invoke,
    ProcessDefinition,
    ProcessFault,
    Reply,
    Sequence,
)
from repro.orchestration.instance import InstanceStatus
from repro.policy import (
    AdaptationPolicy,
    ExtendTimeoutAction,
    PolicyDocument,
    PolicyScope,
    RetryAction,
    serialize_policy_document,
)
from repro.policy.actions import ResumeProcessAction, SuspendProcessAction
from repro.wsbus import WsBus


@pytest.fixture
def world():
    masc = MASC(seed=9)
    service = EchoService(masc.env, "echo1", "http://svc/echo")
    masc.deploy(service)
    bus = WsBus(
        masc.env,
        masc.network,
        repository=masc.repository,
        registry=masc.registry,
        process_enforcement=masc.adaptation,
        member_timeout=3.0,
    )
    vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/echo"])
    return masc, bus, vep


def definition_against(vep, timeout):
    return ProcessDefinition(
        "caller",
        Sequence(
            "main",
            [
                Invoke(
                    "call-through-bus",
                    operation="echo",
                    to=vep.address,
                    inputs={"text": "ping"},
                    extract={"echoed": "text"},
                    timeout_seconds=timeout,
                ),
                Reply("r", variable="echoed"),
            ],
        ),
    )


def recovery_policy(actions, name="cross-layer"):
    document = PolicyDocument(name)
    document.adaptation_policies.append(
        AdaptationPolicy(
            name=name,
            triggers=("fault.ServiceUnavailable", "fault.Timeout"),
            scope=PolicyScope(service_type="Echo"),
            actions=actions,
            priority=10,
        )
    )
    return serialize_policy_document(document)


class TestProcessInstanceIdPropagation:
    def test_engine_attaches_instance_id_to_messages(self, world):
        masc, bus, vep = world
        seen = []
        masc.engine.invoker.router.subscribe(
            lambda d, e, o, t: seen.append(e.addressing.process_instance_id),
            ("request", "response", "fault"),
        )
        instance = masc.engine.start(definition_against(vep, timeout=30.0))
        masc.engine.run_to_completion(instance)
        assert instance.id in seen


class TestTimeoutExtensionCoordination:
    def test_without_extension_the_process_times_out(self, world):
        masc, bus, vep = world
        masc.load_policies(
            recovery_policy((RetryAction(max_retries=4, delay_seconds=3.0),), name="retry-only")
        )
        endpoint = masc.network.endpoint("http://svc/echo")
        endpoint.available = False

        def repairer():
            yield masc.env.timeout(8.0)
            endpoint.available = True

        masc.env.process(repairer())
        instance = masc.engine.start(definition_against(vep, timeout=5.0))
        with pytest.raises(ProcessFault):
            masc.engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.FAULTED

    def test_extension_keeps_process_alive_through_recovery(self, world):
        masc, bus, vep = world
        masc.load_policies(
            recovery_policy(
                (
                    ExtendTimeoutAction(extra_seconds=30.0),
                    RetryAction(max_retries=4, delay_seconds=3.0),
                ),
                name="extend-then-retry",
            )
        )
        endpoint = masc.network.endpoint("http://svc/echo")
        endpoint.available = False

        def repairer():
            yield masc.env.timeout(8.0)
            endpoint.available = True

        masc.env.process(repairer())
        instance = masc.engine.start(definition_against(vep, timeout=5.0))
        assert masc.engine.run_to_completion(instance) == "ping@echo1"
        assert instance.status is InstanceStatus.COMPLETED
        # The cross-layer action was actually enacted, and recovery happened
        # at the messaging layer, invisible to the process.
        assert any(
            "extend" in outcome_action
            for outcome in bus.adaptation.outcomes
            for outcome_action in outcome.actions_taken
        )
        assert instance.executed_activities == {
            "main", "call-through-bus", "r"
        } | instance.executed_activities

    def test_suspend_resume_coordination(self, world):
        masc, bus, vep = world
        masc.load_policies(
            recovery_policy(
                (
                    SuspendProcessAction(),
                    ExtendTimeoutAction(extra_seconds=30.0),
                    RetryAction(max_retries=4, delay_seconds=3.0),
                    ResumeProcessAction(),
                ),
                name="suspend-retry-resume",
            )
        )
        endpoint = masc.network.endpoint("http://svc/echo")
        endpoint.available = False

        def repairer():
            yield masc.env.timeout(8.0)
            endpoint.available = True

        masc.env.process(repairer())
        instance = masc.engine.start(definition_against(vep, timeout=5.0))
        assert masc.engine.run_to_completion(instance) == "ping@echo1"
        # The tracking trail shows the suspend/resume cycle.
        suspends = masc.tracking.events_for(instance.id, "instance_suspended")
        resumes = masc.tracking.events_for(instance.id, "instance_resumed")
        assert len(suspends) == 1 and len(resumes) == 1


class TestRecoveryShieldsProcess:
    def test_process_never_sees_the_fault(self, world):
        """Executing fault-handling policies at the messaging layer shields
        faults from the process orchestration."""
        masc, bus, vep = world
        masc.load_policies(
            recovery_policy((RetryAction(max_retries=5, delay_seconds=1.0),), name="retry")
        )
        endpoint = masc.network.endpoint("http://svc/echo")
        endpoint.available = False

        def repairer():
            yield masc.env.timeout(2.0)
            endpoint.available = True

        masc.env.process(repairer())
        instance = masc.engine.start(definition_against(vep, timeout=60.0))
        assert masc.engine.run_to_completion(instance) == "ping@echo1"
        faults = masc.tracking.events_for(instance.id, "activity_faulted")
        assert faults == []
        assert vep.stats.recovered == 1


class TestTerminateCoordination:
    def test_policy_terminates_calling_instance_on_fatal_fault(self, world):
        """'relatively simple dynamic changes of process instances (e.g.,
        ... delay/suspend/resume/terminate process)' — a messaging-layer
        policy can order termination of the calling instance."""
        from repro.policy.actions import TerminateProcessAction

        masc, bus, vep = world
        masc.load_policies(
            recovery_policy(
                (TerminateProcessAction(reason="fatal backend outage"),),
                name="terminate-on-fault",
            )
        )
        masc.network.endpoint("http://svc/echo").available = False
        instance = masc.engine.start(definition_against(vep, timeout=60.0))
        masc.env.run()
        assert instance.status is InstanceStatus.TERMINATED
        terminated = masc.tracking.events_for(instance.id, "instance_terminated")
        assert terminated
