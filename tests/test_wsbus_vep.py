"""Integration-style tests for wsBus: VEPs, recovery, selection, queues."""

import pytest

from conftest import ECHO_CONTRACT, EchoService, SlowEchoService, run_process
from repro.core import MASC, EnforcementPoint, MASCEvent, MASCPolicyDecisionMaker
from repro.orchestration import Invoke, ProcessDefinition, Sequence
from repro.policy import (
    AdaptationPolicy,
    BusinessValue,
    ConcurrentInvokeAction,
    MonitoringPolicy,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    QoSThreshold,
    RetryAction,
    SkipAction,
    SubstituteAction,
)
from repro.services import Invoker
from repro.soap import FaultCode, SoapFaultError
from repro.wsbus import WsBus
from repro.wsbus.selection import ContentRule
from repro.wsbus.pipeline import ApplicabilityRule, MessagePipeline, MessageProcessingModule


@pytest.fixture
def world(env, network, container):
    """Three echo services + a policy repository + a bus."""
    for name in ("a", "b", "c"):
        container.deploy(EchoService(env, f"echo-{name}", f"http://svc/{name}"))
    repository = PolicyRepository()
    bus = WsBus(env, network, repository=repository, member_timeout=5.0)
    return bus, repository


def call(env, network, address, text="hi", timeout=60.0):
    invoker = Invoker(env, network, caller="client")

    def client():
        payload = ECHO_CONTRACT.operation("echo").input.build(text=text)
        response = yield from invoker.invoke(address, "echo", payload, timeout=timeout)
        return response.body.child_text("text")

    return run_process(env, client())


def load_recovery(repository, actions, triggers=("fault.*",), name="recovery"):
    document = PolicyDocument(name)
    document.adaptation_policies.append(
        AdaptationPolicy(name=name, triggers=triggers, actions=actions, priority=10)
    )
    repository.load(document)


class TestVepBasics:
    def test_round_robin_rotation(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=[f"http://svc/{n}" for n in "abc"],
            selection_strategy="round_robin",
        )
        answers = [call(env, network, vep.address) for _ in range(3)]
        assert answers == ["hi@echo-a", "hi@echo-b", "hi@echo-c"]

    def test_primary_strategy_sticks(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/b", "http://svc/a"],
            selection_strategy="primary",
        )
        assert {call(env, network, vep.address) for _ in range(2)} == {"hi@echo-b"}

    def test_no_members_faults(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep("empty", ECHO_CONTRACT, members=[])
        with pytest.raises(SoapFaultError) as excinfo:
            call(env, network, vep.address)
        assert excinfo.value.fault.code is FaultCode.SERVICE_UNAVAILABLE

    def test_unmappable_operation_faults(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        invoker = Invoker(env, network)

        def client():
            from repro.xmlutils import Element

            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.invoke(vep.address, "mystery", Element("mystery"))
            return excinfo.value.fault.code

        assert run_process(env, client()) is FaultCode.CLIENT

    def test_duplicate_vep_name_rejected(self, env, network, world):
        bus, _ = world
        bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        with pytest.raises(ValueError):
            bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/b"])

    def test_remove_vep_unregisters(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        bus.remove_vep("echo")
        assert network.endpoint(vep.address) is None

    def test_refresh_members_from_registry(self, env, network, world):
        from repro.services import ServiceRegistry

        bus, _ = world
        registry = ServiceRegistry()
        registry.register("Echo", "a", "http://svc/a")
        registry.register("Echo", "b", "http://svc/b")
        bus.registry = registry
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=[], from_registry=False)
        vep.registry = registry
        vep.refresh_members_from_registry()
        assert set(vep.members) == {"http://svc/a", "http://svc/b"}


class TestRecovery:
    def test_retry_recovers_after_endpoint_returns(self, env, network, world):
        bus, repository = world
        load_recovery(repository, (RetryAction(max_retries=5, delay_seconds=1.0),))
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        endpoint = network.endpoint("http://svc/a")
        endpoint.available = False

        def repairer():
            yield env.timeout(2.5)
            endpoint.available = True

        env.process(repairer())
        assert call(env, network, vep.address) == "hi@echo-a"
        assert bus.retry_queue.redeliveries_succeeded >= 1
        assert vep.stats.recovered == 1

    def test_substitute_fails_over(self, env, network, world):
        bus, repository = world
        load_recovery(
            repository,
            (RetryAction(max_retries=1, delay_seconds=0.5), SubstituteAction("round_robin")),
        )
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a", "http://svc/b"],
            selection_strategy="primary",
        )
        network.endpoint("http://svc/a").available = False
        assert call(env, network, vep.address) == "hi@echo-b"

    def test_overlapping_recoveries_each_report_their_own_substitute(
        self, env, network, container, world
    ):
        """Regression: the VEP read the recovered member off the *last*
        entry of the shared ``adaptation.outcomes`` list, so the first of
        two overlapping recoveries to finish reported the other's (still
        unset) target to the response-side pipeline and monitoring."""
        bus, repository = world
        load_recovery(repository, (SubstituteAction("round_robin"),))
        container.deploy(SlowEchoService(env, "echo-slow", "http://svc/slow", delay=2.0))

        targets = []

        class TargetRecorder(MessageProcessingModule):
            def process_response(self, envelope, context):
                targets.append(context.target)
                return envelope

        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/a", "http://svc/b", "http://svc/slow"],
            selection_strategy="primary",
            pipeline=MessagePipeline([TargetRecorder("targets")]),
        )
        network.endpoint("http://svc/a").available = False
        invoker = Invoker(env, network, caller="client")
        payload = ECHO_CONTRACT.operation("echo").input.build(text="hi")
        # Both fail on a; the first substitutes to b and answers while the
        # second is still waiting on the slow member.
        for _ in range(2):
            env.process(invoker.invoke(vep.address, "echo", payload, timeout=60.0))
        env.run()
        assert vep.stats.recovered == 2
        assert targets == ["http://svc/b", "http://svc/slow"]

    def test_backup_substitute(self, env, network, world):
        bus, repository = world
        load_recovery(
            repository,
            (SubstituteAction(strategy="backup", backup_address="http://svc/c"),),
        )
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        network.endpoint("http://svc/a").available = False
        assert call(env, network, vep.address) == "hi@echo-c"

    def test_skip_returns_synthetic_reply(self, env, network, world):
        bus, repository = world
        load_recovery(repository, (SkipAction(reason="not critical"),))
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        network.endpoint("http://svc/a").available = False
        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            response = yield from invoker.invoke(vep.address, "echo", payload)
            return response.body.child_text("skipped")

        assert run_process(env, client()) == "true"

    def test_concurrent_invoke_action_recovers(self, env, network, world):
        bus, repository = world
        load_recovery(repository, (ConcurrentInvokeAction(),))
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/a", "http://svc/b", "http://svc/c"],
            selection_strategy="primary",
        )
        network.endpoint("http://svc/a").available = False
        answer = call(env, network, vep.address)
        assert answer in ("hi@echo-b", "hi@echo-c")

    def test_no_policy_dead_letters(self, env, network, world):
        bus, repository = world  # no policies loaded
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        network.endpoint("http://svc/a").available = False
        with pytest.raises(SoapFaultError):
            call(env, network, vep.address)
        assert len(bus.dead_letters) == 1
        assert vep.stats.failures == 1

    def test_exhausted_recovery_dead_letters_once(self, env, network, world):
        bus, repository = world
        load_recovery(repository, (RetryAction(max_retries=2, delay_seconds=0.1),))
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        network.endpoint("http://svc/a").available = False
        with pytest.raises(SoapFaultError):
            call(env, network, vep.address)
        assert len(bus.dead_letters) == 1
        assert bus.retry_queue.redeliveries_attempted == 2

    def test_policy_condition_gates_recovery(self, env, network, world):
        bus, repository = world
        document = PolicyDocument("gated")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="only-timeouts",
                triggers=("fault.*",),
                condition="fault_code == 'Timeout'",
                actions=(SubstituteAction("round_robin"),),
            )
        )
        repository.load(document)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a", "http://svc/b"],
            selection_strategy="primary",
        )
        network.endpoint("http://svc/a").available = False
        # ServiceUnavailable does not satisfy the condition: no recovery.
        with pytest.raises(SoapFaultError):
            call(env, network, vep.address)

    def test_recovery_outcomes_recorded(self, env, network, world):
        bus, repository = world
        load_recovery(repository, (SubstituteAction("round_robin"),))
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a", "http://svc/b"],
            selection_strategy="primary",
        )
        network.endpoint("http://svc/a").available = False
        call(env, network, vep.address)
        (outcome,) = bus.adaptation.outcomes
        assert outcome.recovered
        assert outcome.fault_code == "ServiceUnavailable"
        assert outcome.final_target == "http://svc/b"


def two_step_document():
    """p1 takes the subject ``normal -> recovering``; p2 requires
    ``recovering``. ``Skip`` is an action every decision site can walk."""
    document = PolicyDocument("two-step")
    for name, priority, before, after, value in (
        ("p1", 1, "normal", "recovering", -1.0),
        ("p2", 2, "recovering", "done", -2.0),
    ):
        document.adaptation_policies.append(
            AdaptationPolicy(
                name=name,
                triggers=("fault.*", "process-fault.*"),
                actions=(SkipAction(reason=name),),
                state_before=before,
                state_after=after,
                business_value=BusinessValue(value),
                priority=priority,
            )
        )
    return document


class _MessagingPoint(EnforcementPoint):
    layer = "messaging"

    def enact(self, action, policy, event):
        return True


def _through_decision_maker(env, network, container):
    """One event: both policies get their turn in one pass."""
    repository = PolicyRepository()
    repository.load(two_step_document())
    maker = MASCPolicyDecisionMaker(env, repository)
    maker.register_enforcement_point(_MessagingPoint())
    decisions = maker.handle(MASCEvent(name="fault.Timeout", time=0.0, endpoint="http://svc/a"))
    assert [(d.policy_name, d.applied) for d in decisions] == [("p1", True), ("p2", True)]
    return repository


def _through_handle_event(env, network, container):
    """One event: both walked in one pass (``Skip`` is unsupported off the
    message path, and the manager accounts for a walked policy regardless)."""
    repository = PolicyRepository()
    repository.load(two_step_document())
    bus = WsBus(env, network, repository=repository)
    enacted = bus.adaptation.handle_event(
        MASCEvent(name="fault.Timeout", time=0.0, endpoint="http://svc/a")
    )
    assert [record.actions_taken for record in enacted] == [
        ["unsupported-here: skip invocation (p1)"],
        ["unsupported-here: skip invocation (p2)"],
    ]
    return repository


def _through_recover(env, network, container):
    """The first policy that recovers ends a recovery: one per failed call."""
    container.deploy(EchoService(env, "echo-a", "http://svc/a"))
    repository = PolicyRepository()
    repository.load(two_step_document())
    bus = WsBus(env, network, repository=repository, member_timeout=5.0)
    vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
    network.endpoint("http://svc/a").available = False
    invoker = Invoker(env, network, caller="client")
    for _ in range(2):
        payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
        run_process(env, invoker.invoke(vep.address, "echo", payload))
    assert [outcome.policies_consulted for outcome in bus.adaptation.outcomes] == [
        ["p1"],
        ["p1", "p2"],
    ]
    return repository


def _through_advise_on_fault(env, network, container):
    """The first policy with a verdict ends a consultation: one per fault."""
    masc = MASC(seed=1)
    masc.repository.load(two_step_document())
    calls = [
        Invoke(name, operation="echo", to="http://svc/nowhere", inputs={"text": "x"})
        for name in ("first", "second")
    ]
    instance = masc.engine.start(ProcessDefinition("p", Sequence("main", calls)))
    masc.engine.run_to_completion(instance)
    assert [report.policy_name for report in masc.adaptation.reports] == ["p1", "p2"]
    return masc.repository


class TestOnePolicyEvaluationPath:
    @pytest.mark.parametrize(
        "site",
        [_through_decision_maker, _through_handle_event, _through_recover, _through_advise_on_fault],
    )
    def test_every_sequential_site_walks_the_two_step_document_alike(
        self, site, env, network, container
    ):
        repository = site(env, network, container)
        assert [entry.policy_name for entry in repository.ledger] == ["p1", "p2"]
        assert [entry.value.amount for entry in repository.ledger] == [-1.0, -2.0]
        (subject,) = {entry.subject for entry in repository.ledger}
        assert repository.state_of(subject) == "done"

    def test_recover_keys_its_state_by_the_failed_endpoint(self, env, network, container):
        """Even when the envelope carries a process-instance id."""
        container.deploy(EchoService(env, "echo-a", "http://svc/a"))
        repository = PolicyRepository()
        repository.load(two_step_document())
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        network.endpoint("http://svc/a").available = False
        invoker = Invoker(env, network, caller="engine")
        payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
        run_process(
            env, invoker.invoke(vep.address, "echo", payload, process_instance_id="proc-7")
        )
        assert [entry.subject for entry in repository.ledger] == ["endpoint:http://svc/a"]


class TestBroadcastVep:
    def test_first_response_wins(self, env, network, container, world):
        bus, _ = world
        container.deploy(SlowEchoService(env, "slowpoke", "http://svc/slow", delay=30))
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/slow", "http://svc/a"],
            broadcast=True,
        )
        assert call(env, network, vep.address) == "hi@echo-a"
        assert env.now < 10

    def test_broadcast_survives_partial_failure(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/a", "http://svc/b"],
            broadcast=True,
        )
        network.endpoint("http://svc/a").available = False
        assert call(env, network, vep.address) == "hi@echo-b"

    def test_broadcast_total_failure(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a", "http://svc/b"], broadcast=True
        )
        network.endpoint("http://svc/a").available = False
        network.endpoint("http://svc/b").available = False
        with pytest.raises(SoapFaultError):
            call(env, network, vep.address)


class TestSelectionStrategies:
    def test_best_response_time_uses_history(self, env, network, container, world):
        bus, _ = world
        container.deploy(SlowEchoService(env, "tortoise", "http://svc/slow", delay=2.0))
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/slow", "http://svc/a"],
            selection_strategy="round_robin",
        )
        # Build QoS history across both members.
        for _ in range(4):
            call(env, network, vep.address)
        vep.selection_strategy = "best_response_time"
        assert call(env, network, vep.address) == "hi@echo-a"

    def test_content_based_routing(self, env, network, world):
        bus, _ = world
        bus.selection.add_content_rule(
            "echo",
            ContentRule(ApplicabilityRule(xpath="text[. = 'route-me']"), "http://svc/c"),
        )
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/a", "http://svc/b", "http://svc/c"],
            selection_strategy="content",
        )
        assert call(env, network, vep.address, text="route-me") == "route-me@echo-c"
        assert call(env, network, vep.address, text="other") == "other@echo-a"

    def test_random_strategy_is_seeded(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/a", "http://svc/b", "http://svc/c"],
            selection_strategy="random",
        )
        answers = {call(env, network, vep.address) for _ in range(12)}
        assert len(answers) > 1  # actually randomizes

    def test_unknown_strategy_rejected(self, env, network, world):
        bus, _ = world
        with pytest.raises(ValueError):
            bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"],
                           selection_strategy="astrology")


class TestProxyDeployment:
    def test_transparent_proxy_preserves_address(self, env, network, world):
        bus, repository = world
        load_recovery(repository, (SubstituteAction("round_robin"),))
        bus.deploy_as_proxy(
            "proxy-a", ECHO_CONTRACT, "http://svc/a", extra_members=["http://svc/b"]
        )
        # Clients keep calling the original address...
        assert call(env, network, "http://svc/a") == "hi@echo-a"
        # ...and transparently fail over when the origin dies.
        network.endpoint("http://svc/a#origin").available = False
        assert call(env, network, "http://svc/a") == "hi@echo-b"

    def test_proxy_requires_existing_service(self, env, network, world):
        bus, _ = world
        with pytest.raises(ValueError):
            bus.deploy_as_proxy("ghost", ECHO_CONTRACT, "http://nothing")

    def test_fault_injection_resolves_through_proxy_to_origin(self, env, network, world):
        bus, repository = world
        load_recovery(repository, (SubstituteAction("round_robin"),))
        bus.deploy_as_proxy(
            "proxy-a", ECHO_CONTRACT, "http://svc/a", extra_members=["http://svc/b"]
        )
        # Operators keep aiming fault injection at the service's public
        # address; it must degrade the relocated origin, not the proxy
        # that is supposed to mediate the failure. (Regression: the proxy
        # used to mirror the origin's availability once at deploy time and
        # post-deployment injection knocked out the proxy itself.)
        target = network.fault_injection_target("http://svc/a")
        assert target is network.endpoint("http://svc/a#origin")
        target.available = False
        assert network.endpoint("http://svc/a").available  # front door stays up
        assert call(env, network, "http://svc/a") == "hi@echo-b"

    def test_availability_injector_at_public_address_spares_proxy(
        self, env, network, world
    ):
        from repro.faultinjection import EndpointFault, FaultInjector
        from repro.simulation import RandomSource

        bus, repository = world
        load_recovery(repository, (SubstituteAction("round_robin"),))
        bus.deploy_as_proxy(
            "proxy-a", ECHO_CONTRACT, "http://svc/a", extra_members=["http://svc/b"]
        )
        injector = FaultInjector(env, network, RandomSource(3))
        injector.inject(EndpointFault("http://svc/a", 2.0, 1.0, random=True))
        env.run(until=30.0)
        injector.finalize()
        # The storm toggled the relocated origin, never the proxy front
        # door, so clients calling the original address keep being served.
        assert injector.logs["http://svc/a"].failure_count >= 1
        assert network.endpoint("http://svc/a").available
        assert call(env, network, "http://svc/a").startswith("hi@echo-")


class TestBusMonitoringIntegration:
    def test_qos_threshold_violation_blocks_response(self, env, network, container, world):
        bus, repository = world
        document = PolicyDocument("sla")
        document.monitoring_policies.append(
            MonitoringPolicy(
                name="rtt-sla",
                events=("message.response",),
                scope=PolicyScope(service_type="Echo"),
                qos_thresholds=(QoSThreshold("response_time", "lte", 0.001, window=10),),
            )
        )
        repository.load(document)
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        # The (absurdly tight) SLA is violated as soon as the first QoS
        # sample lands, and the violation surfaces to the client.
        with pytest.raises(SoapFaultError) as excinfo:
            call(env, network, vep.address)
        assert excinfo.value.fault.code is FaultCode.SLA_VIOLATION
        assert bus.monitoring.violations_detected >= 1

    def test_stats_summary_shape(self, env, network, world):
        bus, _ = world
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        call(env, network, vep.address)
        summary = bus.stats_summary()
        assert summary["veps"]["echo"]["successes"] == 1
        assert summary["dead_letters"] == 0


class TestMessageValidation:
    def test_validate_messages_rejects_bad_requests(self, env, network, world):
        from repro.xmlutils import Element

        bus, _ = world
        vep = VirtualEndpointFactoryHelper = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a"]
        )
        # Recreate with validation enabled (separate VEP name).
        validated = bus.create_vep(
            "echo-validated", ECHO_CONTRACT, members=["http://svc/a"]
        )
        validated.validate_messages = True
        from repro.wsbus.inspectors import ContractValidationInspector

        validated.pipeline.insert(0, ContractValidationInspector(ECHO_CONTRACT))
        invoker = Invoker(env, network)

        def client():
            bad = Element("echoRequest")  # missing required 'text'
            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.invoke(validated.address, "echo", bad)
            return excinfo.value.fault.code

        assert run_process(env, client()) is FaultCode.CLIENT
        assert validated.stats.violations == 1

    def test_validation_flag_wires_inspector(self, env, network, world):
        bus, _ = world
        # Use the constructor path rather than create_vep (which does not
        # expose the flag) to verify the automatic wiring.
        from repro.wsbus import VirtualEndpoint

        vep = VirtualEndpoint(
            name="inline",
            contract=ECHO_CONTRACT,
            env=env,
            sender=bus._send,
            selection=bus.selection,
            monitoring=bus.monitoring,
            adaptation=bus.adaptation,
            members=["http://svc/a"],
            validate_messages=True,
        )
        assert any(m.name == "contract-validation" for m in vep.pipeline.modules)
