"""Unit tests for the MASC core: monitoring, store, decisions, adaptation."""

import pytest

from repro.core import (
    CorrelationRule,
    MASC,
    MASCEvent,
    MASCMonitoringService,
    MASCPolicyDecisionMaker,
    MonitoringStore,
    StoredMessage,
)
from repro.core.decision_maker import EnforcementPoint
from repro.policy import (
    AdaptationPolicy,
    BusinessValue,
    MessageCondition,
    MonitoringPolicy,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    QoSThreshold,
    RetryAction,
)
from repro.services import ServiceRegistry
from repro.simulation import Environment
from repro.soap import AddressingHeaders, FaultCode, SoapEnvelope
from repro.xmlutils import Element


def order_envelope(amount=500, country="US", process_instance_id=None):
    body = Element("getRecommendationRequest")
    body.add("amount", text=str(amount))
    body.add("country", text=country)
    addressing = AddressingHeaders(to="http://svc", action="urn:op:getRecommendation")
    if process_instance_id:
        addressing = addressing.with_process_instance(process_instance_id)
    return SoapEnvelope(addressing=addressing, body=body)


class RecordingPoint(EnforcementPoint):
    layer = "process"

    def __init__(self, result=True):
        self.result = result
        self.enacted = []

    def enact(self, action, policy, event):
        self.enacted.append((type(action).__name__, policy.name, event.name))
        return self.result


class TestMonitoringStore:
    def _message(self, time=0.0, operation="op", pid=None, direction="request"):
        return StoredMessage(
            time=time,
            direction=direction,
            operation=operation,
            target="http://svc",
            envelope=order_envelope(process_instance_id=pid),
            process_instance_id=pid,
        )

    def test_store_and_query_by_instance(self):
        store = MonitoringStore()
        store.store(self._message(pid="proc-1"))
        store.store(self._message(pid="proc-2"))
        assert len(store.for_instance("proc-1")) == 1

    def test_query_filters_compose(self):
        store = MonitoringStore()
        store.store(self._message(operation="a", direction="request"))
        store.store(self._message(operation="a", direction="response"))
        store.store(self._message(operation="b", direction="request"))
        assert len(store.messages(operation="a", direction="request")) == 1

    def test_capacity_evicts_fifo(self):
        store = MonitoringStore(capacity=2)
        store.store(self._message(time=1.0))
        store.store(self._message(time=2.0))
        store.store(self._message(time=3.0))
        assert len(store) == 2
        assert store.messages()[0].time == 2.0

    def test_correlation_rule_fires_across_messages(self):
        store = MonitoringStore()
        rule = CorrelationRule(
            name="three-requests",
            emits="burst.detected",
            predicate=lambda msg, history: {"count": len(history)} if len(history) >= 3 else None,
            operation="op",
        )
        store.add_rule(rule)
        assert store.store(self._message(time=1.0)) == []
        assert store.store(self._message(time=2.0)) == []
        fired = store.store(self._message(time=3.0))
        assert fired and fired[0][1] == {"count": 3}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MonitoringStore(capacity=0)


class TestMonitoringService:
    def _service(self, policies, qos_lookup=None):
        env = Environment()
        repo = PolicyRepository()
        document = PolicyDocument("d")
        document.monitoring_policies.extend(policies)
        repo.load(document)
        service = MASCMonitoringService(env, repo, qos_lookup=qos_lookup)
        events = []
        service.router.subscribe(events.append)
        return service, events

    def test_detection_policy_emits_with_context(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="detect",
                    events=("message.request",),
                    conditions=(MessageCondition("country", "ne", "AU"),),
                    extract={"amount": "amount", "country": "country"},
                    emits=("trade.international",),
                )
            ]
        )
        service.observe_message("request", order_envelope(country="US", amount=900), "getRecommendation", "http://svc")
        assert [e.name for e in events] == ["trade.international"]
        assert events[0].context == {"amount": 900, "country": "US"}

    def test_a_load_or_unload_between_two_messages_changes_the_matched_policies(self):
        """Trigger matches are resolved per load/unload, never kept past one."""
        service, events = self._service([])

        def observe():
            events.clear()
            service.observe_message(
                "request", order_envelope(country="US"), "getRecommendation", "http://svc"
            )
            return [event.raised_by for event in events]

        assert observe() == []
        document = PolicyDocument("late")
        document.monitoring_policies.append(
            MonitoringPolicy(
                name="detect", events=("message.request",), emits=("trade.seen",)
            )
        )
        service.repository.load(document)
        assert observe() == ["detect"]
        service.repository.unload("late")
        assert observe() == []

    def test_registry_names_the_service_type_of_the_target(self):
        env = Environment()
        registry = ServiceRegistry()
        registry.register("Trading", "t", "http://svc")
        registry.register("Analysis", "a", "http://svc")
        repo = PolicyRepository()
        document = PolicyDocument("d")
        document.monitoring_policies.append(
            MonitoringPolicy(
                name="detect",
                events=("message.request",),
                scope=PolicyScope(service_type="Analysis"),
                emits=("trade.seen",),
            )
        )
        repo.load(document)
        service = MASCMonitoringService(env, repo, registry=registry)
        events = []
        service.router.subscribe(events.append)
        service.observe_message("request", order_envelope(), "getRecommendation", "http://svc")
        assert [(e.name, e.service_type) for e in events] == [("trade.seen", "Analysis")]

    def test_detection_policy_silent_when_conditions_fail(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="detect",
                    events=("message.request",),
                    conditions=(MessageCondition("country", "ne", "AU"),),
                    emits=("trade.international",),
                )
            ]
        )
        service.observe_message("request", order_envelope(country="AU"), "getRecommendation", "http://svc")
        assert events == []

    def test_constraint_policy_raises_classified_fault(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="constrain",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "lte", "100"),),
                    classify_as=FaultCode.SERVICE_FAILURE,
                )
            ]
        )
        service.observe_message("request", order_envelope(amount=5000), "op", "http://svc")
        assert [e.name for e in events] == ["fault.ServiceFailure"]
        assert service.violations_raised == 1

    def test_constraint_policy_silent_when_satisfied(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="constrain",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "lte", "100000"),),
                    classify_as=FaultCode.SERVICE_FAILURE,
                )
            ]
        )
        service.observe_message("request", order_envelope(amount=5), "op", "http://svc")
        assert events == []

    def test_relevance_condition_gates_policy(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="gated",
                    events=("message.request",),
                    condition="amount > 1000",
                    extract={"amount": "amount"},
                    emits=("big.order",),
                )
            ]
        )
        service.observe_message("request", order_envelope(amount=10), "op", "http://svc")
        assert events == []
        service.observe_message("request", order_envelope(amount=9999), "op", "http://svc")
        assert [e.name for e in events] == ["big.order"]

    def test_qos_threshold_violation(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="sla",
                    events=("message.response",),
                    qos_thresholds=(QoSThreshold("response_time", "lte", 1.0),),
                )
            ],
            qos_lookup=lambda metric, window, aggregate, endpoint: 2.5,
        )
        service.observe_message("response", order_envelope(), "op", "http://svc")
        assert [e.name for e in events] == ["fault.SLAViolation"]
        assert events[0].context["observed_value"] == 2.5

    def test_violated_constraint_still_checks_its_thresholds(self):
        """The process layer raises ``fault.<Code>`` for the violated
        constraint and then checks the policy's thresholds anyway (the bus
        skips them: ``test_wsbus_monitoring.py``)."""
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="constrain",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "lte", "100"),),
                    extract={"amount": "amount"},
                    classify_as=FaultCode.SERVICE_FAILURE,
                    emits=("never.raised.here",),
                    qos_thresholds=(QoSThreshold("response_time", "lte", 1.0),),
                )
            ],
            qos_lookup=lambda metric, window, aggregate, endpoint: 2.5,
        )
        service.observe_message("request", order_envelope(amount=5000), "op", "http://svc")
        assert [e.name for e in events] == ["fault.ServiceFailure", "fault.ServiceFailure"]
        assert events[0].context == {"amount": 5000}
        assert events[1].context["violated_metric"] == "response_time"
        assert service.violations_raised == 2

    def test_thresholds_are_not_looked_up_without_a_qos_lookup(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="sla",
                    events=("message.response",),
                    qos_thresholds=(QoSThreshold("response_time", "lte", 1.0),),
                )
            ]
        )
        service.observe_message("response", order_envelope(), "op", "http://svc")
        assert events == []

    def test_event_carries_process_instance_id(self):
        service, events = self._service(
            [
                MonitoringPolicy(
                    name="detect",
                    events=("message.request",),
                    emits=("seen",),
                )
            ]
        )
        service.observe_message(
            "request", order_envelope(process_instance_id="proc-8"), "op", "http://svc"
        )
        assert events[0].process_instance_id == "proc-8"

    def test_messages_counted(self):
        service, _ = self._service([])
        service.observe_message("request", order_envelope(), "op", "http://svc")
        assert service.messages_observed == 1


class TestDecisionMaker:
    def _setup(self, policies, point=None):
        env = Environment()
        repo = PolicyRepository()
        document = PolicyDocument("d")
        document.adaptation_policies.extend(policies)
        repo.load(document)
        maker = MASCPolicyDecisionMaker(env, repo)
        if point is not None:
            maker.register_enforcement_point(point)
        return maker, repo

    def _event(self, name="fault.Timeout", context=None, **kwargs):
        return MASCEvent(name=name, time=0.0, context=context or {}, **kwargs)

    def test_dispatches_to_enforcement_point(self):
        point = RecordingPoint()
        maker, _ = self._setup(
            [AdaptationPolicy(name="p", triggers=("fault.Timeout",), actions=(RetryAction(),))],
            point,
        )
        # RetryAction is messaging-layer; register the point for that layer.
        point.layer = "messaging"
        maker.register_enforcement_point(point)
        decisions = maker.handle(self._event())
        assert decisions[0].applied
        assert point.enacted == [("RetryAction", "p", "fault.Timeout")]

    def test_condition_blocks_application(self):
        point = RecordingPoint()
        point.layer = "messaging"
        maker, _ = self._setup(
            [
                AdaptationPolicy(
                    name="p",
                    triggers=("fault.Timeout",),
                    condition="severity > 5",
                    actions=(RetryAction(),),
                )
            ],
            point,
        )
        decisions = maker.handle(self._event(context={"severity": 1}))
        assert not decisions[0].applied
        assert "condition" in decisions[0].detail

    def test_state_gating_and_transition(self):
        point = RecordingPoint()
        point.layer = "messaging"
        maker, repo = self._setup(
            [
                AdaptationPolicy(
                    name="p",
                    triggers=("fault.Timeout",),
                    state_before="normal",
                    state_after="recovering",
                    actions=(RetryAction(),),
                )
            ],
            point,
        )
        event = self._event(endpoint="http://svc")
        first = maker.handle(event)
        assert first[0].applied
        assert repo.state_of("endpoint:http://svc") == "recovering"
        second = maker.handle(event)
        assert not second[0].applied  # state no longer matches

    def test_non_applications_carry_the_repositorys_rejection_texts(self):
        maker, repo = self._setup(
            [
                AdaptationPolicy(
                    name="irrelevant",
                    triggers=("fault.Timeout",),
                    condition="severity > 5",
                    actions=(RetryAction(),),
                    priority=1,
                ),
                AdaptationPolicy(
                    name="wrong-state",
                    triggers=("fault.Timeout",),
                    state_before="recovering",
                    actions=(RetryAction(),),
                    priority=2,
                ),
            ]
        )
        decisions = maker.handle(self._event(context={"severity": 1}))
        assert [d.detail for d in decisions] == [
            "condition not satisfied",
            "subject in state 'normal', policy requires 'recovering'",
        ]
        assert [d.actions for d in decisions] == [[], []]

    def test_accounts_only_when_every_action_succeeded(self):
        """The decision maker books post-state and business value only for
        a fully enacted policy (``AdaptationManager.handle_event`` books
        once the actions were walked: ``test_wsbus_vep.py``)."""
        point = RecordingPoint(result=False)
        point.layer = "messaging"
        maker, repo = self._setup(
            [
                AdaptationPolicy(
                    name="p",
                    triggers=("fault.Timeout",),
                    state_after="recovering",
                    actions=(RetryAction(),),
                    business_value=BusinessValue(-3.0, "AUD"),
                )
            ],
            point,
        )
        (decision,) = maker.handle(self._event(endpoint="http://svc"))
        assert not decision.applied and decision.actions[0].startswith("NO-EFFECT")
        assert repo.state_of("endpoint:http://svc") == "normal"
        assert repo.ledger == []

    def test_missing_enforcement_point_skips_action(self):
        maker, _ = self._setup(
            [AdaptationPolicy(name="p", triggers=("fault.Timeout",), actions=(RetryAction(),))]
        )
        decisions = maker.handle(self._event())
        assert not decisions[0].applied
        assert decisions[0].actions[0].startswith("SKIPPED")

    def test_business_value_recorded_on_success(self):
        point = RecordingPoint()
        point.layer = "messaging"
        maker, repo = self._setup(
            [
                AdaptationPolicy(
                    name="p",
                    triggers=("fault.Timeout",),
                    actions=(RetryAction(),),
                    business_value=BusinessValue(-3.0, "AUD"),
                )
            ],
            point,
        )
        maker.handle(self._event())
        assert repo.business_totals() == {"AUD": -3.0}

    def test_priority_order_in_decisions(self):
        point = RecordingPoint()
        point.layer = "messaging"
        maker, _ = self._setup(
            [
                AdaptationPolicy(name="late", triggers=("e",), actions=(RetryAction(),), priority=99),
                AdaptationPolicy(name="early", triggers=("e",), actions=(RetryAction(),), priority=1),
            ],
            point,
        )
        decisions = maker.handle(self._event(name="e"))
        assert [d.policy_name for d in decisions] == ["early", "late"]

    def test_decisions_query(self):
        point = RecordingPoint()
        point.layer = "messaging"
        maker, _ = self._setup(
            [AdaptationPolicy(name="p", triggers=("e",), actions=(RetryAction(),))], point
        )
        maker.handle(self._event(name="e"))
        assert len(maker.decisions_for("p", applied_only=True)) == 1
        assert maker.decisions_for("ghost") == []


class TestMASCFacade:
    def test_facade_wiring(self):
        masc = MASC(seed=1)
        assert masc.engine.registry is masc.registry
        assert masc.adaptation.engine is masc.engine
        # Monitoring feeds decisions.
        assert masc.monitoring.router.handlers("fault.ServiceFailure") == (masc.decision_maker.handle,)

    def test_load_policies_via_facade(self):
        masc = MASC(seed=1)
        document = PolicyDocument("d")
        document.adaptation_policies.append(
            AdaptationPolicy(name="p", triggers=("e",), actions=(RetryAction(),))
        )
        from repro.policy import serialize_policy_document

        masc.load_policies(serialize_policy_document(document))
        assert masc.repository.find_policy("p") is not None


class TestDelayProcessAction:
    def test_delay_suspends_then_resumes(self):
        from repro.casestudies.stocktrading import build_trading_deployment
        from repro.policy import (
            AdaptationPolicy,
            DelayProcessAction,
            MonitoringPolicy,
            PolicyDocument,
            PolicyScope,
            serialize_policy_document,
        )
        from repro.orchestration.instance import InstanceStatus

        deployment = build_trading_deployment(seed=15)
        document = PolicyDocument("delay")
        document.monitoring_policies.append(
            MonitoringPolicy(
                name="watch-orders",
                events=("message.request",),
                scope=PolicyScope(operation="placeOrder"),
                emits=("order.observed",),
            )
        )
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="cooling-off-period",
                triggers=("order.observed",),
                actions=(DelayProcessAction(delay_seconds=30.0),),
            )
        )
        deployment.masc.load_policies(serialize_policy_document(document))
        instance = deployment.run_order(amount=1000.0)
        assert instance.status is InstanceStatus.COMPLETED
        # The 30 s cooling-off delay dominates the run time.
        assert deployment.env.now >= 30.0
        suspends = deployment.masc.tracking.events_for(instance.id, "instance_suspended")
        resumes = deployment.masc.tracking.events_for(instance.id, "instance_resumed")
        assert len(suspends) == 1 and len(resumes) == 1

    def test_delay_action_xml_round_trip(self):
        from repro.policy import (
            AdaptationPolicy,
            DelayProcessAction,
            PolicyDocument,
            parse_policy_document,
            serialize_policy_document,
        )

        document = PolicyDocument("d")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="p", triggers=("e",), actions=(DelayProcessAction(7.5),)
            )
        )
        reparsed = parse_policy_document(serialize_policy_document(document))
        (action,) = reparsed.adaptation_policies[0].actions
        assert isinstance(action, DelayProcessAction)
        assert action.delay_seconds == 7.5

    def test_delay_must_be_positive(self):
        import pytest as _pytest

        from repro.policy import DelayProcessAction
        from repro.policy.actions import ActionError

        with _pytest.raises(ActionError):
            DelayProcessAction(delay_seconds=0.0)
