"""Tests for optimizing (utility/goal) and preventive adaptation."""

import pytest

from conftest import ECHO_CONTRACT, EchoService, run_process
from repro.core import (
    MASCEvent,
    QoSTrendDetector,
    UtilityDrivenDecisionMaker,
    estimate_utility,
)
from repro.core.decision_maker import EnforcementPoint
from repro.policy import (
    AdaptationPolicy,
    BusinessValue,
    ConcurrentInvokeAction,
    GoalPolicy,
    PolicyDocument,
    PolicyError,
    PolicyRepository,
    PolicyScope,
    PreferBestAction,
    QuarantineAction,
    RetryAction,
    parse_policy_document,
    serialize_policy_document,
)
from repro.services import InvocationOutcome, InvocationRecord, Invoker
from repro.simulation import Environment
from repro.wsbus import BusEnforcementPoint, WsBus


class RecordingPoint(EnforcementPoint):
    layer = "messaging"

    def __init__(self):
        self.enacted = []

    def enact(self, action, policy, event):
        self.enacted.append(policy.name)
        return True


def goal(name="maximize", **kwargs):
    return GoalPolicy(name=name, **kwargs)


def policy(name, actions, value=None, priority=100, triggers=("fault.Timeout",)):
    return AdaptationPolicy(
        name=name,
        triggers=triggers,
        actions=actions,
        business_value=BusinessValue(value, "AUD") if value is not None else None,
        priority=priority,
    )


class TestGoalPolicyModel:
    def test_validation(self):
        with pytest.raises(PolicyError):
            GoalPolicy(name="", goal="maximize_business_value")
        with pytest.raises(PolicyError):
            GoalPolicy(name="g", goal="world_domination")

    def test_xml_round_trip(self):
        document = PolicyDocument("d")
        document.goal_policies.append(
            GoalPolicy(
                name="g",
                goal="minimize_cost",
                scope=PolicyScope(service_type="Retailer"),
                time_value_per_second=2.5,
                bandwidth_cost_per_message=0.3,
                priority=5,
            )
        )
        reparsed = parse_policy_document(serialize_policy_document(document))
        (parsed,) = reparsed.goal_policies
        assert parsed.goal == "minimize_cost"
        assert parsed.scope.service_type == "Retailer"
        assert parsed.time_value_per_second == 2.5
        assert parsed.bandwidth_cost_per_message == 0.3

    def test_new_actions_round_trip(self):
        document = PolicyDocument("d")
        document.adaptation_policies.append(
            policy("p", (QuarantineAction(120.0), PreferBestAction("reliability", 25)))
        )
        reparsed = parse_policy_document(serialize_policy_document(document))
        quarantine, prefer = reparsed.adaptation_policies[0].actions
        assert quarantine.duration_seconds == 120.0
        assert prefer.metric == "reliability" and prefer.window == 25

    def test_repository_goal_lookup(self):
        repo = PolicyRepository()
        document = PolicyDocument("d")
        document.goal_policies.append(goal("broad", priority=50))
        document.goal_policies.append(
            goal("retailer-specific", scope=PolicyScope(service_type="Retailer"), priority=1)
        )
        repo.load(document)
        assert repo.goal_policy_for(service_type="Retailer").name == "retailer-specific"
        assert repo.goal_policy_for(service_type="Other").name == "broad"
        assert repo.find_policy("broad") is not None


class TestUtilityEstimation:
    def test_retry_costs_time_and_bandwidth(self):
        g = goal(time_value_per_second=1.0, bandwidth_cost_per_message=0.1)
        estimate = estimate_utility(
            policy("p", (RetryAction(max_retries=3, delay_seconds=2.0),), value=5.0), g
        )
        # cost = (2+2+2)s * 1.0 + 3 * 0.1 = 6.3
        assert estimate.estimated_cost == pytest.approx(6.3)
        assert estimate.utility == pytest.approx(-1.3)

    def test_broadcast_costs_bandwidth(self):
        g = goal(bandwidth_cost_per_message=0.5)
        estimate = estimate_utility(
            policy("p", (ConcurrentInvokeAction(),), value=0.0), g, member_count=4
        )
        assert estimate.estimated_cost == pytest.approx(2.0)

    def test_backoff_increases_cost(self):
        g = goal()
        flat = estimate_utility(policy("f", (RetryAction(3, 2.0, 1.0),)), g)
        backoff = estimate_utility(policy("b", (RetryAction(3, 2.0, 2.0),)), g)
        assert backoff.estimated_cost > flat.estimated_cost


class TestUtilityDrivenDecisionMaker:
    def _setup(self, policies, goal_policies=()):
        env = Environment()
        repo = PolicyRepository()
        document = PolicyDocument("d")
        document.adaptation_policies.extend(policies)
        document.goal_policies.extend(goal_policies)
        repo.load(document)
        maker = UtilityDrivenDecisionMaker(env, repo)
        point = RecordingPoint()
        maker.register_enforcement_point(point)
        return maker, point

    def test_without_goal_policy_enacts_all_by_priority(self):
        maker, point = self._setup(
            [
                policy("cheap", (RetryAction(1, 0.1),), value=0.0, priority=2),
                policy("expensive", (RetryAction(9, 10.0),), value=0.0, priority=1),
            ]
        )
        maker.handle(MASCEvent(name="fault.Timeout", time=0.0))
        assert point.enacted == ["expensive", "cheap"]

    def test_goal_policy_selects_best_utility_only(self):
        maker, point = self._setup(
            [
                policy("cheap", (RetryAction(1, 0.1),), value=0.0, priority=2),
                policy("expensive", (RetryAction(9, 10.0),), value=0.0, priority=1),
            ],
            goal_policies=[goal()],
        )
        decisions = maker.handle(MASCEvent(name="fault.Timeout", time=0.0))
        assert point.enacted == ["cheap"]
        assert len(decisions) == 1
        assert "selected by goal policy" in decisions[0].detail
        assert maker.rankings and maker.rankings[0][0].policy_name == "cheap"

    def test_business_value_outweighs_cost(self):
        maker, point = self._setup(
            [
                policy("free-but-worthless", (RetryAction(1, 0.1),), value=0.0),
                policy("pricey-but-profitable", (RetryAction(3, 2.0),), value=100.0),
            ],
            goal_policies=[goal()],
        )
        maker.handle(MASCEvent(name="fault.Timeout", time=0.0))
        assert point.enacted == ["pricey-but-profitable"]

    def test_goal_scope_restricts_mode(self):
        maker, point = self._setup(
            [
                policy("a", (RetryAction(1, 0.1),), priority=2),
                policy("b", (RetryAction(1, 0.1),), priority=1),
            ],
            goal_policies=[goal(scope=PolicyScope(service_type="Retailer"))],
        )
        # Event outside the goal scope: classic priority-driven behaviour.
        maker.handle(MASCEvent(name="fault.Timeout", time=0.0, service_type="Other"))
        assert point.enacted == ["b", "a"]


class TestTrendDetector:
    def _record(self, start, duration):
        return InvocationRecord(
            caller="c",
            target="http://svc",
            operation="op",
            started_at=start,
            finished_at=start + duration,
            outcome=InvocationOutcome.SUCCESS,
        )

    def test_detects_degrading_trend(self):
        env = Environment()
        detector = QoSTrendDetector(env, slope_threshold=0.01, min_samples=10)
        events = []
        detector.router.subscribe(events.append)
        for index in range(20):
            env._now = float(index)  # advance observation time
            detector.observe(self._record(float(index), 0.05 + 0.02 * index))
        assert events and events[0].name == "qos.trend.degrading"
        assert events[0].endpoint == "http://svc"
        assert events[0].context["slope"] > 0
        assert detector.reports

    def test_stable_service_stays_quiet(self):
        env = Environment()
        detector = QoSTrendDetector(env, slope_threshold=0.01, min_samples=10)
        events = []
        detector.router.subscribe(events.append)
        for index in range(30):
            detector.observe(self._record(float(index), 0.05))
        assert events == []

    def test_cooldown_rate_limits(self):
        env = Environment()
        detector = QoSTrendDetector(env, slope_threshold=0.01, min_samples=5,
                                    cooldown_seconds=1000.0)
        events = []
        detector.router.subscribe(events.append)
        for index in range(40):
            env._now = float(index)
            detector.observe(self._record(float(index), 0.05 + 0.05 * index))
        assert len(events) == 1

    def test_failures_ignored(self):
        env = Environment()
        detector = QoSTrendDetector(env, min_samples=2)
        failing = InvocationRecord(
            caller="c", target="http://svc", operation="op",
            started_at=0.0, finished_at=5.0, outcome=InvocationOutcome.FAULT,
        )
        detector.observe(failing)
        assert detector._endpoints == {}


class TestBusEnforcement:
    @pytest.fixture
    def world(self, env, network, container):
        for name in ("a", "b"):
            container.deploy(EchoService(env, f"echo-{name}", f"http://svc/{name}"))
        bus = WsBus(env, network, repository=PolicyRepository(), member_timeout=5.0)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a", "http://svc/b"],
            selection_strategy="primary",
        )
        point = BusEnforcementPoint(bus)
        return bus, vep, point

    def _event(self, endpoint):
        return MASCEvent(name="qos.trend.degrading", time=0.0, endpoint=endpoint)

    def test_quarantine_removes_and_restores(self, env, world):
        bus, vep, point = world
        quarantine = AdaptationPolicy(
            name="q", triggers=("qos.trend.degrading",),
            actions=(QuarantineAction(duration_seconds=30.0),),
        )
        assert point.enact(quarantine.actions[0], quarantine, self._event("http://svc/a"))
        assert vep.members == ["http://svc/b"]
        env.run(until=31.0)
        assert set(vep.members) == {"http://svc/b", "http://svc/a"}
        assert point.quarantines[0].endpoint == "http://svc/a"

    def test_quarantine_never_empties_vep(self, env, world):
        bus, vep, point = world
        vep.members = ["http://svc/a"]
        action = QuarantineAction(duration_seconds=10.0)
        quarantine = AdaptationPolicy(name="q", triggers=("e",), actions=(action,))
        assert not point.enact(action, quarantine, self._event("http://svc/a"))
        assert vep.members == ["http://svc/a"]

    def test_double_quarantine_is_rejected(self, env, world):
        bus, vep, point = world
        action = QuarantineAction(duration_seconds=30.0)
        quarantine = AdaptationPolicy(name="q", triggers=("e",), actions=(action,))
        assert point.enact(action, quarantine, self._event("http://svc/a"))
        assert not point.enact(action, quarantine, self._event("http://svc/a"))

    def test_prefer_best_reorders_members(self, env, network, world):
        bus, vep, point = world
        # Give endpoint b a much better response-time history.
        from repro.services import InvocationOutcome, InvocationRecord

        bus.qos.observe(InvocationRecord("c", "http://svc/a", "echo", 0.0, 1.0,
                                         InvocationOutcome.SUCCESS))
        bus.qos.observe(InvocationRecord("c", "http://svc/b", "echo", 0.0, 0.1,
                                         InvocationOutcome.SUCCESS))
        action = PreferBestAction()
        optimize = AdaptationPolicy(name="o", triggers=("e",), actions=(action,))
        assert point.enact(action, optimize, self._event(None))
        assert vep.members[0] == "http://svc/b"

    def test_inline_actions_not_enactable_out_of_band(self, env, world):
        bus, vep, point = world
        action = RetryAction()
        corrective = AdaptationPolicy(name="r", triggers=("e",), actions=(action,))
        assert not point.enact(action, corrective, self._event("http://svc/a"))


class TestPreventiveEndToEnd:
    def test_trend_triggers_quarantine_through_decision_maker(self, env, network, container):
        """Full preventive loop: degrading QoS trend -> MASC event ->
        preventive policy -> quarantine -> traffic avoids the endpoint."""
        for name in ("a", "b"):
            container.deploy(EchoService(env, f"echo-{name}", f"http://svc/{name}"))
        repository = PolicyRepository()
        document = PolicyDocument("prevention")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="quarantine-degrading",
                triggers=("qos.trend.degrading",),
                adaptation_type="prevention",
                actions=(QuarantineAction(duration_seconds=100.0),),
            )
        )
        repository.load(document)

        bus = WsBus(env, network, repository=repository, member_timeout=10.0)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a", "http://svc/b"],
            selection_strategy="primary",
        )
        from repro.core import MASCPolicyDecisionMaker

        maker = MASCPolicyDecisionMaker(env, repository)
        maker.register_enforcement_point(BusEnforcementPoint(bus))
        detector = QoSTrendDetector(env, slope_threshold=0.005, min_samples=8)
        detector.router.subscribe(maker.handle)
        detector.attach_to_invoker(bus.invoker)

        endpoint_a = network.endpoint("http://svc/a")
        client = Invoker(env, network, caller="client")

        def drive():
            for index in range(25):
                # Endpoint A degrades steadily (but never actually fails).
                endpoint_a.added_delay_seconds = 0.01 * index
                payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
                response = yield from client.invoke(vep.address, "echo", payload, timeout=30.0)
                yield env.timeout(1.0)
            return response.body.child_text("text")

        final = run_process(env, drive())
        # Prevention kicked in: A was quarantined mid-run and the primary
        # strategy switched to B without any fault ever surfacing.
        assert detector.reports, "trend should have been detected"
        assert any(d.applied for d in maker.decisions)
        assert final == "x@echo-b"
        assert vep.stats.failures == 0
