"""The policy-decision golden corpus.

Seeded runs that between them walk every site where a policy is evaluated
and pin the *audit trail* each leaves: the six trading order profiles
(decision maker, static and dynamic customization), the resilient fault
storm (``recover`` and ``handle_event``; once more under policies that
carry pre-states, post-states and business values), the crash+outage fleet storm
(event forwarding to the leader), a process-correction run
(``advise_on_fault`` through retry, skip and replace), a utility-driven
run under both goals, and one monitoring document (detection, constraint
and QoS-threshold policies) evaluated by each monitoring service.
``tests/golden/decisions/<name>.json`` holds, per run, SHA-256 digests of
each recorded section (decisions, reports, ledger, subject states, the
emitted event stream, ...) beside its length, as recorded on the commit
*before* the five hand-written evaluation loops and the two monitoring
loops became one matcher and one evaluator (PR 16);
``test_decision_golden.py`` compares them. Re-record (only when a policy
is meant to be evaluated differently) with
``PYTHONPATH=src python tests/decision_corpus.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, replace
from pathlib import Path

from conftest import ECHO_CONTRACT, EchoService
from mediation_corpus import FLEET_STORM
from repro.casestudies.stocktrading import (
    ORDER_PROFILES,
    build_trading_deployment,
    customization_policy_documents,
)
from repro.core import (
    MASC,
    EnforcementPoint,
    MASCEvent,
    MASCMonitoringService,
    UtilityDrivenDecisionMaker,
)
from repro.experiments import fault_storm, run
from repro.observability import InMemoryExporter, Tracer
from repro.orchestration import Invoke, ProcessDefinition, ProcessFault, Reply, Sequence
from repro.policy import (
    AdaptationPolicy,
    BusinessValue,
    ConcurrentInvokeAction,
    GoalPolicy,
    InvokeSpec,
    MessageCondition,
    MonitoringPolicy,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    QoSThreshold,
    ReplaceActivityAction,
    RetryAction,
    SelectionStrategyAction,
    SkipAction,
    SubstituteAction,
    serialize_policy_document,
)
from repro.services import SimulatedService
from repro.simulation import Environment
from repro.soap import AddressingHeaders, FaultCode, SoapEnvelope, SoapFault, SoapFaultError, addressing
from repro.wsbus import BusMonitoringService, MonitoringPoint
from repro.xmlutils import Element

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "decisions"

def _records(items) -> list:
    return [asdict(item) for item in items]


def _repository_sections(repository: PolicyRepository) -> dict:
    return {
        "ledger": _records(repository.ledger),
        "business_totals": repository.business_totals(),
        "states": dict(sorted(repository._states.items())),
    }


# -- decision maker: the trading order profiles ------------------------------------


def _trading_order(profile: str) -> dict:
    deployment = build_trading_deployment(seed=3)
    for document in customization_policy_documents():
        deployment.masc.load_policies(serialize_policy_document(document))
    instance = deployment.run_order(**ORDER_PROFILES[profile])
    masc = deployment.masc
    return {
        "decisions": _records(masc.decision_maker.decisions),
        "reports": _records(masc.adaptation.reports),
        "executed": sorted(instance.executed_activities),
        **_repository_sections(masc.repository),
    }


# -- recover and handle_event: the storms ---------------------------------------------


def _stateful_recovery_document() -> PolicyDocument:
    """Recovery and SLO-reaction policies that use the clauses no case-study
    document does: required pre-state, post-state, business value."""
    document = PolicyDocument("stateful-recovery")

    def policy(name, triggers, actions, **kwargs):
        return AdaptationPolicy(
            name=name,
            triggers=triggers,
            scope=PolicyScope(service_type="Retailer"),
            actions=actions,
            **kwargs,
        )

    document.adaptation_policies.extend(
        [
            policy(
                "first-fault-marks",
                ("fault.*",),
                (RetryAction(max_retries=1, delay_seconds=0.2),),
                state_before="normal",
                state_after="suspect",
                business_value=BusinessValue(-0.5, "AUD", "one quick retry"),
                priority=5,
            ),
            policy(
                "suspect-fails-over",
                ("fault.*",),
                (SubstituteAction(strategy="round_robin"),),
                state_before="suspect",
                state_after="normal",
                business_value=BusinessValue(-2.0, "AUD", "failover"),
                priority=6,
            ),
            policy(
                "never-relevant",
                ("fault.*",),
                (SkipAction(),),
                condition="fault_code == 'NoSuchCode'",
                priority=1,
            ),
            policy(
                "burn-bookkeeping",
                ("sloBurnRateExceeded",),
                (SelectionStrategyAction(strategy="round_robin"),),
                state_after="burning",
                business_value=BusinessValue(-10.0, "AUD", "SLO burn"),
                priority=20,
            ),
            policy(
                "recovery-bookkeeping",
                ("sloRecovered",),
                (SelectionStrategyAction(strategy="best_response_time"),),
                state_before="burning",
                state_after="normal",
                business_value=BusinessValue(1.0, "AUD", "SLO recovered"),
                priority=20,
            ),
        ]
    )
    return document


def _fault_storm(*extra_policies: PolicyDocument) -> dict:
    scenario = fault_storm(5, resilience=True, slo=True)
    result = run(replace(scenario, policies=scenario.policies + extra_policies))
    manager = result.bus.adaptation
    return {
        "outcomes": _records(manager.outcomes),
        "event_adaptations": _records(manager.event_adaptations),
        **_repository_sections(result.bus.repository),
    }


def _fleet_storm() -> dict:
    tracer = Tracer()
    tracer.add_exporter(InMemoryExporter())
    result = run(FLEET_STORM, tracer=tracer)
    fleet = result.bus
    sections = {"leader": [result.leader, result.epoch, result.leader_changes]}
    for name in sorted(fleet.buses):
        manager = fleet.buses[name].adaptation
        sections[f"{name}.event_adaptations"] = _records(manager.event_adaptations)
        sections[f"{name}.forwarded_events"] = [manager.forwarded_events]
        sections[f"{name}.outcomes"] = _records(manager.outcomes)
    sections.update(_repository_sections(fleet.repository))
    return sections


# -- advise_on_fault: process-level correction ---------------------------------------


class _FlakyService(SimulatedService):
    """Fails the first ``fail_times`` calls, then echoes."""

    contract = ECHO_CONTRACT

    def __init__(self, *args, fail_times: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fail_times = fail_times
        self.calls = 0

    def op_echo(self, payload, ctx):
        self.calls += 1
        yield ctx.work()
        if self.calls <= self.fail_times:
            raise SoapFaultError(
                SoapFault(FaultCode.SERVICE_FAILURE, f"flaky failure {self.calls}")
            )
        return ECHO_CONTRACT.operation("echo").output.build(text="recovered")


def _correction_policy(name, activity, actions, **kwargs) -> AdaptationPolicy:
    return AdaptationPolicy(
        name=name,
        triggers=("process-fault.ServiceFailure",),
        scope=PolicyScope(process="correctable", activity=activity),
        actions=actions,
        **kwargs,
    )


def _process_correction() -> dict:
    """One instance whose three invocations fail into a retry, a skip and a
    replace, each guarded by the state the previous correction left."""
    masc = MASC(seed=13)
    masc.deploy(EchoService(masc.env, "backup", "http://svc/backup"))
    masc.deploy(_FlakyService(masc.env, "a", "http://svc/a", fail_times=2))
    masc.deploy(_FlakyService(masc.env, "b", "http://svc/b", fail_times=99))
    masc.deploy(_FlakyService(masc.env, "c", "http://svc/c", fail_times=99))
    backup = InvokeSpec(
        name="backup-call",
        operation="echo",
        address="http://svc/backup",
        inputs={"text": "from-backup"},
        outputs={"echoed": "text"},
    )
    document = PolicyDocument("correction")
    document.adaptation_policies.extend(
        [
            _correction_policy(
                "retry-a",
                "call-a",
                (RetryAction(max_retries=3, delay_seconds=1.0),),
                state_after="shaky",
                business_value=BusinessValue(-1.0, "AUD", "retry"),
            ),
            _correction_policy(
                "skip-b-for-gold",
                "call-b",
                (SkipAction(reason="gold only"),),
                condition="customer_tier == 'gold'",
                priority=10,
            ),
            _correction_policy(
                "skip-b-when-normal",
                "call-b",
                (SkipAction(reason="never: the retry left the instance shaky"),),
                state_before="normal",
                priority=20,
            ),
            _correction_policy(
                "retry-then-skip-b",
                "call-b",
                (RetryAction(max_retries=1, delay_seconds=0.5), SkipAction(reason="optional")),
                state_before="shaky",
                state_after="shaky",
                business_value=BusinessValue(-5.0, "AUD", "retried or skipped step"),
                priority=30,
            ),
            _correction_policy(
                "replace-c-when-degraded",
                "call-c",
                (ReplaceActivityAction(target="call-c", invokes=(backup,)),),
                state_before="degraded",
                priority=10,
            ),
            _correction_policy(
                "replace-c",
                "call-c",
                (
                    ReplaceActivityAction(target="some-other-activity", invokes=(backup,)),
                    ReplaceActivityAction(target="call-c", invokes=(backup,)),
                ),
                state_before="shaky",
                state_after="replaced",
                business_value=BusinessValue(-2.0, "AUD", "backup provider fee"),
            ),
            # Every verdict accounts: the first retry moves the instance out
            # of the state the second one would need.
            _correction_policy(
                "retry-d-once",
                "call-d",
                (RetryAction(max_retries=5, delay_seconds=0.25),),
                state_before="normal",
                state_after="retried-once",
                business_value=BusinessValue(-0.5, "AUD", "one retry"),
            ),
        ]
    )
    masc.load_policies(serialize_policy_document(document))

    def call(name: str) -> Invoke:
        return Invoke(
            f"call-{name}",
            operation="echo",
            to=f"http://svc/{name}",
            inputs={"text": "hello"},
            extract={"echoed": "text"},
            timeout_seconds=30.0,
        )

    definition = ProcessDefinition(
        "correctable",
        Sequence("main", [call("a"), call("b"), call("c"), Reply("r", variable="echoed")]),
    )
    instance = masc.engine.start(definition, variables={"customer_tier": "basic"})
    result = masc.engine.run_to_completion(instance)
    # A second instance that ``retry-d-once`` corrects exactly once.
    masc.deploy(_FlakyService(masc.env, "d", "http://svc/d", fail_times=99))
    uncorrected = masc.engine.start(
        ProcessDefinition("correctable", Sequence("main", [call("d")])),
        variables={"customer_tier": "basic"},
    )
    try:
        masc.engine.run_to_completion(uncorrected)
    except ProcessFault:
        pass
    return {
        "result": [result, instance.status.value, uncorrected.status.value],
        "reports": _records(masc.adaptation.reports),
        "decisions": _records(masc.decision_maker.decisions),
        "tracking": [
            [event.time, event.instance_id, event.kind, event.activity_name, event.detail]
            for event in masc.tracking.events
            if event.kind.startswith("activity_") and event.kind != "activity_started"
        ],
        **_repository_sections(masc.repository),
    }


# -- utility-driven selection ------------------------------------------------------------


class _RecordingPoint(EnforcementPoint):
    layer = "messaging"

    def __init__(self) -> None:
        self.enacted: list = []

    def enact(self, action, policy, event) -> bool:
        self.enacted.append([policy.name, action.describe(), event.name])
        return not isinstance(action, ConcurrentInvokeAction)


def _utility_run(goal: str) -> dict:
    env = Environment()
    repository = PolicyRepository()
    document = PolicyDocument("utility")

    def policy(name, actions, value=None, **kwargs):
        return AdaptationPolicy(
            name=name,
            triggers=("fault.Timeout",),
            actions=actions,
            business_value=None if value is None else BusinessValue(value),
            **kwargs,
        )

    document.adaptation_policies.extend(
        [
            policy("cheap", (RetryAction(1, 0.1),), value=0.5, priority=2, state_after="retried"),
            policy("expensive", (RetryAction(9, 10.0),), value=80.0, priority=1),
            policy("irrelevant", (RetryAction(1, 0.1),), value=999.0, condition="severity > 3"),
            policy(
                "after-retry",
                (SkipAction(reason="give up"),),
                value=-1.0,
                state_before="retried",
                state_after="normal",
            ),
            policy(
                "fan-out",
                (ConcurrentInvokeAction(max_targets=3),),
                value=2.0,
                scope=PolicyScope(service_type="Retailer"),
            ),
            AdaptationPolicy(
                name="other-event",
                triggers=("fault.ServiceFailure",),
                actions=(SkipAction(),),
                condition="severity > 3",
            ),
        ]
    )
    document.goal_policies.append(
        GoalPolicy(
            "the-goal",
            goal=goal,
            scope=PolicyScope(endpoint="http://scm/*"),
            time_value_per_second=1.0,
            bandwidth_cost_per_message=0.1,
        )
    )
    repository.load(document)
    maker = UtilityDrivenDecisionMaker(env, repository)
    point = maker.register_enforcement_point(_RecordingPoint())
    events = [
        # In the goal's scope: ranked, one enacted.
        dict(name="fault.Timeout", endpoint="http://scm/a", context={"severity": 1}),
        dict(name="fault.Timeout", endpoint="http://scm/a", context={"severity": 5}),
        dict(name="fault.Timeout", endpoint="http://scm/a", service_type="Retailer"),
        # In scope but nothing viable: the non-applications are recorded.
        dict(name="fault.ServiceFailure", endpoint="http://scm/a", context={"severity": 1}),
        # Outside the goal's scope: priority order, all enacted.
        dict(name="fault.Timeout", endpoint="http://elsewhere/b", context={"severity": 1}),
        dict(name="fault.Timeout", endpoint="http://elsewhere/b", context={"severity": 1}),
    ]
    returned = [
        _records(maker.handle(MASCEvent(time=float(index), **event)))
        for index, event in enumerate(events)
    ]
    return {
        "rankings": [_records(ranking) for ranking in maker.rankings],
        "decisions": _records(maker.decisions),
        "returned": returned,
        "enacted": point.enacted,
        **_repository_sections(repository),
    }


def _utility_decision_maker() -> dict:
    sections = {}
    for goal in ("maximize_business_value", "minimize_cost"):
        for key, value in _utility_run(goal).items():
            sections[f"{goal}.{key}"] = value
    return sections


# -- the two monitoring services -----------------------------------------------------------

ENDPOINT = "http://svc/orders"


def _monitoring_document() -> PolicyDocument:
    """A detection, a constraint and a QoS-threshold policy, plus the
    combinations on which the two services are known to differ."""
    document = PolicyDocument("monitoring")
    document.monitoring_policies.extend(
        [
            MonitoringPolicy(
                name="detect-international",
                events=("message.request",),
                conditions=(MessageCondition("country", "ne", "AU"),),
                extract={"amount": "amount", "country": "country", "rush": "rush"},
                emits=("trade.international", "trade.seen"),
                priority=10,
            ),
            MonitoringPolicy(
                name="detect-big",
                events=("message.request",),
                condition="amount > 1000",
                extract={"amount": "amount", "missing": "no/such/path"},
                emits=("order.big",),
                qos_thresholds=(QoSThreshold("availability", "gte", 0.99, window=5),),
                priority=20,
            ),
            MonitoringPolicy(
                name="amount-cap",
                events=("message.request",),
                conditions=(
                    MessageCondition("amount", "lte", "100000"),
                    MessageCondition("country", "exists"),
                ),
                extract={"amount": "amount"},
                classify_as=FaultCode.SERVICE_FAILURE,
                emits=("order.rejected",),
                qos_thresholds=(QoSThreshold("response_time", "lte", 1.0),),
                priority=30,
            ),
            MonitoringPolicy(
                name="late-cap",
                events=("message.*",),
                scope=PolicyScope(operation="submit*"),
                conditions=(MessageCondition("amount", "lte", "200000"),),
                classify_as=FaultCode.TIMEOUT,
                priority=40,
            ),
            MonitoringPolicy(
                name="sla",
                events=("message.response",),
                extract={"status": "status"},
                qos_thresholds=(
                    QoSThreshold("response_time", "lte", 1.0),
                    QoSThreshold("reliability", "gte", 0.9, aggregate="mean"),
                    QoSThreshold("throughput", "gte", 1.0),
                ),
                priority=50,
            ),
            MonitoringPolicy(
                name="elsewhere",
                events=("message.request",),
                scope=PolicyScope(endpoint="http://other/*"),
                emits=("never",),
            ),
        ]
    )
    return document


def _message(root: str, process_instance_id: str | None = None, **parts) -> SoapEnvelope:
    body = Element(root)
    for key, value in parts.items():
        body.add(key, text=str(value))
    headers = AddressingHeaders(to=ENDPOINT, action="urn:op:submitOrder")
    if process_instance_id is not None:
        headers = headers.with_process_instance(process_instance_id)
    return SoapEnvelope(addressing=headers, body=body)


def _messages() -> list[tuple[str, SoapEnvelope]]:
    return [
        ("request", _message("order", amount=500, country="AU")),
        ("request", _message("order", "proc-8", amount=5000, country="US", rush="true")),
        ("request", _message("order", amount=150000, country="AU")),
        ("request", _message("order", "proc-9", amount=250000.5)),
        ("request", SoapEnvelope(addressing=AddressingHeaders(to=ENDPOINT))),
        ("response", _message("orderResponse", status="ok")),
        ("response", _message("orderResponse", "proc-8", status="7")),
    ]


def _qos_lookup(metric, window, aggregate, endpoint):
    """A fixed table: slow and flaky, throughput unknown."""
    observed = {"response_time": 2.5, "reliability": 0.8, "availability": 0.995}.get(metric)
    if observed is not None and window == 5:
        observed -= 0.01
    return observed


def _event_record(event: MASCEvent) -> dict:
    return {
        "name": event.name,
        "time": event.time,
        "raised_by": event.raised_by,
        "subject": event.subject(),
        "subject_key": event.subject_key(),
        "context": dict(sorted(event.context.items())),
        "fault": None if event.fault is None else [event.fault.code.value, event.fault.reason],
        "has_envelope": event.envelope is not None,
    }


def _monitoring_process() -> dict:
    env = Environment()
    repository = PolicyRepository()
    repository.load(_monitoring_document())
    service = MASCMonitoringService(env, repository, qos_lookup=_qos_lookup)
    events: list[MASCEvent] = []
    service.router.subscribe(events.append)
    for direction, envelope in _messages():
        service.observe_message(direction, envelope, "submitOrder", ENDPOINT)
    # Without a QoS look-up thresholds are not checked at all.
    blind = MASCMonitoringService(env, repository)
    blind.router.subscribe(events.append)
    for direction, envelope in _messages():
        blind.observe_message(direction, envelope, "submitOrder", ENDPOINT)
    return {
        "events": [_event_record(event) for event in events],
        "counters": [
            service.messages_observed,
            service.policies_fired,
            service.violations_raised,
            blind.policies_fired,
            blind.violations_raised,
        ],
    }


class _TableQoS:
    lookup = staticmethod(_qos_lookup)


def _monitoring_bus() -> dict:
    env = Environment()
    repository = PolicyRepository()
    repository.load(_monitoring_document())
    tracer = Tracer()
    exporter = InMemoryExporter()
    tracer.add_exporter(exporter)
    tracer.bind_clock(env)
    service = BusMonitoringService(env, repository, _TableQoS(), tracer=tracer)
    events: list[MASCEvent] = []
    service.router.subscribe(events.append)
    point = MonitoringPoint(service_type="Orders", endpoint=ENDPOINT, operation="submitOrder")
    faults = []
    for direction, envelope in _messages():
        fault = service.check_message(direction, envelope, point)
        faults.append(
            None if fault is None else [fault.code.value, fault.reason, fault.actor, fault.source]
        )
    timeout = SoapFault(FaultCode.TIMEOUT, "no reply", actor=ENDPOINT)
    service.notify_fault(timeout, _messages()[1][1], point)
    return {
        "events": [_event_record(event) for event in events],
        "faults": faults,
        "violations_detected": [service.violations_detected],
        "spans": [
            [span.name, span.status, dict(sorted(span.attributes.items()))]
            for span in exporter.spans
        ],
    }


SCENARIOS = {
    **{
        f"trading-{profile}": (lambda profile=profile: _trading_order(profile))
        for profile in ORDER_PROFILES
    },
    "fault-storm-resilient-slo": _fault_storm,
    "fault-storm-stateful": lambda: _fault_storm(_stateful_recovery_document()),
    "fleet-storm-crash-outage": _fleet_storm,
    "process-correction": _process_correction,
    "utility-decision-maker": _utility_decision_maker,
    "monitoring-process": _monitoring_process,
    "monitoring-bus": _monitoring_bus,
}


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(name: str) -> dict:
    """Run one scenario from a fresh message-ID counter and digest each
    section of its audit trail, beside the section's length."""
    addressing._message_counter = itertools.count(1)
    return {
        section: {"count": len(value), "sha256": _sha256(value)}
        for section, value in SCENARIOS[name]().items()
    }


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIOS:
        recorded = digests(scenario)
        (GOLDEN_DIR / f"{scenario}.json").write_text(
            json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(scenario, {section: entry["count"] for section, entry in recorded.items()})
