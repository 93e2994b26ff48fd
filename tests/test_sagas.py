"""Saga compensation scopes and policy-triggered compensation.

The tentpole acceptance checks: a :class:`CompensationScope` registers a
compensation per completed saga step and unwinds them LIFO on fault,
``Terminate`` or a policy request; a WS-Policy4MASC ``Compensate`` action
(policy-only, no code change) turns an SLO ``errorBudgetExhausted`` event
into compensation of in-flight instances, with the compensation span
trace-parented under the enactment span; and a ``Throw`` in one Flow
branch cancels its siblings *before* the enclosing scope's fault handler
or compensation chain runs.
"""

import pytest

from repro.casestudies.scm import (
    build_scm_deployment,
    build_scm_saga_process,
    saga_policy_document,
)
from repro.casestudies.stocktrading import (
    build_trading_deployment,
    build_trading_saga_process,
)
from repro.core import MASCAdaptationService, MASCEvent, MASCPolicyDecisionMaker
from repro.observability import Tracer
from repro.orchestration import (
    Assign,
    Compensate,
    CompensateScope,
    CompensationScope,
    Delay,
    DefinitionError,
    Flow,
    ProcessDefinition,
    Reply,
    RuntimeService,
    Scope,
    Sequence,
    Terminate,
    Throw,
    TrackingService,
    WorkflowEngine,
)
from repro.orchestration.instance import InstanceStatus
from repro.policy import (
    AdaptationPolicy,
    CompensateInstanceAction,
    InvokeSpec,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    ReplaceActivityAction,
    parse_policy_document,
    serialize_policy_document,
)
from repro.soap import FaultCode


def saga_definition(abort=True, registered=3):
    """A three-step saga; each step appends to ``trail`` when compensated."""
    steps = []
    compensations = {}
    for index in range(1, registered + 1):
        steps.append(Assign(f"step{index}", "progress", value=index))
        compensations[f"step{index}"] = Assign(
            f"undo{index}", "trail", expression=f"trail + 'u{index},'"
        )
    if abort:
        steps.append(Throw("boom", FaultCode.SERVER, "abort the saga"))
    steps.append(Reply("done", variable="progress"))
    return ProcessDefinition(
        "saga",
        CompensationScope(
            "saga-scope",
            Sequence("steps", steps),
            compensations=compensations,
            fault_handlers={
                None: Sequence(
                    "handler",
                    [
                        Assign("mark", "progress", value=-1),
                        Reply("aborted", variable="trail"),
                    ],
                )
            },
        ),
        initial_variables={"trail": ""},
    )


def compensation_order(tracking, instance_id):
    return [
        event.activity_name
        for event in tracking.events_for(instance_id)
        if event.kind == "activity_compensated"
    ]


class TestCompensationScope:
    def test_fault_unwinds_lifo_then_runs_handler(self, env, network):
        engine = WorkflowEngine(env, network=network)
        tracking = engine.add_service(TrackingService())
        instance = engine.start(saga_definition())
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.variables["trail"] == "u3,u2,u1,"
        assert compensation_order(tracking, instance.id) == ["undo3", "undo2", "undo1"]
        assert instance.result == "u3,u2,u1,"

    def test_clean_run_registers_but_never_compensates(self, env, network):
        engine = WorkflowEngine(env, network=network)
        tracking = engine.add_service(TrackingService())
        instance = engine.start(saga_definition(abort=False))
        engine.run_to_completion(instance)
        assert instance.variables["trail"] == ""
        assert compensation_order(tracking, instance.id) == []

    def test_terminate_unwinds_before_stopping(self, env, network):
        definition = ProcessDefinition(
            "saga",
            CompensationScope(
                "saga-scope",
                Sequence(
                    "steps",
                    [
                        Assign("step1", "progress", value=1),
                        Terminate("stop", reason="operator abort"),
                    ],
                ),
                compensations={
                    "step1": Assign("undo1", "trail", expression="trail + 'u1,'")
                },
            ),
            initial_variables={"trail": ""},
        )
        engine = WorkflowEngine(env, network=network)
        instance = engine.start(definition)
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.TERMINATED
        assert instance.variables["trail"] == "u1,"

    def test_explicit_compensate_activity(self, env, network):
        definition = ProcessDefinition(
            "saga",
            CompensationScope(
                "saga-scope",
                Sequence(
                    "steps",
                    [
                        Assign("step1", "progress", value=1),
                        Assign("step2", "progress", value=2),
                        CompensateScope("unwind", "saga-scope"),
                        Reply("done", variable="trail"),
                    ],
                ),
                compensations={
                    "step1": Assign("undo1", "trail", expression="trail + 'u1,'"),
                    "step2": Assign("undo2", "trail", expression="trail + 'u2,'"),
                },
            ),
            initial_variables={"trail": ""},
        )
        engine = WorkflowEngine(env, network=network)
        instance = engine.start(definition)
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.result == "u2,u1,"

    def test_compensate_scope_requires_name(self):
        with pytest.raises(DefinitionError):
            CompensateScope("bad", "")

    def test_compensate_other_scope_is_noop(self, env, network):
        definition = ProcessDefinition(
            "saga",
            CompensationScope(
                "saga-scope",
                Sequence(
                    "steps",
                    [
                        Assign("step1", "progress", value=1),
                        Compensate("unwind", scope="other-scope"),
                        Reply("done", variable="trail"),
                    ],
                ),
                compensations={
                    "step1": Assign("undo1", "trail", expression="trail + 'u1,'")
                },
            ),
            initial_variables={"trail": ""},
        )
        engine = WorkflowEngine(env, network=network)
        instance = engine.start(definition)
        engine.run_to_completion(instance)
        assert instance.result == ""


class TestFlowCancellationOrder:
    """Satellite: a faulting Flow branch defuses its siblings first.

    The regression pins the *order*: every sibling's cancellation must be
    tracked before the scope's fault handler (or compensation chain)
    starts — the handler must observe a quiesced flow.
    """

    def flow_definition(self):
        return ProcessDefinition(
            "flow-fault",
            CompensationScope(
                "outer",
                Sequence(
                    "steps",
                    [
                        Assign("step1", "progress", value=1),
                        Flow(
                            "fan-out",
                            [
                                Sequence(
                                    "slow-branch",
                                    [Delay("slow", 5.0), Assign("late", "x", value=1)],
                                ),
                                Sequence(
                                    "slower-branch",
                                    [Delay("slower", 9.0), Assign("later", "y", value=1)],
                                ),
                                Sequence(
                                    "fail-branch",
                                    [
                                        Delay("short", 0.5),
                                        Throw("boom", FaultCode.SERVER, "branch fault"),
                                    ],
                                ),
                            ],
                        ),
                        Reply("done", variable="progress"),
                    ],
                ),
                compensations={
                    "step1": Assign("undo1", "trail", expression="trail + 'u1,'")
                },
                fault_handlers={
                    None: Sequence(
                        "handler", [Assign("handled", "progress", value=-1)]
                    )
                },
            ),
            initial_variables={"trail": ""},
        )

    def test_siblings_cancelled_before_handler_runs(self, env, network):
        class _Recorder(RuntimeService):
            """Cancellations aren't tracked by TrackingService; record raw."""

            def __init__(self):
                self.seen = []

            def on_event(self, event):
                if event.kind in (
                    "activity_started", "activity_cancelled", "activity_compensated"
                ):
                    self.seen.append((event.kind, event.activity.name))

        engine = WorkflowEngine(env, network=network)
        recorder = engine.add_service(_Recorder())
        instance = engine.start(self.flow_definition())
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.variables["progress"] == -1
        assert "x" not in instance.variables  # abandoned branches never finish
        assert "y" not in instance.variables

        kinds = recorder.seen
        cancelled = [
            index
            for index, (kind, _name) in enumerate(kinds)
            if kind == "activity_cancelled"
        ]
        # Both live siblings (and their in-flight delays) must unwind...
        cancelled_names = {kinds[index][1] for index in cancelled}
        assert {"slow-branch", "slower-branch", "slow", "slower"} <= cancelled_names
        # ...strictly before the compensation chain and the fault handler.
        compensated = kinds.index(("activity_compensated", "undo1"))
        handler_started = kinds.index(("activity_started", "handler"))
        for index in cancelled:
            assert index < compensated, (
                f"cancellation at {index} after compensation at {compensated}: {kinds}"
            )
            assert index < handler_started, (
                f"cancellation at {index} after handler start at {handler_started}"
            )


class TestCompensateActionModel:
    def test_xml_round_trip(self):
        document = saga_policy_document(mode="choreography", scope="purchase-saga")
        replayed = parse_policy_document(serialize_policy_document(document))
        (policy,) = replayed.adaptation_policies
        (action,) = policy.actions
        assert isinstance(action, CompensateInstanceAction)
        assert action.mode == "choreography"
        assert action.scope == "purchase-saga"
        assert action.process == "scm-purchase-saga"

    def test_compensate_on_event_alias(self):
        xml = serialize_policy_document(saga_policy_document()).replace(
            "<masc:Compensate ", "<masc:CompensateOnEvent "
        )
        document = parse_policy_document(xml)
        (policy,) = document.adaptation_policies
        assert isinstance(policy.actions[0], CompensateInstanceAction)

    def test_unknown_mode_rejected(self):
        with pytest.raises(Exception):
            CompensateInstanceAction(mode="interpretive-dance")


class _ListExporter:
    def __init__(self):
        self.spans = []

    def export(self, span):
        self.spans.append(span)

    def close(self):
        pass


class _BudgetTripwire(RuntimeService):
    """Raises ``errorBudgetExhausted`` the moment a named step completes."""

    def __init__(self, maker, tracer, after="collect-payment"):
        self.maker = maker
        self.tracer = tracer
        self.after = after
        self.decisions = []

    def on_event(self, event):
        if (
            event.kind != "activity_completed"
            or event.activity.name != self.after
            or self.decisions
        ):
            return
        instance = event.instance
        violation = self.tracer.start_span("slo.violation")
        event = MASCEvent(
            name="errorBudgetExhausted",
            time=instance.engine.env.now,
            service_type="Retailer",
            process_instance_id=instance.id,
            raised_by="slo-engine",
            trace_parent=violation,
        )
        self.decisions = self.maker.handle(event)
        violation.end()


class TestPolicyTriggeredCompensation:
    """Policy-only adaptation: an SLO event compensates a live saga."""

    def saga_stack(self, mode):
        deployment = build_scm_deployment(seed=7, log_events=False)
        env = deployment.env
        tracer = Tracer()
        tracer.bind_clock(env)
        exporter = _ListExporter()
        tracer.add_exporter(exporter)
        repository = PolicyRepository()
        # Round-trip through XML: the policy arrives as a document, not code.
        repository.load_xml(serialize_policy_document(saga_policy_document(mode=mode)))
        maker = MASCPolicyDecisionMaker(env, repository, tracer=tracer)
        engine = WorkflowEngine(env, network=deployment.network, tracer=tracer)
        tracking = engine.add_service(TrackingService())
        engine.add_service(MASCAdaptationService(maker))
        tripwire = engine.add_service(_BudgetTripwire(maker, tracer))
        definition = build_scm_saga_process(
            deployment.retailers["C"].address, deployment.logging.address, abort=False
        )
        instance = engine.start(definition)
        env.run(until=200)
        return deployment, instance, tracking, tripwire, exporter

    def test_orchestration_mode_unwinds_and_completes(self):
        deployment, instance, tracking, tripwire, exporter = self.saga_stack(
            "orchestration"
        )
        assert [d.applied for d in tripwire.decisions] == [True]
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.variables["order_status"] == "aborted"
        assert compensation_order(tracking, instance.id) == [
            "refund-payment",
            "cancel-order",
        ]
        retailer = deployment.retailers["C"]
        assert retailer.orders_cancelled == 1
        assert retailer.payments_refunded == 1
        assert not retailer.open_orders and not retailer.payments

    def test_compensation_span_parented_under_enactment(self):
        _deployment, _instance, _tracking, _tripwire, exporter = self.saga_stack(
            "orchestration"
        )
        by_name = {}
        for span in exporter.spans:
            by_name.setdefault(span.name, []).append(span)
        (violation,) = by_name["slo.violation"]
        (decision,) = by_name["masc.decision"]
        (enact,) = by_name["masc.enact"]
        compensation = by_name["process.compensation"][0]
        assert decision.parent_id == violation.span_id
        assert compensation.parent_id == enact.span_id
        assert compensation.trace_id == violation.trace_id

    def test_choreography_mode_routes_compensations_over_the_bus(self):
        deployment, instance, tracking, tripwire, _exporter = self.saga_stack(
            "choreography"
        )
        assert [d.applied for d in tripwire.decisions] == [True]
        assert instance.status is InstanceStatus.TERMINATED
        assert compensation_order(tracking, instance.id) == [
            "refund-payment",
            "cancel-order",
        ]
        retailer = deployment.retailers["C"]
        assert retailer.orders_cancelled == 1
        assert retailer.payments_refunded == 1
        assert not retailer.open_orders and not retailer.payments


class TestCaseStudySagas:
    def test_scm_saga_aborts_and_unwinds(self):
        deployment = build_scm_deployment(seed=11, log_events=False)
        engine = WorkflowEngine(deployment.env, network=deployment.network)
        tracking = engine.add_service(TrackingService())
        definition = build_scm_saga_process(
            deployment.retailers["C"].address, deployment.logging.address, abort=True
        )
        instance = engine.start(definition)
        deployment.env.run(until=200)
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.variables["order_status"] == "aborted"
        assert compensation_order(tracking, instance.id) == [
            "refund-payment",
            "cancel-order",
        ]
        retailer = deployment.retailers["C"]
        assert retailer.orders_cancelled == 1
        assert retailer.payments_refunded == 1

    def test_policy_replaces_a_step_compensation_before_the_abort(self):
        """Backward-recovery customization: a ``ReplaceActivity`` policy aimed
        at a saga's undo step — a child in the ``compensations`` slot — swaps
        it at instance creation, and the replacement is what unwinds."""
        deployment = build_scm_deployment(seed=11, log_events=False)
        retailer = deployment.retailers["C"]
        document = PolicyDocument("saga-undo-customization")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="audited-refund",
                triggers=("process.instance_created",),
                scope=PolicyScope(process="scm-purchase-saga"),
                adaptation_type="customization",
                actions=(
                    ReplaceActivityAction(
                        target="refund-payment",
                        invokes=(
                            InvokeSpec(
                                name="refund-payment-audited",
                                operation="refundPayment",
                                address=retailer.address,
                                inputs={"paymentId": "$payment_id"},
                                outputs={"audited_refund": "status"},
                            ),
                        ),
                    ),
                ),
            )
        )
        repository = PolicyRepository()
        repository.load_xml(serialize_policy_document(document))
        engine = WorkflowEngine(deployment.env, network=deployment.network)
        tracking = engine.add_service(TrackingService())
        adaptation = engine.add_service(
            MASCAdaptationService(MASCPolicyDecisionMaker(deployment.env, repository))
        )
        instance = engine.start(
            build_scm_saga_process(retailer.address, deployment.logging.address, abort=True)
        )
        deployment.env.run(until=200)
        assert [report.detail for report in adaptation.reports] == [None]
        assert instance.status is InstanceStatus.COMPLETED
        assert compensation_order(tracking, instance.id) == [
            "refund-payment-audited",
            "cancel-order",
        ]
        assert instance.variables["audited_refund"] == "refunded"
        assert "refund_status" not in instance.variables
        assert retailer.payments_refunded == 1 and retailer.orders_cancelled == 1

    def test_trading_saga_aborts_and_unwinds(self):
        deployment = build_trading_deployment(seed=11, start_notifications=False)
        masc = deployment.masc
        engine = WorkflowEngine(masc.env, network=masc.network, registry=masc.registry)
        tracking = engine.add_service(TrackingService())
        definition = build_trading_saga_process(
            deployment.fund_manager.address,
            deployment.analysis_services[0].address,
            deployment.market.address,
            deployment.payment.address,
            abort=True,
        )
        instance = engine.start(definition)
        deployment.env.run(until=200)
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.variables["trade_status"] == "unwound"
        assert compensation_order(tracking, instance.id) == [
            "unwind-trade",
            "release-funds",
        ]
