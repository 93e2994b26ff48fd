"""wsBus Adaptation Manager.

"Decides and coordinates the execution of appropriate adaptation action(s)
to restore the system to an acceptable state using adaptation policies
configured at the VEP... When multiple adaptation policies are specified
per fault type, policy priorities are used to determine the order of
execution of the adaptation actions. For example, a policy could stipulate
that the VEP should first attempt n retries before failover to a known
backup service."

Messaging-layer actions (retry / substitute / concurrent invocation /
skip) are enacted inline in the message path. Process-layer actions in the
same policy (suspend, extend timeout — the cross-layer coordination) are
dispatched to the process enforcement point *before* the messaging-layer
recovery begins, exactly as the paper orders them ("before retrying
invocation of a faulty service, the adaptation policy might stipulate that
MASCAdaptationService should first suspend the calling process instance...
or increase its timeout interval").
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field, replace

from repro.core.events import MASCEvent
from repro.observability import NULL_METRICS, NULL_TRACER, correlation_id_for
from repro.observability.trace_context import TraceContext
from repro.policy import AdaptationPolicy, PolicyRepository
from repro.policy.actions import (
    ConcurrentInvokeAction,
    ResilienceAction,
    ResumeProcessAction,
    RetryAction,
    SelectionStrategyAction,
    SkipAction,
    SubstituteAction,
)
from repro.simulation import EventRouter
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapFaultError
from repro.wsbus.retry import DeadLetterEntry, DeadLetterQueue, RetryQueue
from repro.wsbus.selection import SelectionService

__all__ = ["AdaptationManager", "EventAdaptation", "RecoveryOutcome"]


@dataclass
class RecoveryOutcome:
    """Audit record of one recovery attempt."""

    time: float
    vep_name: str
    operation: str
    original_target: str
    fault_code: str
    recovered: bool
    actions_taken: list[str] = field(default_factory=list)
    final_target: str | None = None
    policies_consulted: list[str] = field(default_factory=list)


@dataclass
class EventAdaptation:
    """Audit record of one event-driven (non-message-path) adaptation."""

    time: float
    event: str
    endpoint: str | None
    policy: str
    actions_taken: list[str] = field(default_factory=list)


class AdaptationManager:
    """Enacts corrective adaptation policies at the messaging layer."""

    def __init__(
        self,
        env,
        repository: PolicyRepository,
        selection: SelectionService,
        retry_queue: RetryQueue,
        dead_letters: DeadLetterQueue,
        sender,
        process_enforcement=None,
        tracer=None,
        metrics=None,
        resilience=None,
    ) -> None:
        self.env = env
        self.repository = repository
        self.selection = selection
        self.retry_queue = retry_queue
        self.dead_letters = dead_letters
        self.sender = sender
        #: Optional process-layer enforcement point (cross-layer actions).
        self.process_enforcement = process_enforcement
        #: Optional resilience service: fault-triggered policies may carry
        #: resilience configuration actions as corrective side effects.
        self.resilience = resilience
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Publishes each ``recovery`` (as it starts) and event-driven ``adaptation``.
        self.router = EventRouter()
        self.outcomes: list[RecoveryOutcome] = []
        self.event_adaptations: list[EventAdaptation] = []
        self.router.subscribe(self.outcomes.append, ("recovery",))
        self.router.subscribe(self.event_adaptations.append, ("adaptation",))
        #: VEPs eligible for event-driven adaptation (selection-strategy
        #: switches). The bus shares its live ``veps`` dict after init.
        self.veps: dict = {}
        #: Federation hooks: when this manager belongs to a *follower* bus
        #: of a fleet, ``forward_to`` names the leader's manager and
        #: :meth:`handle_event` delegates there instead of enacting
        #: locally — exactly one bus enacts fleet-wide reactions.
        self.forward_to: AdaptationManager | None = None
        #: Display label of the owning bus (set by the fleet) stamped on
        #: adaptation spans so traces show which bus enacted.
        self.owner_label: str | None = None
        self.forwarded_events = 0

    def recover(
        self,
        vep,
        envelope: SoapEnvelope,
        operation: str,
        fault: SoapFault,
        failed_target: str,
        parent_span=None,
    ) -> Generator:
        """Attempt policy-driven recovery of a failed invocation.

        Returns ``(response, target)`` — the recovered response envelope
        and the member that produced it, read from this recovery's own
        outcome (overlapping recoveries interleave in :attr:`outcomes`) —
        or raises the final :class:`~repro.soap.SoapFaultError` after
        dead-lettering.
        """
        span = None
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "wsbus.adaptation.recover",
                correlation_id=correlation_id_for(envelope),
                parent=parent_span,
                attributes={
                    "vep": vep.name,
                    "operation": operation,
                    "fault": fault.code.value,
                    "failed_target": failed_target,
                },
            )
        self.metrics.counter("wsbus.adaptation.recoveries").inc()
        outcome = RecoveryOutcome(
            time=self.env.now,
            vep_name=vep.name,
            operation=operation,
            original_target=failed_target,
            fault_code=fault.code.value,
            recovered=False,
        )
        self.router.publish("recovery", outcome)
        # The subject is the failed member, even when the envelope carries
        # a process-instance id: recovery state is kept per endpoint.
        event = MASCEvent.for_fault(
            self.env.now,
            fault,
            service_type=vep.contract.service_type,
            endpoint=failed_target,
            operation=operation,
            context={
                "fault_code": fault.code.value,
                "fault_reason": fault.reason,
                "operation": operation,
                "target": failed_target,
            },
        )
        subject_key = event.subject_key()
        last_error: SoapFaultError = fault.to_exception()
        excluded: set[str] = {failed_target}
        for policy in self.repository.adaptation_policies_for(event.name, **event.subject()):
            outcome.policies_consulted.append(policy.name)
            if self.repository.rejection(policy, event.context, subject_key) is not None:
                continue
            try:
                response = yield from self._enact_policy(
                    policy,
                    vep,
                    envelope,
                    operation,
                    fault,
                    failed_target,
                    excluded,
                    outcome,
                    parent_span=span,
                )
            except SoapFaultError as error:
                last_error = error
                continue
            if response is not None:
                outcome.recovered = True
                self.repository.applied(policy, subject_key, self.env.now)
                self.metrics.counter("wsbus.adaptation.recovered").inc()
                if span is not None:
                    span.set_attribute("recovered_by", policy.name)
                    span.end(status="recovered")
                return response, outcome.final_target
        # All policies exhausted.
        self.metrics.counter("wsbus.adaptation.exhausted").inc()
        if span is not None:
            span.end(status="exhausted")
        self.dead_letters.add(
            DeadLetterEntry(
                time=self.env.now,
                envelope=envelope,
                operation=operation,
                target=failed_target,
                attempts_made=0,
                reason=f"recovery exhausted: {last_error.fault}",
            )
        )
        raise last_error

    # -- event-driven adaptation ------------------------------------------------------

    def handle_event(self, event: MASCEvent) -> list[EventAdaptation]:
        """Enact adaptation policies triggered by a MASC event.

        This is the non-message-path half of the Adaptation Manager: SLO
        violations (``sloBurnRateExceeded``, ``errorBudgetExhausted``) and
        other detector events arrive here, outside any in-flight request,
        and the matching policies reconfigure the standing machinery —
        switch a VEP's selection strategy, tighten a circuit breaker —
        rather than repair one message. The span tree links back to the
        detection via ``event.trace_parent``, closing the observability
        loop: exemplar → violation event → adaptation.
        """
        if self.forward_to is not None and self.forward_to is not self:
            # Federation follower: the leader's manager enacts fleet-wide
            # reactions; this bus only relays the detection. The event
            # leaves this bus, so its live span reference is reduced to
            # what a serialized MASC event would carry (ids and the
            # sampling verdict, no correlation), and the leader's
            # adaptation span still joins the originating request's trace.
            self.forwarded_events += 1
            if self.metrics.enabled:
                self.metrics.counter("federation.events.forwarded").inc()
            if event.trace_parent is not None:
                parent = event.trace_parent
                event = replace(
                    event,
                    trace_parent=TraceContext(parent.trace_id, parent.span_id, parent.sampled),
                )
            return self.forward_to.handle_event(event)
        enacted: list[EventAdaptation] = []
        subject_key = event.subject_key()
        for policy in self.repository.applicable(
            event.name, subject_key, event.context, **event.subject()
        ):
            span = None
            if self.tracer.enabled:
                attributes = {
                    "event": event.name,
                    "policy": policy.name,
                    "endpoint": event.endpoint,
                }
                if self.owner_label is not None:
                    attributes["bus"] = self.owner_label
                span = self.tracer.start_span(
                    "wsbus.adaptation.event",
                    parent=event.trace_parent,
                    attributes=attributes,
                )
            record = EventAdaptation(
                time=self.env.now,
                event=event.name,
                endpoint=event.endpoint,
                policy=policy.name,
            )
            for action in policy.actions:
                if span is not None:
                    span.add_event("action", layer=action.layer, action=action.describe())
                if isinstance(action, SelectionStrategyAction):
                    matched, switched = self._switch_selection_strategy(action, policy)
                    if switched:
                        record.actions_taken.append(
                            f"selection strategy -> {action.strategy} on "
                            + ", ".join(switched)
                        )
                    elif matched:
                        record.actions_taken.append(
                            f"no-change: already {action.strategy}"
                        )
                    else:
                        record.actions_taken.append(
                            f"skipped(no-matching-vep): {action.describe()}"
                        )
                elif isinstance(action, ResilienceAction):
                    if self.resilience is not None and self.resilience.apply_action(
                        action, scope=policy.scope
                    ):
                        record.actions_taken.append(f"configured: {action.describe()}")
                    else:
                        record.actions_taken.append(
                            f"skipped(no-resilience): {action.describe()}"
                        )
                elif action.layer == "process":
                    if self.process_enforcement is None:
                        record.actions_taken.append(
                            f"skipped(no-process-layer): {action.describe()}"
                        )
                    else:
                        ok = self.process_enforcement.enact(action, policy, event)
                        record.actions_taken.append(
                            ("cross-layer: " if ok else "cross-layer(no-effect): ")
                            + action.describe()
                        )
                else:
                    record.actions_taken.append(f"unsupported-here: {action.describe()}")
            # Accounted for once its actions were walked, whatever each did.
            self.repository.applied(policy, subject_key, self.env.now)
            self.metrics.counter("wsbus.adaptation.event_driven").inc()
            self.router.publish("adaptation", record)
            enacted.append(record)
            if span is not None:
                span.end(status="enacted")
        return enacted

    def _switch_selection_strategy(
        self, action: SelectionStrategyAction, policy: AdaptationPolicy
    ) -> tuple[int, list[str]]:
        """Switch the strategy of every scope-matched VEP.

        Returns ``(matched_count, switched_names)`` — a matched VEP that
        already runs the requested strategy counts but is not switched.
        """
        matched = 0
        switched: list[str] = []
        for name in sorted(self.veps):
            vep = self.veps[name]
            if not policy.scope.matches(
                service_type=vep.contract.service_type, endpoint=vep.address
            ):
                continue
            matched += 1
            if vep.selection_strategy != action.strategy:
                vep.selection_strategy = action.strategy
                switched.append(name)
        return matched, switched

    # -- policy enactment -------------------------------------------------------------

    def _enact_policy(
        self,
        policy: AdaptationPolicy,
        vep,
        envelope: SoapEnvelope,
        operation: str,
        fault: SoapFault,
        failed_target: str,
        excluded: set[str],
        outcome: RecoveryOutcome,
        parent_span=None,
    ) -> Generator:
        policy_span = None
        if self.tracer.enabled:
            # The policy-adaptation span: one per WS-Policy4MASC rule that
            # gets a chance to repair this message.
            policy_span = self.tracer.start_span(
                "wsbus.policy.enact",
                correlation_id=correlation_id_for(envelope),
                parent=parent_span,
                attributes={"policy": policy.name, "layer": "messaging"},
            )
        response: SoapEnvelope | None = None
        last_error: SoapFaultError | None = None
        deferred_process_actions = []
        for action in policy.actions:
            if policy_span is not None:
                policy_span.add_event("action", layer=action.layer, action=action.describe())
            if isinstance(action, ResilienceAction):
                # Reconfigure the standing protection machinery; not a
                # repair of this message, so recovery continues below.
                if self.resilience is not None and self.resilience.apply_action(
                    action, scope=policy.scope
                ):
                    outcome.actions_taken.append(f"configured: {action.describe()}")
                else:
                    outcome.actions_taken.append(
                        f"skipped(no-resilience): {action.describe()}"
                    )
                continue
            if action.layer == "process":
                if isinstance(action, ResumeProcessAction):
                    # Resume runs after messaging-layer recovery completes.
                    deferred_process_actions.append(action)
                else:
                    self._enact_process_action(
                        action, policy, envelope, operation, fault, outcome,
                        parent_span=policy_span,
                    )
                continue
            if response is not None:
                continue  # already recovered; remaining messaging actions moot
            try:
                if isinstance(action, RetryAction):
                    response = yield from self._retry(
                        envelope, operation, failed_target, action, fault, outcome,
                        parent_span=policy_span,
                    )
                elif isinstance(action, SubstituteAction):
                    response = yield from self._substitute(
                        vep, envelope, operation, action, excluded, outcome
                    )
                elif isinstance(action, ConcurrentInvokeAction):
                    response = yield from self._concurrent(
                        vep, envelope, operation, action, excluded, outcome
                    )
                elif isinstance(action, SkipAction):
                    response = self._skip(vep, envelope, operation, action, outcome)
            except SoapFaultError as error:
                last_error = error
                continue
        for action in deferred_process_actions:
            self._enact_process_action(
                action, policy, envelope, operation, fault, outcome, parent_span=policy_span
            )
        if response is not None:
            if policy_span is not None:
                policy_span.end(status="recovered")
            return response
        if last_error is not None:
            if policy_span is not None:
                policy_span.end(status="failed")
            raise last_error
        if policy_span is not None:
            policy_span.end(status="no-effect")
        return None

    def _enact_process_action(
        self,
        action,
        policy,
        envelope: SoapEnvelope,
        operation: str,
        fault: SoapFault,
        outcome,
        parent_span=None,
    ) -> None:
        if self.process_enforcement is None:
            outcome.actions_taken.append(f"skipped(no-process-layer): {action.describe()}")
            return
        event = MASCEvent.for_fault(
            self.env.now,
            fault,
            operation=operation,
            process_instance_id=envelope.addressing.process_instance_id,
            envelope=envelope,
            context={"operation": operation},
            trace_parent=parent_span,
        )
        ok = self.process_enforcement.enact(action, policy, event)
        outcome.actions_taken.append(
            ("cross-layer: " if ok else "cross-layer(no-effect): ") + action.describe()
        )

    def _retry(
        self,
        envelope: SoapEnvelope,
        operation: str,
        target: str,
        action: RetryAction,
        fault: SoapFault,
        outcome: RecoveryOutcome,
        parent_span=None,
    ) -> Generator:
        outcome.actions_taken.append(action.describe())
        # The manager dead-letters itself only once *all* recovery actions
        # are exhausted, so the queue must not park the message early.
        completion = self.retry_queue.enqueue(
            envelope,
            operation,
            target,
            action,
            first_fault=fault,
            dead_letter_on_exhaust=False,
            parent_span=parent_span,
        )
        response = yield completion
        outcome.final_target = target
        outcome.actions_taken.append(f"retry succeeded against {target}")
        return response

    def _substitute(
        self,
        vep,
        envelope: SoapEnvelope,
        operation: str,
        action: SubstituteAction,
        excluded: set[str],
        outcome: RecoveryOutcome,
    ) -> Generator:
        outcome.actions_taken.append(action.describe())
        last_error: SoapFaultError | None = None
        # The VEP is a recovery block: keep trying equivalent services (in
        # the strategy's preference order) until one answers or none remain.
        while True:
            if action.strategy == "backup":
                target = (
                    action.backup_address if action.backup_address not in excluded else None
                )
            elif action.strategy == "registry":
                target = None
                if vep.registry is not None:
                    record = vep.registry.find_one(
                        vep.contract.service_type,
                        predicate=lambda r: r.address not in excluded,
                    )
                    target = record.address if record else None
            else:
                strategy = (
                    "round_robin" if action.strategy == "round_robin" else "best_response_time"
                )
                target = self.selection.select(
                    vep.name, strategy, vep.members, envelope=envelope, exclude=excluded
                )
            if target is None:
                if last_error is not None:
                    raise last_error
                raise SoapFaultError(
                    SoapFault(
                        FaultCode.SERVICE_UNAVAILABLE,
                        "no substitute service available",
                        source="wsbus-adaptation",
                    )
                )
            excluded.add(target)
            retargeted = envelope.copy()
            retargeted.addressing = envelope.addressing.retargeted(target)
            try:
                response = yield from self.sender(retargeted, operation, target)
            except SoapFaultError as error:
                last_error = error
                outcome.actions_taken.append(f"substitute {target} also failed")
                continue
            outcome.final_target = target
            outcome.actions_taken.append(f"substituted to {target}")
            return response

    def _concurrent(
        self,
        vep,
        envelope: SoapEnvelope,
        operation: str,
        action: ConcurrentInvokeAction,
        excluded: set[str],
        outcome: RecoveryOutcome,
    ) -> Generator:
        outcome.actions_taken.append(action.describe())
        targets = self.selection.broadcast_targets(
            vep.members, action.max_targets, excluded, vep_name=vep.name
        )
        if not targets:
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_UNAVAILABLE,
                    "no targets left for concurrent invocation",
                    source="wsbus-adaptation",
                )
            )
        response, winner = yield from broadcast_first_response(
            self.env, self.sender, envelope, operation, targets
        )
        outcome.final_target = winner
        outcome.actions_taken.append(f"first response from {winner}")
        return response

    def _skip(
        self, vep, envelope: SoapEnvelope, operation: str, action: SkipAction, outcome
    ) -> SoapEnvelope:
        outcome.actions_taken.append(action.describe())
        outcome.final_target = "skipped"
        return vep.synthetic_reply(envelope, operation, action.reason)


def broadcast_first_response(
    env, sender, envelope: SoapEnvelope, operation: str, targets: list[str]
) -> Generator:
    """Invoke all targets concurrently; first success wins.

    "The concurrent invocation of equivalent services is accomplished by
    making a copy of the message and modifying its route, then invoking
    multiple target services using concurrent invocation threads"; "all
    pending invocations are then aborted and their responses are ignored".

    Returns ``(response, winning_target)``; raises the last failure if all
    targets fail.
    """
    attempts = {}
    for target in targets:
        copy = envelope.copy()
        copy.addressing = envelope.addressing.retargeted(target)
        attempts[env.process(sender(copy, operation, target), name=f"bcast:{target}")] = target

    pending = dict(attempts)
    last_error: SoapFaultError | None = None
    while pending:
        # any_of fails fast if *any* constituent fails, so wait on each
        # round and discard failures until a success or exhaustion.
        try:
            result = yield env.any_of(list(pending))
        except SoapFaultError as error:
            last_error = error
            for process in list(pending):
                if process.processed:
                    process.defused = True
                    del pending[process]
            continue
        winner_process = next(iter(result))
        response = result[winner_process]
        winner = pending.pop(winner_process)
        for process in pending:
            if process.is_alive:
                process.callbacks.append(_defuse)
            elif not process.processed:
                process.defused = True
        return response, winner
    assert last_error is not None
    raise last_error


def _defuse(event) -> None:
    event.defused = True
