"""MASCAdaptationService: the process-layer enforcement point.

A WF-style runtime service "for policy-based adaptation of Web services
compositions". It enacts:

- **static customization** — when the engine raises ``instance_created``,
  matching adaptation policies edit the fresh instance tree before the
  first activity executes;
- **dynamic customization** — on events carrying a ProcessInstanceID, the
  service "suspends the running process instance to be adapted", takes a
  transient copy of the process object representation, applies the policy's
  add/remove/replace actions, passes the changes back, and resumes;
- **cross-layer coordination** — suspend/resume/terminate and extending the
  pending timeout of the calling activity, invoked by the wsBus Adaptation
  Manager before it retries a faulty service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.decision_maker import EnforcementPoint, MASCPolicyDecisionMaker
from repro.core.events import MASCEvent
from repro.observability import NULL_TRACER, correlation_id_for
from repro.orchestration import (
    InstanceStatus,
    Invoke,
    ProcessInstance,
    ProcessModifier,
    RuntimeService,
    WorkflowEngine,
    find_with_parent,
)
from repro.policy import AdaptationPolicy
from repro.policy.actions import (
    AdaptationAction,
    AddActivityAction,
    CompensateInstanceAction,
    DelayProcessAction,
    ExtendTimeoutAction,
    RemoveActivityAction,
    ReplaceActivityAction,
    ResumeProcessAction,
    SuspendProcessAction,
    TerminateProcessAction,
)

__all__ = ["AdaptationReport", "MASCAdaptationService"]


@dataclass
class AdaptationReport:
    """One enacted process-layer adaptation (audit record)."""

    time: float
    instance_id: str
    policy_name: str
    action: str
    dynamic: bool
    detail: str | None = None


class MASCAdaptationService(RuntimeService, EnforcementPoint):
    """Process-layer policy enforcement, pluggable into the engine."""

    layer = "process"

    def __init__(self, decision_maker: MASCPolicyDecisionMaker) -> None:
        self.decision_maker = decision_maker
        self.decision_maker.register_enforcement_point(self)
        self.engine: WorkflowEngine | None = None
        self.reports: list[AdaptationReport] = []
        #: Pending modifiers per instance, so several actions of one policy
        #: batch into a single suspend-edit-apply-resume cycle.
        self._active_modifiers: dict[str, ProcessModifier] = {}

    # -- runtime service wiring -------------------------------------------------

    def attached(self, engine: WorkflowEngine) -> None:
        self.engine = engine
        engine.fault_advisor = self.advise_on_fault

    def instance_created(self, instance: ProcessInstance) -> None:
        """Static customization: adapt before the first activity runs."""
        assert self.engine is not None
        event = MASCEvent(
            name="process.instance_created",
            time=self.engine.env.now,
            process=instance.definition_name,
            process_instance_id=instance.id,
            context=dict(instance.variables),
        )
        self.decision_maker.handle(event)

    # -- enforcement point --------------------------------------------------------

    def enact(
        self, action: AdaptationAction, policy: AdaptationPolicy, event: MASCEvent
    ) -> bool:
        tracer = self.engine.tracer if self.engine is not None else NULL_TRACER
        if not tracer.enabled:
            return self._enact(action, policy, event)
        # The process-layer enactment span. When the event came from the
        # wsBus Adaptation Manager it carries the bus-side policy span as
        # ``trace_parent``, so messaging-layer correction and process-layer
        # customization join into one trace.
        span = tracer.start_span(
            "masc.enact",
            correlation_id=event.process_instance_id or correlation_id_for(event.envelope),
            parent=event.trace_parent,
            attributes={
                "policy": policy.name,
                "action": action.describe(),
                "layer": "process",
                "event": event.name,
            },
        )
        if self.engine is not None:
            self.engine.metrics.counter("masc.enactments").inc()
        try:
            ok = self._enact(action, policy, event, span)
        except BaseException as exc:
            span.end(status=f"error:{type(exc).__name__}")
            raise
        span.end(status="enacted" if ok else "no-effect")
        return ok

    def _enact(
        self,
        action: AdaptationAction,
        policy: AdaptationPolicy,
        event: MASCEvent,
        span=None,
    ) -> bool:
        if isinstance(action, CompensateInstanceAction):
            # Saga unwind may fan out over many instances (instance-less
            # SLO events), so it resolves its own targets.
            return self._compensate(action, policy, event, span)
        instance = self._instance_for(event)
        if instance is None:
            return False
        if isinstance(action, SuspendProcessAction):
            instance.suspend()
            self._report(instance, policy, action.describe(), dynamic=True)
            return True
        if isinstance(action, ResumeProcessAction):
            instance.resume()
            self._report(instance, policy, action.describe(), dynamic=True)
            return True
        if isinstance(action, TerminateProcessAction):
            instance.terminate(action.reason)
            self._report(instance, policy, action.describe(), dynamic=True)
            return True
        if isinstance(action, DelayProcessAction):
            instance.suspend()

            def resume_later():
                yield self.engine.env.timeout(action.delay_seconds)
                instance.resume()

            self.engine.env.process(resume_later(), name=f"delay:{instance.id}")
            self._report(instance, policy, action.describe(), dynamic=True)
            return True
        if isinstance(action, ExtendTimeoutAction):
            activity_name = event.activity or event.context.get("activity")
            extended = False
            if activity_name:
                extended = instance.extend_timeout(str(activity_name), action.extra_seconds)
            else:
                # No specific activity: extend every pending deadline.
                for name in list(instance._deadlines):
                    if instance.extend_timeout(name, action.extra_seconds):
                        extended = True
            self._report(
                instance,
                policy,
                action.describe(),
                dynamic=True,
                detail=None if extended else "no pending deadline",
            )
            return extended
        if isinstance(action, (AddActivityAction, RemoveActivityAction, ReplaceActivityAction)):
            return self._customize(instance, action, policy, event)
        return False

    # -- saga compensation --------------------------------------------------------

    def _compensate(
        self,
        action: CompensateInstanceAction,
        policy: AdaptationPolicy,
        event: MASCEvent,
        span,
    ) -> bool:
        """Enact a ``Compensate`` assertion against in-flight instances.

        Events that carry a ProcessInstanceID target that one instance;
        instance-less events (e.g. SLO ``errorBudgetExhausted``) fan out
        over every non-final instance, optionally filtered by the
        action's ``process`` attribute.
        """
        if self.engine is None:
            return False
        instance = self._instance_for(event)
        if instance is not None:
            targets = [instance]
        else:
            targets = [
                candidate
                for candidate in self.engine.instances.values()
                if candidate.status
                in (InstanceStatus.RUNNING, InstanceStatus.SUSPENDED)
                and (action.process is None or candidate.definition_name == action.process)
            ]
        enacted = False
        for target in targets:
            if action.mode == "choreography":
                ok = self._compensate_choreography(target, action)
            else:
                ok = target.request_compensation(
                    action.reason, scope=action.scope, trace_parent=span
                )
            if ok:
                enacted = True
                self.engine.metrics.counter("masc.compensations").inc()
                self._report(target, policy, action.describe(), dynamic=True)
        return enacted

    def _compensate_choreography(
        self, instance: ProcessInstance, action: CompensateInstanceAction
    ) -> bool:
        """Choreography-style saga: route each registered compensation as a
        wsBus invocation to the owning service, then terminate the instance
        (the engine never re-enters the process body)."""
        if instance.status not in (InstanceStatus.RUNNING, InstanceStatus.SUSPENDED):
            return False
        engine = self.engine
        entries = [
            entry
            for entry in reversed(instance._compensations)
            if action.scope is None or entry.scope == action.scope
        ]
        if not entries:
            return False
        for entry in entries:
            engine.notify("compensation_started", instance, entry.step, False)
            activity = entry.activity
            if isinstance(activity, Invoke):
                payload = activity.build_payload(instance)
                target = activity.to
                if target is None:
                    target = engine.resolve_service(activity.service_type or "", instance)
                engine.env.process(
                    engine.invoker.invoke(
                        to=target,
                        operation=activity.operation,
                        payload=payload,
                        timeout=activity.timeout_seconds or float("inf"),
                        process_instance_id=instance.id,
                    ),
                    name=f"{instance.id}:compensate:{activity.name}",
                )
            engine.notify("activity_compensated", instance, entry.step, activity, False)
        dispatched = set(id(entry) for entry in entries)
        instance._compensations[:] = [
            entry for entry in instance._compensations if id(entry) not in dispatched
        ]
        instance.terminate(f"compensated (choreography): {action.reason}")
        return True

    # -- process-level corrective adaptation -------------------------------------

    def advise_on_fault(self, instance, activity, fault, attempts: int):
        """Fault advisor: policy-driven correction at the process layer.

        The paper's ongoing work, built: "corrective adaptation at the
        business process orchestration layer to handle process-level
        faults". Policies trigger on ``process-fault.<Code>`` events and
        their actions translate to engine verdicts: Retry → re-run the
        activity with the policy's delay pattern, Skip → treat the
        activity as completed, ReplaceActivity (targeting this activity)
        → run the variation activity instead. The first applicable policy
        with a translatable action wins (priority order) and is accounted
        for then; no policy means the fault propagates as usual.
        """
        from repro.orchestration import FaultVerdict
        from repro.policy.actions import ReplaceActivityAction, RetryAction, SkipAction

        repository = self.decision_maker.repository
        event = MASCEvent(
            name=f"process-fault.{fault.code.value}",
            time=self.engine.env.now,
            process=instance.definition_name,
            activity=activity.name,
            process_instance_id=instance.id,
            context={
                "fault_code": fault.code.value,
                "fault_reason": fault.fault.reason,
                "activity": activity.name,
                "attempts": attempts,
                **{
                    key: value
                    for key, value in instance.variables.items()
                    if isinstance(value, (str, int, float, bool))
                },
            },
        )
        subject_key = event.subject_key()
        for policy in repository.applicable(
            event.name, subject_key, event.context, **event.subject()
        ):
            for action in policy.actions:
                if isinstance(action, RetryAction):
                    if attempts >= action.max_retries:
                        continue  # budget exhausted: maybe a later action helps
                    verdict = FaultVerdict(
                        "retry",
                        delay_seconds=action.delay_for_attempt(attempts + 1),
                        policy_name=policy.name,
                    )
                elif isinstance(action, SkipAction):
                    verdict = FaultVerdict("skip", policy_name=policy.name)
                elif isinstance(action, ReplaceActivityAction) and action.target in (
                    activity.name,
                    "*",
                ):
                    verdict = FaultVerdict(
                        "replace",
                        replacement=action.build_activity(),
                        policy_name=policy.name,
                    )
                else:
                    continue
                repository.applied(policy, subject_key, event.time)
                self.engine.metrics.counter(f"masc.advisor.{verdict.kind}").inc()
                self._report(
                    instance,
                    policy,
                    f"process-level {verdict.kind} of {activity.name!r} "
                    f"({fault.code.value})",
                    dynamic=True,
                )
                return verdict
        return None

    # -- customization ------------------------------------------------------------

    def _customize(
        self,
        instance: ProcessInstance,
        action: AdaptationAction,
        policy: AdaptationPolicy,
        event: MASCEvent,
    ) -> bool:
        dynamic = bool(instance.executed_activities)
        suspended_here = False
        if dynamic and instance.status != InstanceStatus.SUSPENDED:
            instance.suspend()
            suspended_here = True
        try:
            modifier = ProcessModifier(instance)
            if isinstance(action, AddActivityAction):
                activity = action.build_activity()
                if action.position == "before":
                    modifier.insert_before(action.anchor, activity)
                elif action.position == "after":
                    modifier.insert_after(action.anchor, activity)
                else:
                    modifier.append_to(action.anchor, activity)
                modifier.bind_variables(self._resolve_bindings(action.bindings, event))
            elif isinstance(action, RemoveActivityAction):
                for target in self._block_targets(instance, action):
                    modifier.remove(target)
            elif isinstance(action, ReplaceActivityAction):
                modifier.replace(action.target, action.build_activity())
                modifier.bind_variables(self._resolve_bindings(action.bindings, event))
            modifier.apply()
        except Exception as exc:  # noqa: BLE001 - surfaced via report + False
            self._report(
                instance, policy, action.describe(), dynamic=dynamic, detail=f"failed: {exc}"
            )
            if suspended_here:
                instance.resume()
            return False
        if suspended_here:
            instance.resume()
        self._report(instance, policy, action.describe(), dynamic=dynamic)
        return True

    @staticmethod
    def _block_targets(instance: ProcessInstance, action: RemoveActivityAction) -> list[str]:
        """Expand a begin..end block into the sibling activities it spans."""
        if action.block_end is None:
            return [action.target]
        begin, parent = find_with_parent(instance.root, action.target)
        end, end_parent = find_with_parent(instance.root, action.block_end)
        if begin is None or end is None or parent is None or parent is not end_parent:
            raise ValueError(
                f"block {action.target!r}..{action.block_end!r} is not a sibling range"
            )
        siblings = parent.children()
        start_index = siblings.index(begin)
        end_index = siblings.index(end)
        if end_index < start_index:
            start_index, end_index = end_index, start_index
        return [sibling.name for sibling in siblings[start_index : end_index + 1]]

    @staticmethod
    def _resolve_bindings(bindings: dict[str, str], event: MASCEvent) -> dict[str, Any]:
        """Resolve ``$name`` references against the event context."""
        resolved: dict[str, Any] = {}
        for variable, value in bindings.items():
            if isinstance(value, str) and value.startswith("$"):
                resolved[variable] = event.context.get(value[1:])
            else:
                resolved[variable] = value
        return resolved

    def _instance_for(self, event: MASCEvent) -> ProcessInstance | None:
        if self.engine is None or event.process_instance_id is None:
            return None
        return self.engine.instances.get(event.process_instance_id)

    def _report(
        self,
        instance: ProcessInstance,
        policy: AdaptationPolicy,
        action: str,
        dynamic: bool,
        detail: str | None = None,
    ) -> None:
        assert self.engine is not None
        self.reports.append(
            AdaptationReport(
                time=self.engine.env.now,
                instance_id=instance.id,
                policy_name=policy.name,
                action=action,
                dynamic=dynamic,
                detail=detail,
            )
        )
