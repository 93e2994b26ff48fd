"""MASCPolicyDecisionMaker: from events to enacted policies.

"The raised events are handled by MASCPolicyDecisionMaker, which determines
adaptation policy assertions to be applied to the process instance and
sends an event to MASCAdaptationService. Policy priorities are used to
determine the order of execution if several policy assertions apply per
event."

The decision maker is deliberately layer-agnostic: it dispatches each
action of a selected policy to the enforcement point registered for that
action's layer ("the policy decision manager passes an object
representation of the adaptation actions to the relevant policy enforcement
point(s) to execute the adaptation policy"). MASCAdaptationService is the
``process``-layer point; the wsBus Adaptation Manager is the ``messaging``-
layer point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import MASCEvent
from repro.observability import NULL_METRICS, NULL_TRACER, correlation_id_for
from repro.policy import AdaptationPolicy, PolicyRepository
from repro.policy.actions import AdaptationAction

__all__ = ["EnforcementPoint", "MASCPolicyDecisionMaker", "PolicyDecision"]


class EnforcementPoint:
    """Base class for policy enforcement points."""

    #: Layer whose actions this point enacts: "process" or "messaging".
    layer = "process"

    def enact(
        self, action: AdaptationAction, policy: AdaptationPolicy, event: MASCEvent
    ) -> bool:
        """Execute one action; return True on success."""
        raise NotImplementedError


@dataclass
class PolicyDecision:
    """The audit record of one policy application attempt."""

    time: float
    event_name: str
    policy_name: str
    subject_key: str
    applied: bool
    actions: list[str] = field(default_factory=list)
    detail: str | None = None


class MASCPolicyDecisionMaker:
    """Selects and dispatches adaptation policies for MASC events."""

    def __init__(
        self, env, repository: PolicyRepository, tracer=None, metrics=None
    ) -> None:
        self.env = env
        self.repository = repository
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer.bind_clock(env)
        self._points: dict[str, EnforcementPoint] = {}
        #: Full decision audit trail (experiments read this).
        self.decisions: list[PolicyDecision] = []

    def register_enforcement_point(self, point: EnforcementPoint) -> EnforcementPoint:
        self._points[point.layer] = point
        return point

    # -- decision handling ---------------------------------------------------------

    def handle(self, event: MASCEvent) -> list[PolicyDecision]:
        """Evaluate and enact all adaptation policies matching ``event``.

        Returns the decisions made for this event (also appended to the
        audit trail).
        """
        self.metrics.counter("masc.events.handled").inc()
        policies = self.repository.adaptation_policies_for(event.name, **event.subject())
        span = None
        if self.tracer.enabled and policies:
            # One decision span per event with matching policies; it becomes
            # the parent of the enactment spans when the event did not
            # already arrive inside a bus-side trace.
            span = self.tracer.start_span(
                "masc.decision",
                correlation_id=event.process_instance_id
                or correlation_id_for(event.envelope),
                parent=event.trace_parent,
                attributes={"event": event.name, "policies": len(policies)},
            )
            if event.trace_parent is None:
                event.trace_parent = span
        made: list[PolicyDecision] = []
        for policy in policies:
            decision = self._apply(policy, event)
            made.append(decision)
            self.decisions.append(decision)
        if span is not None:
            applied = sum(1 for decision in made if decision.applied)
            span.set_attribute("applied", applied)
            span.end(status="applied" if applied else "no-effect")
        if any(decision.applied for decision in made):
            self.metrics.counter("masc.decisions.applied").inc()
        return made

    def _apply(self, policy: AdaptationPolicy, event: MASCEvent) -> PolicyDecision:
        """Dispatch one policy's actions to their enforcement points; the
        policy is accounted for only when every action succeeded."""
        subject_key = event.subject_key()
        decision = PolicyDecision(
            time=self.env.now,
            event_name=event.name,
            policy_name=policy.name,
            subject_key=subject_key,
            applied=False,
            detail=self.repository.rejection(policy, event.context, subject_key),
        )
        if decision.detail is not None:
            return decision
        all_ok = True
        for action in policy.actions:
            point = self._points.get(action.layer)
            if point is None:
                decision.actions.append(f"SKIPPED({action.layer}): {action.describe()}")
                all_ok = False
                continue
            try:
                ok = point.enact(action, policy, event)
            except Exception as exc:  # noqa: BLE001 - recorded, not propagated
                decision.actions.append(f"FAILED: {action.describe()} ({exc})")
                all_ok = False
                break
            decision.actions.append(
                ("OK: " if ok else "NO-EFFECT: ") + action.describe()
            )
            if not ok:
                all_ok = False
        decision.applied = all_ok
        if all_ok:
            self.repository.applied(policy, subject_key, self.env.now)
        return decision

    # -- reporting -----------------------------------------------------------------

    def decisions_for(self, policy_name: str | None = None, applied_only: bool = False):
        return [
            decision
            for decision in self.decisions
            if (policy_name is None or decision.policy_name == policy_name)
            and (not applied_only or decision.applied)
        ]
