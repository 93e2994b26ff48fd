"""Policy repository: storage, lookup, subject states, business ledger.

"Monitoring and adaptation policy assertions are stored in a policy
repository, which is a collection of instances of policy classes." The
repository also owns the two pieces of shared adaptation state the policy
model references:

- **subject states** ("a state in which the adapted system should be before
  the adaptation... a state in which the system will be after");
- the **business-value ledger** accumulating the monetary deltas of applied
  adaptations.

Reloading a document with the same name replaces it atomically — the
paper's hot-reload property: "When a WS-Policy4MASC document changes, these
changes are automatically enforced the next time adaptation is needed with
no need to restart any software component." Which loaded policies an event
triggers is resolved once per event name after each ``load``/``unload``;
scope, guards and state are checked afresh on every event, and the
repository is the one interpreter of their guard and accounting clauses:
:meth:`PolicyRepository.applicable` yields, lazily and in priority order,
each policy whose trigger and scope match, whose relevance condition holds
and whose required pre-state is the subject's state when its turn comes;
:meth:`PolicyRepository.rejection` words a non-application for the audit
trail; and :meth:`PolicyRepository.applied` books the post-state and the
business value. The decision sites keep their dispatch and *when* they call
``applied``. The services whose standing machinery is
*configured* from policies (resilience, traffic, federation, SLOs, trace
sampling) read it through the one load-time scan,
:meth:`PolicyRepository.configuration`, and subscribe to the repository's
``router`` (kind ``changed``) so that every ``load``/``unload`` re-runs
their scan; the ``ledger`` kind carries each new ledger entry.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.policy.actions import AdaptationAction
from repro.policy.model import (
    AdaptationPolicy,
    BusinessValue,
    GoalPolicy,
    MonitoringPolicy,
    PolicyDocument,
)
from repro.policy.xml import parse_policy_document
from repro.simulation import EventRouter

__all__ = ["BusinessLedgerEntry", "PolicyRepository"]

DEFAULT_STATE = "normal"


@dataclass(frozen=True)
class BusinessLedgerEntry:
    """One accounted adaptation."""

    time: float
    policy_name: str
    value: BusinessValue
    subject: str = ""


class PolicyRepository:
    """In-memory store of policy class instances with prioritized lookup."""

    def __init__(self) -> None:
        self._documents: dict[str, PolicyDocument] = {}
        self._states: dict[str, str] = {}
        #: Publishes ``changed`` after every ``load``/``unload``, and
        #: ``ledger`` with each :class:`BusinessLedgerEntry`.
        self.router = EventRouter()
        #: ``(kind, event)`` -> the loaded policies of that kind the event
        #: triggers, in priority order; resolved on first use after each
        #: ``load``/``unload``.
        self._triggered: dict[tuple[str, str], tuple] = {}
        self.ledger: list[BusinessLedgerEntry] = []
        self.router.subscribe(self.ledger.append, ("ledger",))

    # -- loading -----------------------------------------------------------------

    def load(self, document: PolicyDocument) -> PolicyDocument:
        """Add or hot-replace a document (keyed by document name)."""
        self._documents[document.name] = document
        self._changed()
        return document

    def load_xml(self, text: str) -> PolicyDocument:
        """Parse and load a WS-Policy4MASC XML document."""
        return self.load(parse_policy_document(text))

    def unload(self, document_name: str) -> None:
        if self._documents.pop(document_name, None) is not None:
            self._changed()

    def _changed(self) -> None:
        self._triggered.clear()
        self.router.publish("changed")

    @property
    def documents(self) -> list[PolicyDocument]:
        return list(self._documents.values())

    # -- lookup ------------------------------------------------------------------

    def _policies(self, kind: str) -> list:
        """Every loaded policy of one kind, lower priority number first."""
        policies = [
            policy for document in self._documents.values() for policy in getattr(document, kind)
        ]
        return sorted(policies, key=lambda p: (p.priority, p.name))

    def monitoring_policies(self) -> list[MonitoringPolicy]:
        return self._policies("monitoring_policies")

    def adaptation_policies(self) -> list[AdaptationPolicy]:
        return self._policies("adaptation_policies")

    def _triggered_by(self, kind: str, event: str) -> tuple:
        """The policies of one kind that ``event`` triggers, in priority
        order: matched once per event between two ``load``/``unload``s."""
        key = (kind, event)
        policies = self._triggered.get(key)
        if policies is None:
            policies = self._triggered[key] = tuple(
                policy for policy in self._policies(kind) if policy.triggered_by(event)
            )
        return policies

    def monitoring_policies_for(self, event: str, **subject) -> list[MonitoringPolicy]:
        """Monitoring policies triggered by ``event`` in the given scope,
        in priority order (lower priority number runs first)."""
        return [
            policy
            for policy in self._triggered_by("monitoring_policies", event)
            if policy.scope.matches(**subject)
        ]

    def adaptation_policies_for(self, event: str, **subject) -> list[AdaptationPolicy]:
        """Adaptation policies triggered by ``event`` in the given scope,
        in priority order."""
        return [
            policy
            for policy in self._triggered_by("adaptation_policies", event)
            if policy.scope.matches(**subject)
        ]

    def configuration(
        self, *action_types: type[AdaptationAction]
    ) -> list[tuple[AdaptationPolicy, AdaptationAction]]:
        """The load-time scan: ``(policy, action)`` for every assertion of
        the given configuration types standing in a policy that carries the
        assertion's own ``trigger``, in priority order."""
        return [
            (policy, action)
            for policy in self.adaptation_policies()
            for action in policy.actions
            if isinstance(action, action_types) and action.trigger in policy.triggers
        ]

    def goal_policies(self) -> list[GoalPolicy]:
        return self._policies("goal_policies")

    def goal_policy_for(self, **subject) -> GoalPolicy | None:
        """The highest-priority goal policy whose scope covers the subject."""
        for policy in self.goal_policies():
            if policy.scope.matches(**subject):
                return policy
        return None

    def find_policy(self, name: str) -> MonitoringPolicy | AdaptationPolicy | GoalPolicy | None:
        for document in self._documents.values():
            for policy in (
                *document.monitoring_policies,
                *document.adaptation_policies,
                *document.goal_policies,
            ):
                if policy.name == name:
                    return policy
        return None

    # -- evaluation: guard and accounting clauses ------------------------------------

    def applicable(
        self, event: str, subject_key: str, context: dict[str, Any], **subject
    ) -> Iterator[AdaptationPolicy]:
        """The adaptation policies to apply for ``event``, in priority order.

        Lazy: each policy's guard is checked when its turn comes, so a
        policy sees the post-state a caller booked (:meth:`applied`) for
        the policies yielded before it.
        """
        for policy in self.adaptation_policies_for(event, **subject):
            if self.rejection(policy, context, subject_key) is None:
                yield policy

    def rejection(
        self, policy: AdaptationPolicy, context: dict[str, Any], subject_key: str
    ) -> str | None:
        """Why ``policy`` does not apply right now (the audit-trail text),
        or ``None`` if its relevance condition and required pre-state hold."""
        if not policy.condition_holds(context):
            return "condition not satisfied"
        if not self.check_state(policy, subject_key):
            return (
                f"subject in state {self.state_of(subject_key)!r}, "
                f"policy requires {policy.state_before!r}"
            )
        return None

    def applied(self, policy: AdaptationPolicy, subject_key: str, time: float) -> None:
        """Account for an applied policy: post-state, then business value."""
        self.transition(policy, subject_key)
        self.record_business_value(time, policy, subject_key)

    # -- subject states -------------------------------------------------------------

    def state_of(self, subject_key: str) -> str:
        return self._states.get(subject_key, DEFAULT_STATE)

    def set_state(self, subject_key: str, state: str) -> None:
        self._states[subject_key] = state

    def check_state(self, policy: AdaptationPolicy, subject_key: str) -> bool:
        """True if the subject is in the policy's required pre-state."""
        return policy.state_before is None or self.state_of(subject_key) == policy.state_before

    def transition(self, policy: AdaptationPolicy, subject_key: str) -> None:
        """Apply the policy's post-state, if it declares one."""
        if policy.state_after is not None:
            self._states[subject_key] = policy.state_after

    # -- business ledger -------------------------------------------------------------

    def record_business_value(
        self, time: float, policy: AdaptationPolicy, subject: str = ""
    ) -> None:
        if policy.business_value is not None:
            entry = BusinessLedgerEntry(time, policy.name, policy.business_value, subject)
            # The table, not ``publish``: customized instances book one per instance.
            for handler in self.router.routes.get("ledger", self.router.every):
                handler(entry)

    def business_totals(self) -> dict[str, float]:
        """Accumulated business value per currency."""
        totals: dict[str, float] = {}
        for entry in self.ledger:
            totals[entry.value.currency] = (
                totals.get(entry.value.currency, 0.0) + entry.value.amount
            )
        return totals
