"""Policy model: documents, scopes, monitoring and adaptation policies.

An adaptation policy in WS-Policy4MASC "can define events which cause its
evaluation, optional conditions on its relevance, a state in which the
adapted system should be before the adaptation, additional conditions on
the adapted system, a set of actions to be taken if all previous conditions
are met, a state in which the system will be after the adaptation, and
change of business value associated with this adaptation". Every one of
those clauses is a field below.
"""

from __future__ import annotations

import fnmatch
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.orchestration.expressions import Expression
from repro.policy.actions import AdaptationAction, PolicyError, attr, schema
from repro.policy.assertions import MessageCondition, QoSThreshold
from repro.soap import FaultCode, SoapEnvelope
from repro.xmlutils import XPath, XPathError, coerce_text

__all__ = [
    "AdaptationPolicy",
    "BusinessValue",
    "GoalPolicy",
    "MonitoringPolicy",
    "MonitoringVerdict",
    "PolicyDocument",
    "PolicyError",
    "PolicyScope",
]


@dataclass(frozen=True)
class PolicyScope:
    """What a policy applies to (the WS-Policy Attachment subject).

    Any combination of: an abstract service type, a concrete endpoint
    address, an operation name, a process definition name, and an activity
    name. ``None`` fields match anything — scopes can be "at various levels
    of granularity such as a Service Endpoint or a Service Operation".
    """

    service_type: str | None = None
    endpoint: str | None = None
    operation: str | None = None
    process: str | None = None
    activity: str | None = None

    element = "Scope"

    def matches(self, **subject: str | None) -> bool:
        """True if this scope applies to the described subject."""
        for key in ("service_type", "endpoint", "operation", "process", "activity"):
            wanted = getattr(self, key)
            if wanted is None:
                continue
            actual = subject.get(key)
            if actual is None or not fnmatch.fnmatchcase(str(actual), wanted):
                return False
        return True

    def describe(self) -> str:
        parts = [
            f"{spec.xml_name}={getattr(self, spec.name)}"
            for spec in schema(PolicyScope)[0]
            if getattr(self, spec.name) is not None
        ]
        return "any" if not parts else " ".join(parts)


@dataclass(frozen=True)
class BusinessValue:
    """Monetary consequence of applying an adaptation.

    Positive amounts are gains (e.g. a fee charged to the customer);
    negative are costs (e.g. paying a third-party CreditRating service).
    The MASC decision maker accumulates these in a ledger, the seed of the
    paper's long-term goal of "maximizing business metrics (e.g., profit)".
    """

    amount: float
    currency: str = "AUD"
    reason: str = ""

    element = "BusinessValue"

    def describe(self) -> str:
        sign = "+" if self.amount >= 0 else ""
        return f"{sign}{self.amount} {self.currency}" + (f" ({self.reason})" if self.reason else "")


def _match_event(patterns: tuple[str, ...], event: str) -> bool:
    return any(fnmatch.fnmatchcase(event, pattern) for pattern in patterns)


class _Conditional:
    """The optional relevance ``condition`` of a policy."""

    def _compile_condition(self) -> None:
        # Compile eagerly so malformed policies fail at load time.
        compiled = Expression(self.condition) if self.condition is not None else None
        object.__setattr__(self, "_condition", compiled)

    def condition_holds(self, context: dict[str, Any]) -> bool:
        compiled = getattr(self, "_condition")
        if compiled is None:
            return True
        try:
            return bool(compiled.holds(context))
        except Exception:  # noqa: BLE001 - a failing condition means "not relevant"
            return False


#: A QoS aggregate look-up: (metric, window, aggregate, endpoint) -> the
#: observed value, or None when nothing has been measured yet.
QoSLookup = Callable[[str, int, str, str | None], float | None]


class MonitoringVerdict(NamedTuple):
    """What one relevant monitoring policy found in one message."""

    #: The ``extract`` variables, coerced (:func:`repro.xmlutils.coerce_text`).
    context: dict[str, Any]
    #: Whether every message condition holds (true when there is none).
    conditions_hold: bool
    #: ``(threshold, observed)`` per breached QoS threshold, looked up only
    #: as the consumer iterates.
    breaches: Iterable[tuple[QoSThreshold, float]]


@dataclass(frozen=True)
class MonitoringPolicy(_Conditional):
    """A sensor: detects situations and classifies violations.

    - the policy is considered when one of ``events`` occurs within scope;
    - ``extract`` pulls XPath values out of the observed message into the
      evaluation context (so adaptation conditions can reference them);
    - if ``condition`` does not hold on that context the policy is not
      relevant to the message (:meth:`evaluate` returns ``None``);
    - a *detection* policy (no ``classify_as``) fires when all message
      ``conditions`` hold: every event in ``emits`` is raised;
    - a *constraint* policy (with ``classify_as``) is violated when a
      message condition does not hold: the violation is classified as
      ``classify_as``;
    - each breached QoS threshold raises a violation classified as
      ``classify_as``, or ``SLAViolation`` without one.
    """

    name: str
    events: tuple[str, ...]
    scope: PolicyScope = field(default_factory=PolicyScope)
    condition: str | None = None
    conditions: tuple[MessageCondition, ...] = ()
    qos_thresholds: tuple[QoSThreshold, ...] = ()
    extract: dict[str, str] = field(default_factory=dict)
    classify_as: FaultCode | None = None
    emits: tuple[str, ...] = ()
    priority: int = 100

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("monitoring policy needs a name")
        if not self.events:
            raise PolicyError(f"monitoring policy {self.name!r} needs at least one event")
        self._compile_condition()
        compiled = {}
        for variable, expression in self.extract.items():
            try:
                compiled[variable] = XPath(expression)
            except XPathError as error:
                raise PolicyError(
                    f"monitoring policy {self.name!r}: extract variable {variable!r} "
                    f"has a malformed XPath {expression!r}: {error}"
                ) from error
        object.__setattr__(self, "_extract", compiled)

    def triggered_by(self, event: str) -> bool:
        return _match_event(self.events, event)

    def evaluate(
        self, envelope: SoapEnvelope, qos_lookup: QoSLookup | None, endpoint: str | None
    ) -> MonitoringVerdict | None:
        """Evaluate this policy on one message observed at ``endpoint``;
        ``None`` when the relevance condition fails. Without a
        ``qos_lookup`` no threshold is checked."""
        context: dict[str, Any] = {}
        if envelope.body is not None:
            for variable, xpath in getattr(self, "_extract").items():
                context[variable] = coerce_text(xpath.value(envelope.body))
        if not self.condition_holds(context):
            return None
        return MonitoringVerdict(
            context,
            all(condition.evaluate(envelope) for condition in self.conditions),
            self._breaches(qos_lookup, endpoint) if qos_lookup is not None else (),
        )

    def _breaches(
        self, qos_lookup: QoSLookup, endpoint: str | None
    ) -> Iterator[tuple[QoSThreshold, float]]:
        for threshold in self.qos_thresholds:
            observed = qos_lookup(threshold.metric, threshold.window, threshold.aggregate, endpoint)
            if not threshold.holds(observed):
                yield threshold, observed


@dataclass(frozen=True)
class AdaptationPolicy(_Conditional):
    """An effector: what to do when a situation or fault occurs."""

    name: str
    triggers: tuple[str, ...]
    actions: tuple[AdaptationAction, ...]
    scope: PolicyScope = field(default_factory=PolicyScope)
    condition: str | None = None
    state_before: str | None = None
    state_after: str | None = None
    business_value: BusinessValue | None = None
    priority: int = 100
    #: customization | correction | optimization | prevention — the paper's
    #: third classification dimension; informational but validated.
    adaptation_type: str = "correction"

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("adaptation policy needs a name")
        if not self.triggers:
            raise PolicyError(f"adaptation policy {self.name!r} needs at least one trigger")
        if not self.actions:
            raise PolicyError(f"adaptation policy {self.name!r} needs at least one action")
        if self.adaptation_type not in (
            "customization",
            "correction",
            "optimization",
            "prevention",
        ):
            raise PolicyError(
                f"unknown adaptation type {self.adaptation_type!r} in {self.name!r}"
            )
        self._compile_condition()

    def triggered_by(self, event: str) -> bool:
        return _match_event(self.triggers, event)

    @property
    def layers(self) -> set[str]:
        return {action.layer for action in self.actions}


@dataclass(frozen=True)
class GoalPolicy:
    """A utility/goal policy: the paper's planned extension beyond ECA.

    "We are also extending our middleware to enable making and enacting
    adaptation decisions... based on not only event-condition-action rules,
    but also more abstract utility/goal policies describing how to
    determine business benefits/costs and maximize business value."

    When a goal policy is in scope for an event, the utility-driven
    decision maker ranks the competing adaptation policies by estimated
    business value instead of enacting all of them in priority order.

    The cost model parameters price the non-monetary side effects of
    actions: recovery latency (``time_value_per_second``) and fan-out
    bandwidth (``bandwidth_cost_per_message``).
    """

    name: str
    goal: str = "maximize_business_value"
    scope: PolicyScope = attr(default_factory=PolicyScope, child=PolicyScope)
    time_value_per_second: float = 1.0
    bandwidth_cost_per_message: float = 0.1
    priority: int = 100

    element = "GoalPolicy"

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("goal policy needs a name")
        if self.goal not in ("maximize_business_value", "minimize_cost"):
            raise PolicyError(f"unknown goal {self.goal!r} in {self.name!r}")


@dataclass
class PolicyDocument:
    """A WS-Policy4MASC document: a named collection of policies."""

    name: str
    monitoring_policies: list[MonitoringPolicy] = field(default_factory=list)
    adaptation_policies: list[AdaptationPolicy] = field(default_factory=list)
    goal_policies: list[GoalPolicy] = field(default_factory=list)

    def policy_names(self) -> list[str]:
        return (
            [p.name for p in self.monitoring_policies]
            + [p.name for p in self.adaptation_policies]
            + [p.name for p in self.goal_policies]
        )

    def __len__(self) -> int:
        return (
            len(self.monitoring_policies)
            + len(self.adaptation_policies)
            + len(self.goal_policies)
        )
