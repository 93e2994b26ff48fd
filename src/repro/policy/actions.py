"""Adaptation actions.

The action vocabulary of WS-Policy4MASC, split across the two enforcement
layers exactly as in the paper:

- **process orchestration layer** (enacted by MASCAdaptationService):
  add / remove / replace an activity or activity block, suspend / resume /
  terminate the process instance, extend a pending timeout;
- **SOAP messaging layer** (enacted by the wsBus Adaptation Manager):
  invocation retries, Web services substitution, concurrent invocation of
  multiple equivalent services, skipping of activities.

Actions are declarative data, and each frozen dataclass below is the *single*
declaration of its assertion. ``element`` names the XML element; every
field is an XML attribute named by the camelCase of the field name, typed
by its annotation; :func:`attr` (a ``dataclasses.field`` whose metadata
holds the rules) declares its default, its bounds (``gt``/``ge``/``lt``/
``le``), ``choices``, ``nonempty`` and ``omit_when``, and a ``child`` rule
makes the field child elements instead.
:func:`schema` reads those declarations once per class, and the XML codec
(:mod:`repro.policy.xml`), the constructor-time bound check, the
validation warnings and the reference tables of ``docs/policy-language.md``
are all derived from it. Configuration assertions also name the
``trigger`` whose policies the owning service scans at load time.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import MISSING, dataclass, field, fields
from types import NoneType
from typing import Any, Callable, NamedTuple, get_args, get_origin, get_type_hints

from repro.orchestration import Activity, Invoke, Sequence

__all__ = [
    "ActionError",
    "AdaptationAction",
    "AdaptiveTimeoutAction",
    "AddActivityAction",
    "BulkheadAction",
    "BurnRateAlertAction",
    "CircuitBreakerAction",
    "CompensateInstanceAction",
    "ConcurrentInvokeAction",
    "DelayProcessAction",
    "ExtendTimeoutAction",
    "FederationAction",
    "IdempotencyAction",
    "InvokeSpec",
    "LoadLevelingAction",
    "LoadSheddingAction",
    "PolicyError",
    "PreferBestAction",
    "QuarantineAction",
    "RemoveActivityAction",
    "ReplaceActivityAction",
    "ResilienceAction",
    "ResponseCacheAction",
    "ResumeProcessAction",
    "RetryAction",
    "SELECTION_STRATEGIES",
    "SelectionStrategyAction",
    "ShardRoutingAction",
    "SkipAction",
    "SloAction",
    "SubstituteAction",
    "SuspendProcessAction",
    "TerminateProcessAction",
    "TracingAction",
    "TrafficAction",
    "XmlField",
    "attribute_text",
    "schema",
]


class PolicyError(Exception):
    """A policy is malformed or cannot be interpreted."""


class ActionError(PolicyError):
    """An action specification is invalid or cannot be enacted."""


# ---------------------------------------------------------------------------
# The assertion schema, read off the dataclass declarations
# ---------------------------------------------------------------------------

_BOUNDS = {
    "gt": (operator.gt, ">"),
    "ge": (operator.ge, ">="),
    "lt": (operator.lt, "<"),
    "le": (operator.le, "<="),
}


class XmlField(NamedTuple):
    """One dataclass field as the XML codec, checker and docs see it."""

    name: str
    #: XML attribute name: the camelCase of ``name``.
    xml_name: str
    #: ``str``, ``int``, ``float`` or ``bool``; for a child field its
    #: container (``tuple``, ``dict``, or ``None`` for one nested element).
    type: type | None
    #: Annotated ``... | None``: ``None`` means "attribute absent".
    optional: bool
    #: ``dataclasses.MISSING`` when the attribute is required.
    default: Any
    #: The field's metadata (bounds, choices, omit_when, child).
    rules: Any
    #: ``(text, predicate)`` per declared constraint — the one source of
    #: the runtime check, its error message and the reference table.
    constraints: tuple[tuple[str, Callable[[Any], bool]], ...]


def _constraints(rules) -> tuple[tuple[str, Callable[[Any], bool]], ...]:
    found = [
        (f"{symbol} {rules[key]}", lambda value, holds=holds, bound=rules[key]: holds(value, bound))
        for key, (holds, symbol) in _BOUNDS.items()
        if key in rules
    ]
    if "choices" in rules:
        found.append(("one of " + "/".join(rules["choices"]), rules["choices"].__contains__))
    if rules.get("nonempty"):
        found.append(("non-empty", bool))
    return tuple(found)


def attribute_text(value) -> str:
    """A field value as XML attribute text (``true``/``false``, else ``str``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def attr(default=MISSING, *, default_factory=MISSING, **rules):
    """A dataclass field whose metadata carries the declared rules."""
    return field(default=default, default_factory=default_factory, metadata=rules)


@functools.cache
def schema(cls) -> tuple[tuple[XmlField, ...], tuple[XmlField, ...]]:
    """``(attributes, children)`` of an assertion dataclass, in XML order.

    Computed once per class. Attributes that are always written come
    first, in declaration order, then the omittable ones (optional, or
    carrying ``omit_when``); plain child elements come before nested
    assertion elements. That canonical order is part of the wire format.
    """
    hints = get_type_hints(cls)
    attributes: list[XmlField] = []
    children: list[XmlField] = []
    for spec in fields(cls):
        hint = hints[spec.name]
        alternatives = get_args(hint) or (hint,)
        described = XmlField(
            name=spec.name,
            xml_name=re.sub(r"_(\w)", lambda match: match.group(1).upper(), spec.name),
            type=get_origin(hint)
            if "child" in spec.metadata
            else next(t for t in alternatives if t is not NoneType),
            optional=NoneType in alternatives,
            default=spec.default,
            rules=spec.metadata,
            constraints=_constraints(spec.metadata),
        )
        (children if "child" in spec.metadata else attributes).append(described)
    attributes.sort(key=lambda f: f.optional or "omit_when" in f.rules)
    children.sort(key=lambda f: isinstance(f.rules["child"], type))
    return tuple(attributes), tuple(children)


@dataclass(frozen=True)
class InvokeSpec:
    """Declarative description of a Web service call to insert.

    Either a concrete ``address`` or an abstract ``service_type`` (resolved
    through the registry / VEP binding at runtime — "the policy can specify
    a particular Web service or a set of criteria for dynamically selecting
    the best Web service from a directory").

    ``inputs`` maps message parts to ``$variable`` references or literals;
    ``outputs`` maps process variables to response parts — the "required
    parameters binding and value passing between base processes and their
    variation processes".
    """

    name: str
    operation: str
    service_type: str | None = None
    address: str | None = None
    inputs: dict[str, str] = attr(default_factory=dict, child=("Input", "part", "value"))
    outputs: dict[str, str] = attr(default_factory=dict, child=("Output", "variable", "part"))
    timeout_seconds: float | None = 30.0

    element = "InvokeActivity"

    def __post_init__(self) -> None:
        if self.service_type is None and self.address is None:
            raise ActionError(f"InvokeSpec {self.name!r} needs a serviceType or address")

    def to_activity(self) -> Invoke:
        return Invoke(
            name=self.name,
            operation=self.operation,
            to=self.address,
            service_type=self.service_type,
            inputs=dict(self.inputs),
            extract=dict(self.outputs),
            timeout_seconds=self.timeout_seconds,
        )


class AdaptationAction:
    """Base class: a single step of an adaptation policy."""

    #: Which middleware layer enforces this action.
    layer = "process"
    #: The XML element name (``None`` on abstract bases).
    element: str | None = None
    #: Further element names parsed as this action, never written.
    parse_aliases: tuple[str, ...] = ()
    #: For configuration assertions: the trigger whose policies the owning
    #: service scans at load time (``PolicyRepository.configuration``).
    trigger: str | None = None
    #: Element name -> action class, for the parser.
    by_element: dict[str, type[AdaptationAction]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "element" in cls.__dict__:
            for name in (cls.element, *cls.parse_aliases):
                AdaptationAction.by_element[name] = cls

    def __post_init__(self) -> None:
        """The generic check: every field against its declared constraints."""
        for spec in itertools.chain(*schema(type(self))):
            value = getattr(self, spec.name)
            if value is None:
                continue
            for text, holds in spec.constraints:
                if not holds(value):
                    raise ActionError(f"{self.element} {spec.xml_name}={value!r} must be {text}")

    def describe(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Process orchestration layer actions
# ---------------------------------------------------------------------------

def _variation(invokes, block_name: str | None, default_name: str) -> Activity:
    """The variation activity: a lone invoke, or a named block of them."""
    activities = [spec.to_activity() for spec in invokes]
    if len(activities) == 1 and block_name is None:
        return activities[0]
    return Sequence(block_name or default_name, activities)


@dataclass(frozen=True)
class AddActivityAction(AdaptationAction):
    """Insert a variation activity (or block) into the base process."""

    anchor: str
    position: str = attr("after", choices=("before", "after", "append"))
    invokes: tuple[InvokeSpec, ...] = attr((), child=InvokeSpec, nonempty=True)
    block_name: str | None = None
    #: Variable seed values passed from the policy into the instance
    #: (a ``$var`` value resolves from the event context).
    bindings: dict[str, str] = attr(default_factory=dict, child=("Bind", "variable", "value"))

    element = "AddActivity"

    def build_activity(self) -> Activity:
        return _variation(self.invokes, self.block_name, f"block:{self.anchor}")

    def describe(self) -> str:
        names = ", ".join(spec.name for spec in self.invokes)
        return f"add [{names}] {self.position} {self.anchor!r}"


@dataclass(frozen=True)
class RemoveActivityAction(AdaptationAction):
    """Delete an activity or a contiguous block from the base process.

    A block "is specified using beginning and ending points": when
    ``block_end`` is given, every sibling from ``target`` through
    ``block_end`` inclusive is removed.
    """

    target: str
    block_end: str | None = None

    element = "RemoveActivity"

    def describe(self) -> str:
        if self.block_end:
            return f"remove block {self.target!r}..{self.block_end!r}"
        return f"remove {self.target!r}"


@dataclass(frozen=True)
class ReplaceActivityAction(AdaptationAction):
    """Swap an activity for a variation activity/block."""

    target: str
    invokes: tuple[InvokeSpec, ...] = attr((), child=InvokeSpec, nonempty=True)
    block_name: str | None = None
    bindings: dict[str, str] = attr(default_factory=dict, child=("Bind", "variable", "value"))

    element = "ReplaceActivity"

    def build_activity(self) -> Activity:
        return _variation(self.invokes, self.block_name, f"replacement:{self.target}")

    def describe(self) -> str:
        names = ", ".join(spec.name for spec in self.invokes)
        return f"replace {self.target!r} with [{names}]"


@dataclass(frozen=True)
class SuspendProcessAction(AdaptationAction):
    """Suspend the affected process instance (cross-layer coordination)."""

    element = "Suspend"

    def describe(self) -> str:
        return "suspend process instance"


@dataclass(frozen=True)
class ResumeProcessAction(AdaptationAction):
    """Resume the affected process instance."""

    element = "Resume"

    def describe(self) -> str:
        return "resume process instance"


@dataclass(frozen=True)
class TerminateProcessAction(AdaptationAction):
    """Terminate the affected process instance."""

    reason: str = "terminated by adaptation policy"

    element = "Terminate"

    def describe(self) -> str:
        return f"terminate process instance ({self.reason})"


@dataclass(frozen=True)
class CompensateInstanceAction(AdaptationAction):
    """Compensate (saga-unwind) affected process instances.

    ``mode`` selects who drives the undo chain:

    - ``orchestration`` — the engine aborts the instance at its next
      activity boundary and the enclosing :class:`CompensationScope` runs
      the registered compensations in LIFO order;
    - ``choreography`` — the middleware sends each registered compensation
      as a wsBus invocation to the owning service directly, then
      terminates the instance (the engine never re-enters the process).

    ``scope`` restricts the unwind to one CompensationScope's steps;
    ``process`` restricts instance fan-out for instance-less events
    (e.g. SLO burn-rate alerts) to one process definition.
    """

    scope: str | None = None
    mode: str = attr("orchestration", choices=("orchestration", "choreography"))
    process: str | None = None
    reason: str = "compensated by adaptation policy"

    element = "Compensate"
    parse_aliases = ("CompensateOnEvent",)

    def describe(self) -> str:
        target = f" scope {self.scope!r}" if self.scope else ""
        return f"compensate process instance{target} ({self.mode}: {self.reason})"


@dataclass(frozen=True)
class DelayProcessAction(AdaptationAction):
    """Pause the affected process instance for a fixed interval.

    One of the paper's "relatively simple dynamic changes of process
    instances (e.g., ... delay/suspend/resume/terminate process)":
    suspend now, resume automatically after ``delay_seconds``.
    """

    delay_seconds: float = attr(10.0, gt=0)

    element = "DelayProcess"

    def describe(self) -> str:
        return f"delay process instance by {self.delay_seconds}s"


@dataclass(frozen=True)
class ExtendTimeoutAction(AdaptationAction):
    """Push out the calling activity's pending deadline.

    Used before messaging-layer recovery retries ("increase its timeout
    interval to avoid the calling process timing out").
    """

    extra_seconds: float = attr(10.0, gt=0)

    element = "ExtendTimeout"

    def describe(self) -> str:
        return f"extend pending timeout by {self.extra_seconds}s"


# ---------------------------------------------------------------------------
# SOAP messaging layer actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryAction(AdaptationAction):
    """Re-deliver the failed request to the same target.

    ``delay_seconds`` is the pause between retry cycles;
    ``backoff_multiplier`` stretches it geometrically.
    """

    max_retries: int = attr(3, ge=0)
    delay_seconds: float = attr(2.0, ge=0)
    backoff_multiplier: float = 1.0
    #: Hard ceiling on the backed-off delay; None leaves it unbounded.
    max_delay_seconds: float | None = attr(None, ge=0)
    #: Fraction of the delay randomized symmetrically around it (0.2 means
    #: ±20%) so independent retriers don't synchronize into bursts.
    jitter_fraction: float = attr(
        0.0, ge=0, lt=1, omit_when=lambda retry: not retry.jitter_fraction
    )

    layer = "messaging"
    element = "Retry"

    def delay_for_attempt(self, attempt: int, rng=None) -> float:
        """Delay before retry ``attempt`` (1-based).

        ``rng`` (a ``random.Random``, normally a named
        :class:`~repro.simulation.RandomSource` stream) supplies the
        jitter; without one the delay is the deterministic midpoint.
        """
        delay = self.delay_seconds * (self.backoff_multiplier ** max(0, attempt - 1))
        if self.max_delay_seconds is not None:
            delay = min(delay, self.max_delay_seconds)
        if rng is not None and self.jitter_fraction > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)

    def describe(self) -> str:
        description = (
            f"retry up to {self.max_retries}x with {self.delay_seconds}s delay"
            + (f" (backoff x{self.backoff_multiplier})" if self.backoff_multiplier != 1.0 else "")
        )
        if self.max_delay_seconds is not None:
            description += f", capped at {self.max_delay_seconds}s"
        if self.jitter_fraction > 0.0:
            description += f", ±{self.jitter_fraction:.0%} jitter"
        return description


@dataclass(frozen=True)
class SubstituteAction(AdaptationAction):
    """Fail over to an equivalent service registered with the VEP.

    ``strategy``: ``backup`` (the explicitly configured backup address),
    ``best_response_time`` (QoS history), ``round_robin``, or ``registry``
    (any implementation of the contract from the UDDI registry).
    """

    strategy: str = attr(
        "best_response_time",
        choices=("backup", "best_response_time", "round_robin", "registry"),
    )
    backup_address: str | None = None

    layer = "messaging"
    element = "Substitute"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.strategy == "backup" and not self.backup_address:
            raise ActionError("substitute strategy 'backup' needs a backup_address")

    def describe(self) -> str:
        target = f" -> {self.backup_address}" if self.backup_address else ""
        return f"substitute ({self.strategy}){target}"


@dataclass(frozen=True)
class ConcurrentInvokeAction(AdaptationAction):
    """Broadcast the request to several equivalent services.

    The first response wins and pending invocations are abandoned.
    """

    #: 0 = all registered targets.
    max_targets: int = attr(0, ge=0)

    layer = "messaging"
    element = "ConcurrentInvoke"

    def describe(self) -> str:
        scope = "all targets" if self.max_targets == 0 else f"{self.max_targets} targets"
        return f"concurrent invocation of {scope}, first response wins"


@dataclass(frozen=True)
class QuarantineAction(AdaptationAction):
    """Temporarily exclude an endpoint from its VEPs' membership.

    The *preventive* counterpart of substitution: when monitoring predicts
    degradation (e.g. a worsening response-time trend), the endpoint is
    taken out of rotation before it starts producing faults, and restored
    after ``duration_seconds``.
    """

    duration_seconds: float = attr(60.0, gt=0)

    layer = "messaging"
    element = "Quarantine"

    def describe(self) -> str:
        return f"quarantine endpoint for {self.duration_seconds}s"


@dataclass(frozen=True)
class PreferBestAction(AdaptationAction):
    """Re-order VEP members so the best-QoS endpoint is preferred.

    An *optimizing* action: no fault has occurred; the VEP's primary
    ordering is adjusted to the measured response times.
    """

    #: One of the metrics the QoS Measurement Service ranks endpoints by.
    metric: str = attr(
        "response_time",
        choices=("response_time", "reliability", "availability", "throughput"),
    )
    window: int = attr(50, ge=1)

    layer = "messaging"
    element = "PreferBest"

    def describe(self) -> str:
        return f"prefer best endpoint by {self.metric}"


@dataclass(frozen=True)
class SkipAction(AdaptationAction):
    """Answer the caller with a synthetic success instead of invoking.

    Used for non-business-critical calls ("for the Logging service we have
    configured a skip policy since the functionality provided by the Logging
    service is not business critical").
    """

    reason: str = "activity skipped by policy"

    layer = "messaging"
    element = "Skip"

    def describe(self) -> str:
        return f"skip invocation ({self.reason})"


# ---------------------------------------------------------------------------
# Resilience configuration assertions (messaging layer)
# ---------------------------------------------------------------------------


class ResilienceAction(AdaptationAction):
    """Base class of the resilience configuration vocabulary.

    These assertions don't repair one failed message; they configure the
    standing protection machinery of the bus (``repro.resilience``). They
    are declared in adaptation policies triggered by the conventional
    ``resilience.configure`` event and scope-matched against endpoints and
    VEPs, so thresholds stay policy-driven like every other MASC behavior.
    They can also appear in fault-triggered policies, in which case the
    Adaptation Manager (re)applies the configuration as a corrective side
    effect.
    """

    layer = "messaging"
    trigger = "resilience.configure"


@dataclass(frozen=True)
class CircuitBreakerAction(ResilienceAction):
    """Per-endpoint circuit breaker thresholds.

    The breaker opens when either ``consecutive_failures`` invocations fail
    in a row, or the failure rate over the last ``window`` calls (with at
    least ``min_calls`` observed) reaches ``failure_rate_threshold``. After
    ``open_seconds`` it admits up to ``half_open_probes`` probe requests;
    all probes succeeding closes it, any probe failing re-opens it.
    """

    failure_rate_threshold: float = attr(0.5, gt=0, le=1)
    window: int = attr(20, ge=1)
    min_calls: int = attr(5, ge=1)
    consecutive_failures: int = attr(5, ge=1)
    open_seconds: float = attr(30.0, gt=0)
    half_open_probes: int = attr(1, ge=1)

    element = "CircuitBreaker"

    def describe(self) -> str:
        return (
            f"circuit breaker (rate>={self.failure_rate_threshold:g} over {self.window}, "
            f"{self.consecutive_failures} consecutive, open {self.open_seconds:g}s, "
            f"{self.half_open_probes} probes)"
        )


@dataclass(frozen=True)
class BulkheadAction(ResilienceAction):
    """Concurrency cap (with a bounded wait queue) for an endpoint or VEP.

    ``applies_to`` selects the partition: ``endpoint`` caps in-flight
    invocations of one member service, ``vep`` caps concurrent mediations
    of one virtual endpoint. Requests beyond ``max_concurrent`` wait in a
    queue of at most ``max_queue``; beyond that they are rejected with a
    retryable ``ServiceUnavailable`` fault.
    """

    max_concurrent: int = attr(16, ge=1)
    max_queue: int = attr(32, ge=0)
    applies_to: str = attr("endpoint", choices=("endpoint", "vep"))

    element = "Bulkhead"

    def describe(self) -> str:
        return (
            f"bulkhead per {self.applies_to} "
            f"(max {self.max_concurrent} in flight, queue {self.max_queue})"
        )


@dataclass(frozen=True)
class AdaptiveTimeoutAction(ResilienceAction):
    """Derive invocation timeouts from observed latency percentiles.

    The timeout for an endpoint becomes ``multiplier`` × the ``aggregate``
    response time of the successes among the QoS Measurement Service's last
    ``window`` observations (failures occupy the window but carry no
    response time), clamped to ``[min_seconds, max_seconds]``. Until
    ``min_samples`` of those observations are successes the configured
    fixed timeout is used unchanged.
    """

    aggregate: str = attr("p95", choices=("mean", "max", "p95", "p99"))
    multiplier: float = attr(3.0, gt=0)
    min_seconds: float = attr(0.25, gt=0)
    max_seconds: float = 30.0
    window: int = attr(50, ge=1)
    min_samples: int = attr(5, ge=1)

    element = "AdaptiveTimeout"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_seconds < self.min_seconds:
            raise ActionError(
                f"need min_seconds <= max_seconds: {self.min_seconds}, {self.max_seconds}"
            )

    def describe(self) -> str:
        return (
            f"adaptive timeout = {self.multiplier:g} x {self.aggregate} "
            f"over {self.window} samples, clamped [{self.min_seconds:g}, {self.max_seconds:g}]s"
        )


@dataclass(frozen=True)
class LoadSheddingAction(ResilienceAction):
    """Bus-wide admission control for graceful degradation under overload.

    New mediations are rejected with a retryable ``ServiceUnavailable``
    fault while more than ``max_inflight`` requests are being mediated, or
    while the retry queue is deeper than ``max_retry_queue_depth`` (a
    deep retry backlog means the fleet is already struggling; taking on
    more work would only grow the collapse). Only *unscoped* policies
    configure shedding — it protects the whole bus, not one endpoint.
    """

    max_inflight: int = attr(64, ge=1)
    max_retry_queue_depth: int | None = attr(None, ge=0)

    element = "LoadShedding"

    def describe(self) -> str:
        description = f"shed load beyond {self.max_inflight} in-flight mediations"
        if self.max_retry_queue_depth is not None:
            description += f" or retry depth {self.max_retry_queue_depth}"
        return description


# ---------------------------------------------------------------------------
# Traffic-shaping assertions (messaging layer)
# ---------------------------------------------------------------------------


class TrafficAction(AdaptationAction):
    """Base class of the traffic-shaping vocabulary.

    Like the resilience assertions these configure standing machinery of
    the bus (``repro.traffic``) rather than repair one failed message.
    They are declared in adaptation policies carrying the conventional
    ``traffic.configure`` trigger and scope-matched against service types
    and operations, so caching, idempotency and leveling behavior stays
    policy-driven like every other MASC behavior.
    """

    layer = "messaging"
    trigger = "traffic.configure"


@dataclass(frozen=True)
class IdempotencyAction(TrafficAction):
    """Stamp scope-matched requests with an idempotency key.

    The VEP derives the key from the envelope's message ID at mediation
    entry; header-preserving copies carry it through every redelivery path
    (retry, dead-letter replay, broadcast, substitution, choreography
    compensation), and the service container's dedupe store then executes
    each key at most once, answering duplicates with the recorded first
    response — recovery "must not blindly re-invoke constituents".
    """

    element = "Idempotency"

    def describe(self) -> str:
        return "stamp idempotency keys for exactly-once execution"


@dataclass(frozen=True)
class ResponseCacheAction(TrafficAction):
    """Cache-aside response cache for scope-matched operations.

    Successful responses are kept for ``ttl_seconds`` (at most
    ``max_entries``, LRU-evicted) keyed by service type, operation and
    request body, so repeated reads are answered at the VEP without
    touching a member. ``invalidate_on`` lists MASC event names (fnmatch
    patterns, e.g. ``sloBurnRateExceeded`` or ``catalogChanged``) that
    flush the cache — policy-driven invalidation wired to the same event
    fabric that drives adaptation.
    """

    ttl_seconds: float = attr(30.0, gt=0)
    max_entries: int = attr(256, ge=1)
    invalidate_on: tuple[str, ...] = attr((), child=("InvalidateOn", "event"))

    element = "ResponseCache"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not all(self.invalidate_on):
            raise ActionError("invalidate_on patterns must be non-empty")

    def describe(self) -> str:
        description = (
            f"cache responses for {self.ttl_seconds:g}s "
            f"(max {self.max_entries} entries)"
        )
        if self.invalidate_on:
            description += f", invalidated on {', '.join(self.invalidate_on)}"
        return description


@dataclass(frozen=True)
class LoadLevelingAction(TrafficAction):
    """Queue-based load leveling + token-bucket throttling for a VEP.

    The gentler alternative to shed-only admission control: a burst of up
    to ``burst`` requests passes immediately, then arrivals are smoothed
    to ``rate_per_second`` by *delaying* them in a bounded virtual queue
    instead of rejecting them outright. Only past the queue's limits —
    more than ``max_queue`` requests already waiting, or a computed delay
    beyond ``max_wait_seconds`` — is a request rejected with a retryable
    ``ServiceUnavailable`` fault.
    """

    rate_per_second: float = attr(50.0, gt=0)
    burst: int = attr(10, ge=1)
    max_queue: int = attr(64, ge=0)
    max_wait_seconds: float = attr(5.0, ge=0)

    element = "LoadLeveling"

    def describe(self) -> str:
        return (
            f"level load to {self.rate_per_second:g}/s (burst {self.burst}, "
            f"queue {self.max_queue}, wait <= {self.max_wait_seconds:g}s)"
        )


# ---------------------------------------------------------------------------
# Federation assertions (fleet plane)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FederationAction(AdaptationAction):
    """Fleet-plane tuning for a federated multi-bus deployment.

    Declared in adaptation policies carrying the conventional
    ``federation.configure`` trigger (the same load-time-scan convention
    as ``resilience.configure`` and ``traffic.configure``); the
    :class:`~repro.federation.FederationService` materializes it into the
    fleet's membership, gossip and leader-election machinery. With no
    federation policies loaded the fleet runs on its built-in defaults.
    """

    heartbeat_interval_seconds: float = attr(0.5, gt=0)
    #: A bus is suspected dead after ``heartbeat_interval_seconds`` times
    #: this multiplier without a heartbeat.
    suspicion_multiplier: float = attr(3.0, gt=1)
    gossip_interval_seconds: float = attr(2.0, gt=0)
    #: Peers each bus exchanges QoS digests with per gossip round.
    gossip_fanout: int = attr(1, ge=1)
    #: Leadership lease duration; a dead leader's lease must expire
    #: before a follower may take over.
    lease_seconds: float = attr(3.0, gt=0)
    #: Virtual nodes per bus on the consistent-hash ring.
    virtual_nodes: int = attr(32, ge=1)

    layer = "federation"
    element = "Federation"
    trigger = "federation.configure"

    def describe(self) -> str:
        return (
            f"federation (heartbeat {self.heartbeat_interval_seconds:g}s "
            f"x{self.suspicion_multiplier:g}, gossip {self.gossip_interval_seconds:g}s "
            f"fanout {self.gossip_fanout}, lease {self.lease_seconds:g}s)"
        )


@dataclass(frozen=True)
class ShardRoutingAction(AdaptationAction):
    """Pin scope-matched VEPs to a named bus, overriding the hash ring.

    The policy override of consistent-hash placement: VEPs whose name
    matches ``vep_pattern`` (fnmatch) are owned by ``bus`` as long as
    that bus is alive; when it is not, placement falls back to the ring.
    """

    bus: str = attr("", nonempty=True)
    vep_pattern: str = attr("*", nonempty=True)

    layer = "federation"
    element = "ShardRouting"
    trigger = "federation.configure"

    def describe(self) -> str:
        return f"route VEPs matching {self.vep_pattern!r} to bus {self.bus!r}"


# ---------------------------------------------------------------------------
# SLO assertions and observability-driven adaptation (messaging layer)
# ---------------------------------------------------------------------------


#: Mirror of :data:`repro.wsbus.selection.STRATEGIES`; duplicated here so
#: the policy vocabulary stays importable without the messaging layer
#: (a consistency test asserts the two tuples stay identical).
SELECTION_STRATEGIES = (
    "round_robin",
    "best_response_time",
    "best_reliability",
    "random",
    "primary",
    "content",
)


@dataclass(frozen=True)
class SloAction(AdaptationAction):
    """A Service Level Objective over a scope of endpoints.

    Declared in adaptation policies carrying the conventional
    ``observability.slo`` trigger (the same load-time-scan convention as
    ``resilience.configure``); the bus's
    :class:`~repro.observability.slo.SloService` materializes one
    objective per scope-matched endpoint and evaluates it continuously
    against the shared :class:`~repro.observability.MetricsRegistry`.

    ``availability_target`` is a percentage (e.g. ``99.0``); the **error
    budget** is its complement (1% of requests may fail). An optional
    latency SLO is expressed as ``latency_percentile`` (``p50``/``p95``/
    ``p99``) ≤ ``latency_target_seconds``. ``window_seconds`` is the SLO
    period over which the budget is accounted.
    """

    name: str = "slo"
    availability_target: float = attr(99.0, gt=0, lt=100)
    latency_target_seconds: float | None = attr(None, gt=0)
    #: Written only beside a latency target, or when it is not the default.
    latency_percentile: str = attr(
        "p99",
        choices=("p50", "p95", "p99"),
        omit_when=lambda slo: slo.latency_target_seconds is None
        and slo.latency_percentile == SloAction.latency_percentile,
    )
    window_seconds: float = attr(3600.0, gt=0)

    layer = "messaging"
    element = "Slo"
    trigger = "observability.slo"

    @property
    def error_budget(self) -> float:
        """The tolerable failure fraction (1 - availability)."""
        return 1.0 - self.availability_target / 100.0

    def describe(self) -> str:
        description = (
            f"SLO {self.name!r}: availability >= {self.availability_target:g}% "
            f"over {self.window_seconds:g}s"
        )
        if self.latency_target_seconds is not None:
            description += (
                f", {self.latency_percentile} <= {self.latency_target_seconds:g}s"
            )
        return description


@dataclass(frozen=True)
class BurnRateAlertAction(AdaptationAction):
    """Multi-window burn-rate alerting thresholds for an SLO.

    Attached alongside an :class:`SloAction` in the same
    ``observability.slo`` policy. The burn rate is the observed failure
    rate divided by the error budget (1.0 = budget exactly consumed by
    the end of the SLO window). The evaluator fires
    ``sloBurnRateExceeded`` when **both** the fast and the slow window
    burn exceed their thresholds (the fast window gives reaction speed,
    the slow window suppresses blips), and ``sloRecovered`` once the fast
    window drops back under 1.0.
    """

    fast_window_seconds: float = attr(60.0, gt=0)
    slow_window_seconds: float = attr(300.0, gt=0)
    fast_burn_threshold: float = attr(14.0, gt=0)
    slow_burn_threshold: float = attr(2.0, gt=0)
    evaluation_interval_seconds: float = attr(5.0, gt=0)
    min_requests: int = attr(10, ge=1)

    layer = "messaging"
    element = "BurnRateAlert"
    trigger = "observability.slo"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fast_window_seconds > self.slow_window_seconds:
            raise ActionError(
                f"fast window ({self.fast_window_seconds:g}s) must not exceed "
                f"slow window ({self.slow_window_seconds:g}s)"
            )

    def describe(self) -> str:
        return (
            f"burn-rate alert (fast {self.fast_burn_threshold:g}x over "
            f"{self.fast_window_seconds:g}s, slow {self.slow_burn_threshold:g}x over "
            f"{self.slow_window_seconds:g}s, every {self.evaluation_interval_seconds:g}s)"
        )


@dataclass(frozen=True)
class TracingAction(AdaptationAction):
    """Head-based trace sampling for the distributed-tracing tier.

    Declared in adaptation policies carrying the conventional
    ``observability.tracing`` trigger (the same load-time-scan convention
    as ``observability.slo``); the bus's
    :class:`~repro.observability.sampling.TracingService` materializes it
    into a :class:`~repro.observability.sampling.TraceSampler` on the
    active tracer. ``sample_rate`` is the fraction of new traces recorded
    (decided deterministically from the trace id, so the same seed samples
    the same traces regardless of ``--jobs``); faults and SLO violations
    can *promote* an unsampled trace after the fact so the interesting
    traces are never the ones thrown away. With no tracing policy loaded
    every trace is recorded — and simulation results are byte-identical
    either way, because sampling only filters what is exported.
    """

    sample_rate: float = attr(1.0, ge=0, le=1)
    always_sample_faults: bool = True
    always_sample_slo_violations: bool = True

    layer = "messaging"
    element = "Tracing"
    trigger = "observability.tracing"

    def describe(self) -> str:
        promotions = [
            label
            for label, enabled in (
                ("faults", self.always_sample_faults),
                ("slo-violations", self.always_sample_slo_violations),
            )
            if enabled
        ]
        suffix = f" + {'/'.join(promotions)}" if promotions else ""
        return f"sample {self.sample_rate:.0%} of traces{suffix}"


@dataclass(frozen=True)
class SelectionStrategyAction(AdaptationAction):
    """Switch the selection strategy of scope-matched VEPs.

    The observability-driven adaptation of the SLO loop: a policy
    triggered by ``sloBurnRateExceeded`` can move a VEP from, say,
    ``round_robin`` to ``best_reliability`` so traffic drains away from
    the members burning the error budget.
    """

    strategy: str = attr("best_reliability", choices=SELECTION_STRATEGIES)

    layer = "messaging"
    element = "SelectionStrategy"

    def describe(self) -> str:
        return f"switch selection strategy to {self.strategy}"
