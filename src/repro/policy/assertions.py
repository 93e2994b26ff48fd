"""Monitoring assertions: message conditions and QoS thresholds.

Monitoring policies "specify the desired behavior of the system in terms of
(a) pre-conditions and post-conditions that express constraints over
exchanged messages (b) thresholds over QoS guarantees (e.g. service response
time) as stipulated in pre-established SLAs".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soap import SoapEnvelope
from repro.xmlutils import XPath

__all__ = ["MessageCondition", "QoSThreshold"]

_OPERATORS = {
    "exists": lambda value, _ref: value is not None,
    "absent": lambda value, _ref: value is None,
    "eq": lambda value, ref: value == ref,
    "ne": lambda value, ref: value != ref,
    "lt": lambda value, ref: value is not None and _num(value) < _num(ref),
    "lte": lambda value, ref: value is not None and _num(value) <= _num(ref),
    "gt": lambda value, ref: value is not None and _num(value) > _num(ref),
    "gte": lambda value, ref: value is not None and _num(value) >= _num(ref),
    "contains": lambda value, ref: value is not None and str(ref) in str(value),
    "matches": lambda value, ref: value is not None and __import__("re").search(str(ref), str(value)) is not None,
}


def _num(value) -> float:
    return float(value)


@dataclass(frozen=True)
class MessageCondition:
    """An XPath constraint over a message header or payload.

    ``applies_to`` selects the evaluation root: ``body`` (default),
    ``header``, or ``envelope``.
    """

    xpath: str
    operator: str = "exists"
    value: str | None = None
    applies_to: str = "body"

    element = "MessageCondition"

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ValueError(
                f"unknown operator {self.operator!r}; expected one of {sorted(_OPERATORS)}"
            )
        # Compile eagerly so malformed policies fail at load time.
        object.__setattr__(self, "_compiled", XPath(self.xpath))

    def evaluate(self, envelope: SoapEnvelope) -> bool:
        """True if the condition holds for ``envelope``."""
        root = None
        if self.applies_to in ("body", "envelope"):
            root = envelope.to_element() if self.applies_to == "envelope" else envelope.body
        elif self.applies_to == "header":
            root = envelope.to_element().find("{http://schemas.xmlsoap.org/soap/envelope/}Header")
        if root is None:
            return self.operator == "absent"
        observed = self._compiled.value(root)  # type: ignore[attr-defined]
        try:
            return bool(_OPERATORS[self.operator](observed, self.value))
        except (TypeError, ValueError):
            return False

    def describe(self) -> str:
        suffix = f" {self.value!r}" if self.value is not None else ""
        return f"{self.applies_to}:{self.xpath} {self.operator}{suffix}"


@dataclass(frozen=True)
class QoSThreshold:
    """A threshold over a measured QoS metric.

    ``metric`` is one of the QoS Measurement Service's metrics
    (``response_time``, ``reliability``, ``availability``, ``throughput``);
    ``window`` is how many recent observations the aggregate is computed
    over. A violated threshold raises an ``SLAViolation``-classified event.
    """

    metric: str
    operator: str
    value: float
    window: int = 50
    aggregate: str = "mean"  # mean | max | min | p95 | p99

    element = "QoSThreshold"

    def __post_init__(self) -> None:
        if self.operator not in ("lt", "lte", "gt", "gte"):
            raise ValueError(f"QoS threshold operator must be an ordering, got {self.operator!r}")
        if self.aggregate not in ("mean", "max", "min", "p95", "p99"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")

    def holds(self, observed: float | None) -> bool:
        """True if the guarantee is satisfied by the observed aggregate."""
        if observed is None:
            return True  # no data: nothing to violate yet
        return bool(_OPERATORS[self.operator](observed, self.value))

    def describe(self) -> str:
        return f"{self.aggregate}({self.metric})[{self.window}] {self.operator} {self.value}"
