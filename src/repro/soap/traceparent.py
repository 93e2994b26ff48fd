"""The ``masc:TraceContext`` header codec: a W3C-traceparent-style value.

An envelope carries its trace context as a value
(:attr:`~repro.soap.envelope.SoapEnvelope.trace_context`); this module is
the only place that value meets XML, and it is used only where an envelope
is serialized (``to_xml``/``to_element``) or parsed (``from_element``).
The header holds::

    00-<trace_id>-<span_id>-<flags>

where ``flags`` is ``01`` (sampled) or ``00`` (unsampled) and the ids are
this repository's deterministic counters (``tr-000001``/``sp-000004``),
not 128-bit hex — the *shape* of the header follows the Trace Context
recommendation, the ids follow the repo's reproducibility discipline. An
optional ``correlationId`` attribute carries the domain correlation key
across buses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.soap.addressing import MASC_NS
from repro.xmlutils import Element, QName

__all__ = [
    "TRACE_CONTEXT_HEADER",
    "TraceContext",
    "format_traceparent",
    "parse_traceparent",
    "trace_context_element",
]

#: The SOAP extension header (MASC namespace, never mustUnderstand) that
#: carries the trace context in serialized form.
TRACE_CONTEXT_HEADER = QName(MASC_NS, "TraceContext")

_VERSION = "00"

#: Tolerant parse of the traceparent value. The span id anchors the split
#: (the tracer's span ids are always ``sp-<digits>``), so trace ids may
#: themselves contain dashes. An unrecognized value yields None — a
#: malformed header never breaks mediation, the hop just starts a fresh
#: trace, exactly like a request that carried no context at all.
_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>\S+?)-(?P<span_id>sp-\d+)-(?P<flags>[0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """A wire-portable reference to a span in some (possibly remote) trace."""

    trace_id: str
    span_id: str
    sampled: bool = True
    correlation_id: str | None = None


def format_traceparent(context) -> str:
    """The traceparent value of ``context`` (a TraceContext or a live span)."""
    flags = "01" if context.sampled else "00"
    return f"{_VERSION}-{context.trace_id}-{context.span_id}-{flags}"


def parse_traceparent(
    text: str | None, correlation_id: str | None = None
) -> TraceContext | None:
    """Parse a traceparent value; None when malformed or absent.

    A falsy ``correlation_id`` (the header's missing or empty attribute)
    reads as None.
    """
    if not text:
        return None
    match = _TRACEPARENT_RE.match(text.strip())
    if match is None or match.group("version") == "ff":
        return None
    return TraceContext(
        match.group("trace_id"),
        match.group("span_id"),
        match.group("flags") != "00",
        correlation_id or None,
    )


def trace_context_element(context) -> Element:
    """The ``masc:TraceContext`` header block of ``context``."""
    element = Element(TRACE_CONTEXT_HEADER, text=format_traceparent(context))
    if context.correlation_id:
        element.attributes["correlationId"] = context.correlation_id
    return element
