"""Wire-level trace context: a W3C-traceparent-style SOAP header.

PR 9's federated fleet broke the implicit assumption that one process
sees every hop of a request: spans were linked with in-process
``parent=`` object references, so a message that crosses a shard
boundary, fails over between buses, or is forwarded to the leader's
Adaptation Manager fragmented into disconnected traces. The remedy is
the same one the idempotency tier uses (:mod:`repro.traffic.idempotency`):
carry the context *in the message*.

The ``masc:TraceContext`` extension header holds a W3C-traceparent-style
value::

    00-<trace_id>-<span_id>-<flags>

where ``flags`` is ``01`` (sampled) or ``00`` (unsampled) and the ids are
this repository's deterministic counters (``tr-000001``/``sp-000004``),
not 128-bit hex — the *shape* of the header follows the Trace Context
recommendation, the ids follow the repo's reproducibility discipline. An
optional ``correlationId`` attribute carries the domain correlation key
across buses.

:class:`TraceContext` duck-types as the ``parent=`` argument of
:meth:`~repro.observability.tracing.Tracer.start_span` (it exposes
``trace_id``/``span_id``/``correlation_id``/``sampled``), so joining a
remote trace is exactly the same call as nesting under a local span.

The header is stamped **transparent** (see
:class:`~repro.soap.envelope.SoapHeader`): it travels in the serialized
XML but is excluded from :attr:`~repro.soap.envelope.SoapEnvelope.size_bytes`,
so the transport's size-dependent latency model sees the same bytes
whether tracing is on or off — a traced run is time-identical to an
untraced one (``tests/test_trace_zero_overhead.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.observability.tracing import correlation_id_for
from repro.soap.addressing import MASC_NS
from repro.soap.envelope import SoapEnvelope
from repro.xmlutils import Element, QName

__all__ = [
    "TRACE_CONTEXT_HEADER",
    "TraceContext",
    "context_of_span",
    "format_traceparent",
    "parse_traceparent",
    "stamp_trace_context",
    "start_hop_span",
    "trace_context_of",
]

#: The SOAP extension header (MASC namespace, never mustUnderstand,
#: always transparent) that carries the trace context across wire hops.
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


def format_traceparent(context: TraceContext) -> str:
    """The traceparent value of ``context``."""
    flags = "01" if context.sampled else "00"
    return f"{_VERSION}-{context.trace_id}-{context.span_id}-{flags}"


def parse_traceparent(text: str | None) -> TraceContext | None:
    """Parse a traceparent value; None when malformed or absent."""
    if not text:
        return None
    match = _TRACEPARENT_RE.match(text.strip())
    if match is None or match.group("version") == "ff":
        return None
    return TraceContext(
        trace_id=match.group("trace_id"),
        span_id=match.group("span_id"),
        sampled=match.group("flags") != "00",
    )


def context_of_span(span) -> TraceContext:
    """The wire context referencing ``span`` (any live span object)."""
    return TraceContext(
        trace_id=span.trace_id,
        span_id=span.span_id,
        sampled=getattr(span, "sampled", True),
        correlation_id=span.correlation_id,
    )


def trace_context_of(envelope: SoapEnvelope) -> TraceContext | None:
    """The trace context stamped on ``envelope``, or None."""
    header = envelope.header(TRACE_CONTEXT_HEADER)
    if header is None:
        return None
    context = parse_traceparent(header.text)
    if context is None:
        return None
    correlation = header.attributes.get("correlationId")
    if correlation:
        context = TraceContext(
            context.trace_id, context.span_id, context.sampled, correlation
        )
    return context


def stamp_trace_context(envelope: SoapEnvelope, context: TraceContext) -> None:
    """Stamp ``envelope`` with ``context`` (replacing any existing header).

    Unlike the idempotency key — which must *survive* redelivery untouched
    — the trace context is re-stamped at every hop so the receiver parents
    under the sender's most recent span. Replacement never mutates the
    shared header block (header-shallow ``copy()`` shares blocks across
    attempts): the stale entry is dropped from this envelope's own headers
    list and a fresh block is appended.
    """
    element = Element(TRACE_CONTEXT_HEADER, text=format_traceparent(context))
    if context.correlation_id:
        element.attributes["correlationId"] = context.correlation_id
    headers = envelope.headers
    for index, header in enumerate(headers):
        if header.element.name == TRACE_CONTEXT_HEADER:
            del headers[index]
            break
    envelope.add_header(element, transparent=True)


def start_hop_span(tracer, name, envelope, attributes, parent=None, carrier=None):
    """Start the span of one hop of ``envelope``'s journey and carry it on.

    The span correlates on ``envelope`` and joins ``parent`` (a live span)
    or else the wire context ``envelope`` carries. Returns ``(span,
    carrier)``: ``carrier`` — a header-shallow copy of ``envelope`` unless
    the caller passes one it already owns — is stamped with the span's
    context, so every downstream copy has this hop in its ancestry.
    """
    span = tracer.start_span(
        name,
        correlation_id=correlation_id_for(envelope),
        parent=parent if parent is not None else trace_context_of(envelope),
        attributes=attributes,
    )
    if carrier is None or carrier is envelope:
        carrier = envelope.copy()
    stamp_trace_context(carrier, context_of_span(span))
    return span, carrier
