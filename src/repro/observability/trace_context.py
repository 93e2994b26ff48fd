"""Trace context that travels with a message across wire hops.

PR 9's federated fleet broke the implicit assumption that one process
sees every hop of a request: spans were linked with in-process
``parent=`` object references, so a message that crosses a shard
boundary, fails over between buses, or is forwarded to the leader's
Adaptation Manager fragmented into disconnected traces. The remedy is
the same one the idempotency tier uses (:mod:`repro.traffic.idempotency`):
carry the context *in the message*.

The context is a value on the envelope
(:attr:`~repro.soap.envelope.SoapEnvelope.trace_context`) — normally the
live span of the hop that sent it, which already exposes ``trace_id``,
``span_id``, ``sampled`` and ``correlation_id``. Stamping and reading it
allocate nothing and parse nothing. It becomes the ``masc:TraceContext``
extension header, a W3C-traceparent-style value::

    00-<trace_id>-<span_id>-<flags>

only in serialized form: ``to_xml``/``to_element`` write it and
``from_element`` reads it back into a :class:`TraceContext`
(:mod:`repro.soap.traceparent` is that codec).

:class:`TraceContext` duck-types as the ``parent=`` argument of
:meth:`~repro.observability.tracing.Tracer.start_span`, like a live span,
so joining a remote trace is exactly the same call as nesting under a
local span.

The context never counts towards
:attr:`~repro.soap.envelope.SoapEnvelope.size_bytes`, so the transport's
size-dependent latency model sees the same bytes whether tracing is on or
off — a traced run is time-identical to an untraced one
(``tests/test_trace_zero_overhead.py``).
"""

from __future__ import annotations

from repro.observability.tracing import correlation_id_for
from repro.soap.envelope import SoapEnvelope
from repro.soap.traceparent import (
    TRACE_CONTEXT_HEADER,
    TraceContext,
    format_traceparent,
    parse_traceparent,
)

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


def context_of_span(span) -> TraceContext:
    """The wire context referencing ``span`` (any live span object)."""
    return TraceContext(
        trace_id=span.trace_id,
        span_id=span.span_id,
        sampled=getattr(span, "sampled", True),
        correlation_id=span.correlation_id,
    )


def trace_context_of(envelope: SoapEnvelope):
    """The trace context ``envelope`` carries, or None."""
    return envelope.trace_context


def stamp_trace_context(envelope: SoapEnvelope, context) -> None:
    """Stamp ``envelope`` with ``context``, replacing any earlier one.

    Unlike the idempotency key — which must *survive* redelivery untouched
    — the trace context is re-stamped at every hop so the receiver parents
    under the sender's most recent span. The context is a field of the
    envelope, so stamping a header-shallow ``copy()`` never touches the
    original.
    """
    envelope.stamp_trace_context(context)


def start_hop_span(tracer, name, envelope, attributes, parent=None, carrier=None):
    """Start the span of one hop of ``envelope``'s journey and carry it on.

    The span correlates on ``envelope`` and joins ``parent`` (a live span)
    or else the context ``envelope`` carries. Returns ``(span, carrier)``:
    ``carrier`` — a header-shallow copy of ``envelope`` unless the caller
    passes one it already owns — is stamped with the span itself, so every
    downstream copy has this hop in its ancestry.
    """
    span = tracer.start_span(
        name,
        correlation_id_for(envelope),
        parent if parent is not None else envelope.trace_context,
        attributes,
    )
    if carrier is None or carrier is envelope:
        carrier = envelope.copy()
    # The span is its own context. A falsy correlation id reads as absent
    # on the wire, so the receiver sees None, never "".
    carrier.stamp_trace_context(
        span
        if span.correlation_id or span.correlation_id is None
        else TraceContext(span.trace_id, span.span_id, span.sampled)
    )
    return span, carrier
