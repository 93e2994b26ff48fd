"""Structured spans with parent links and cross-layer correlation.

A :class:`Span` records one named unit of work on the simulation clock:
a VEP mediation pass, a retry session, a policy enactment, an activity
execution. Spans carry three identifiers:

- ``span_id`` — unique per span;
- ``trace_id`` — shared by a span and all of its descendants (explicit
  ``parent=`` links);
- ``correlation_id`` — the *domain* key that ties spans together even
  across layers where no parent link can be threaded: the calling
  process instance ID when one exists, otherwise the original request's
  WS-Addressing message ID (see :func:`correlation_id_for`).

IDs are deterministic counters, not UUIDs, so traces are reproducible
bit-for-bit like everything else in this repository.

The default tracer everywhere is :data:`NULL_TRACER`. Instrumented code
follows one discipline::

    span = None
    if tracer.enabled:
        span = tracer.start_span("vep.handle", correlation_id=cid)
    try:
        ...
    finally:
        if span is not None:
            span.end()

i.e. a single attribute load and branch on the hot path when tracing is
disabled — zero allocations, zero exporter work.
"""

from __future__ import annotations

import itertools
import time
from functools import partial
from typing import Any

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer", "correlation_id_for"]


def correlation_id_for(envelope) -> str | None:
    """The correlation key of a SOAP message.

    Prefers the MASC ProcessInstanceID header (so engine-driven calls
    join the calling instance's trace), falling back to the message ID.
    """
    if envelope is None:
        return None
    addressing = envelope.addressing
    return addressing.process_instance_id or addressing.message_id


class Span:
    """One named, timed unit of work."""

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "correlation_id",
        "start_time",
        "end_time",
        "attributes",
        "events",
        "status",
        "sampled",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        trace_id: str,
        parent_id: str | None,
        correlation_id: str | None,
        start_time: float,
        tracer: "Tracer | None" = None,
        attributes: dict[str, Any] | None = None,
        sampled: bool = True,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.correlation_id = correlation_id
        self.start_time = start_time
        self.end_time: float | None = None
        self.attributes: dict[str, Any] = attributes if attributes is not None else {}
        self.events: list[tuple[float, str, dict[str, Any]]] = []
        self.status = "ok"
        #: Head-based sampling verdict, inherited from the parent (or the
        #: wire context) and made at trace birth by the tracer's sampler.
        #: Not serialized: an exported span was sampled by definition.
        self.sampled = sampled
        self._tracer = tracer

    # -- recording -----------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def add_event(self, name: str, **attributes: Any) -> "Span":
        """A point-in-time annotation inside this span."""
        now = self._tracer.now() if self._tracer is not None else self.start_time
        self.events.append((now, name, attributes))
        return self

    def end(self, status: str | None = None) -> None:
        """Close the span (idempotent) and hand it to the exporters."""
        if self.end_time is not None:
            return
        if status is not None:
            self.status = status
        tracer = self._tracer
        self.end_time = tracer.now() if tracer is not None else self.start_time
        if tracer is not None:
            tracer._finish(self)

    @property
    def duration(self) -> float:
        end = self.end_time if self.end_time is not None else self.start_time
        return end - self.start_time

    @property
    def ended(self) -> bool:
        return self.end_time is not None

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None and self.status == "ok":
            self.status = f"error:{exc_type.__name__}"
            self.attributes.setdefault("exception.type", exc_type.__name__)
            if str(exc):
                self.attributes.setdefault("exception.message", str(exc))
        self.end()

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The JSONL wire form (see ``docs/observability.md``)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "correlation_id": self.correlation_id,
            "start": self.start_time,
            "end": self.end_time,
            "status": self.status,
            "attributes": self.attributes,
            "events": [
                {"time": t, "name": n, "attributes": a} for t, n, a in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls(
            name=data["name"],
            span_id=data["span_id"],
            trace_id=data["trace_id"],
            parent_id=data.get("parent_id"),
            correlation_id=data.get("correlation_id"),
            start_time=data["start"],
            attributes=dict(data.get("attributes", {})),
        )
        span.end_time = data.get("end")
        span.status = data.get("status", "ok")
        span.events = [
            (e["time"], e["name"], dict(e.get("attributes", {})))
            for e in data.get("events", ())
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} id={self.span_id} corr={self.correlation_id} "
            f"status={self.status}>"
        )


class Tracer:
    """Creates spans and routes finished ones to exporters.

    ``clock`` is any zero-argument callable returning the current time.
    Components running on the simulation bind it to ``env.now`` the first
    time a tracer-aware component (:class:`~repro.wsbus.bus.WsBus`,
    :class:`~repro.orchestration.engine.WorkflowEngine`) sees the tracer,
    so span times are *simulated* seconds. Outside a simulation it falls
    back to ``time.monotonic``.
    """

    enabled = True

    #: Unsampled traces buffered for possible promotion, at most this many.
    MAX_BUFFERED_TRACES = 256

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self._exporters: list = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self.finished_count = 0
        #: Started-but-not-ended spans, flushed with ``unfinished=true`` at
        #: :meth:`close` so a crash mid-span never loses the partial record.
        self._open: dict[Span, None] = {}
        #: Head-based sampler (None = record everything, the default).
        self._sampler = None
        #: trace_id -> finished-but-unexported spans of unsampled traces,
        #: kept around (bounded) in case a later span promotes the trace.
        self._buffered: "dict[str, list[Span]]" = {}
        #: Unsampled traces promoted by a fault/SLO violation.
        self._promoted: set[str] = set()

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        clock = self._clock
        return clock() if clock is not None else time.monotonic()

    def bind_clock(self, env) -> None:
        """Adopt a simulation environment's clock (first binder wins)."""
        if self._clock is None:
            self._clock = partial(getattr, env, "now")

    def rebind_clock(self, env) -> None:
        """Forcibly adopt a new simulation's clock.

        For harnesses that reuse one tracer (and one exporter) across
        several independent simulation runs; components should use the
        soft :meth:`bind_clock` instead.
        """
        self._clock = partial(getattr, env, "now")

    # -- span lifecycle ------------------------------------------------------

    def start_span(
        self,
        name: str,
        correlation_id: str | None = None,
        parent: Span | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> Span:
        # ``parent`` is duck-typed: a live Span or a
        # :class:`~repro.observability.trace_context.TraceContext` read off
        # an envelope — anything exposing trace_id / span_id /
        # correlation_id (and optionally sampled) joins its trace.
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            if correlation_id is None:
                correlation_id = parent.correlation_id
            sampled = getattr(parent, "sampled", True)
        else:
            trace_id = f"tr-{next(self._trace_ids):06d}"
            parent_id = None
            sampler = self._sampler
            sampled = sampler is None or sampler.sample(trace_id)
        span = Span(
            name,
            f"sp-{next(self._span_ids):06d}",
            trace_id,
            parent_id,
            correlation_id,
            self.now(),
            self,
            attributes,
            sampled,
        )
        self._open[span] = None
        return span

    def span(self, name: str, **kwargs) -> Span:
        """``with tracer.span("x") as s:`` convenience (spans are CMs)."""
        return self.start_span(name, **kwargs)

    # -- exporters -----------------------------------------------------------

    def add_exporter(self, exporter) -> Any:
        self._exporters.append(exporter)
        return exporter

    # -- sampling ------------------------------------------------------------

    def configure_sampling(self, sampler) -> None:
        """Install (or clear, with None) a head-based trace sampler.

        The sampler decides at trace birth (``sample(trace_id)``) and may
        promote an unsampled trace after the fact (``promotes(span)`` —
        faults, SLO violations); see
        :class:`~repro.observability.sampling.TraceSampler`.
        """
        self._sampler = sampler

    # -- shutdown ------------------------------------------------------------

    def flush_open(self) -> int:
        """Export still-open spans with an explicit ``unfinished=true``.

        A crash (or an abandoned simulation process) can leave spans that
        never reached :meth:`Span.end`; silently dropping them would make
        the trace lie about what was in flight. Returns the flush count.
        """
        flushed = 0
        for span in list(self._open):
            span.set_attribute("unfinished", True)
            span.end()
            flushed += 1
        return flushed

    def close(self) -> None:
        self.flush_open()
        for exporter in self._exporters:
            exporter.close()

    def _finish(self, span: Span) -> None:
        self.finished_count += 1
        self._open.pop(span, None)
        if self._sampler is not None and not span.sampled:
            trace_id = span.trace_id
            if trace_id not in self._promoted and not self._sampler.promotes(span):
                # Buffer the unsampled span: a later fault or SLO violation
                # in this trace may still promote the whole thing.
                buffered = self._buffered.setdefault(trace_id, [])
                buffered.append(span)
                while len(self._buffered) > self.MAX_BUFFERED_TRACES:
                    self._buffered.pop(next(iter(self._buffered)))
                return
            self._promoted.add(trace_id)
            for earlier in self._buffered.pop(trace_id, ()):
                for exporter in self._exporters:
                    exporter.export(earlier)
        for exporter in self._exporters:
            exporter.export(span)


class _NullSpan:
    """The shared do-nothing span. Every method returns immediately."""

    __slots__ = ()

    name = "null"
    span_id = trace_id = "null"
    parent_id = correlation_id = None
    start_time = 0.0
    end_time: float | None = 0.0
    attributes: dict[str, Any] = {}
    events: list = []
    status = "ok"
    duration = 0.0
    ended = True
    sampled = False

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self

    def add_event(self, name: str, **attributes: Any) -> "_NullSpan":
        return self

    def end(self, status: str | None = None) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullTracer:
    """The default, disabled tracer: never allocates, never exports.

    ``start_span`` returns the shared :data:`NULL_SPAN` singleton, so
    even un-guarded call sites cost only a method call. Hot paths should
    still guard on ``tracer.enabled`` and skip span creation entirely.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def bind_clock(self, env) -> None:
        return None

    def rebind_clock(self, env) -> None:
        return None

    def start_span(self, name, correlation_id=None, parent=None, attributes=None):
        return NULL_SPAN

    def span(self, name, **kwargs):
        return NULL_SPAN

    def add_exporter(self, exporter):
        return exporter

    def configure_sampling(self, sampler) -> None:
        return None

    def flush_open(self) -> int:
        return 0

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()
