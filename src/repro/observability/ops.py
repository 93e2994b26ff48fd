"""The operations plane: what an operator sees of the feedback loop.

Three tools, all read-only over the observability substrate:

- :class:`FlightRecorder` — a bounded ring buffer of the most recent
  spans and MASC events, registered like any other span exporter; its
  :meth:`~FlightRecorder.dump` writes everything to one JSON file when a
  fault or crash makes "what just happened" the only question that
  matters.
- :func:`render_top` — the ``python -m repro top`` table: one row per
  VEP member endpoint with availability, latency percentiles, burn rate,
  breaker state and SLO status, pulled live from the bus's QoS
  measurements, :class:`~repro.observability.slo.SloService` and
  :class:`~repro.resilience.ResilienceService`.
- :meth:`MetricsRegistry.render_prometheus()
  <repro.observability.metrics.MetricsRegistry.render_prometheus>`
  (in the metrics module) — the scrape-format snapshot this module's
  consumers archive next to the flight-recorder dump.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.observability.exporters import SpanExporter
from repro.observability.tracing import Span

__all__ = ["FlightRecorder", "render_top"]


class FlightRecorder(SpanExporter):
    """Ring buffer of recent spans + events, dumped on fault or crash.

    Register on a tracer (``tracer.add_exporter(recorder)``) to capture
    spans; feed it MASC events via :meth:`record_event` (the bus's SLO
    sink does this when wired). Only the most recent ``capacity`` entries
    of each kind survive — the recorder is for "the last few seconds
    before it went wrong", not for archival (that's the JSONL exporter).
    """

    def __init__(self, capacity: int = 512, tracer=None) -> None:
        self.capacity = capacity
        #: When given, :meth:`dump` first flushes the tracer's still-open
        #: spans (exported with ``unfinished=true``) so a crash dump shows
        #: what was *in flight*, not just what had completed.
        self.tracer = tracer
        self.spans: deque[dict] = deque(maxlen=capacity)
        self.events: deque[dict] = deque(maxlen=capacity)
        self.dumped: list[str] = []

    def export(self, span: Span) -> None:
        self.spans.append(span.to_dict())

    def record_event(self, event) -> None:
        """Record one MASC event (duck-typed: needs name/time/endpoint)."""
        self.events.append(
            {
                "name": event.name,
                "time": event.time,
                "endpoint": event.endpoint,
                "service_type": event.service_type,
                "raised_by": event.raised_by,
                "context": _plain(event.context),
            }
        )

    def dump(self, path, reason: str = "unspecified") -> Path:
        """Write the buffered spans/events to ``path`` as one JSON object."""
        unfinished = 0
        if self.tracer is not None:
            unfinished = self.tracer.flush_open()
        target = Path(path)
        payload = {
            "reason": reason,
            "capacity": self.capacity,
            "unfinished_spans_flushed": unfinished,
            "spans": list(self.spans),
            "events": list(self.events),
        }
        target.write_text(json.dumps(payload, indent=2, default=str), encoding="utf-8")
        self.dumped.append(str(target))
        return target


def _plain(value):
    """Context values reduced to JSON-safe plain data."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def render_top(bus, window_seconds: float = 60.0) -> str:
    """The live per-VEP / per-endpoint operations table of one bus.

    One row per VEP member endpoint: request volume and availability over
    the last ``window_seconds`` (from the SLO engine's sliding windows
    when active, otherwise the QoS Measurement Service), latency
    percentiles, the fast-window burn rate, the breaker state, and the
    worst SLO state of any objective covering the endpoint.
    """
    from repro.metrics.report import Table

    table = Table(
        ["VEP", "Endpoint", "Req", "Avail", "p50", "p95", "p99", "Burn", "Breaker", "SLO"],
        title=f"wsBus top — t={bus.env.now:.1f}s (window {window_seconds:g}s)",
    )
    slo = getattr(bus, "slo", None)
    slo_active = slo is not None and slo.active
    breaker_states = bus.resilience.breaker_states() if bus.resilience.active else {}
    slo_status = slo.status_table() if slo_active else {}
    for vep_name in sorted(bus.veps):
        vep = bus.veps[vep_name]
        for member in vep.members:
            requests = availability = burn = None
            percentiles = {}
            if slo_active:
                requests, failures = slo.endpoint_window(member, window_seconds)
                if requests:
                    availability = 1.0 - failures / requests
                statuses = slo_status.get(member, {})
                if statuses:
                    burn = max(s["fast_burn"] for s in statuses.values())
                histogram = slo._instruments.get(member)
                if histogram is not None:
                    histogram = histogram[2]
                    percentiles = {q: histogram.percentile(q) for q in (50, 95, 99)}
            if availability is None:
                availability = bus.qos.lookup("availability", 0, "mean", member)
            if not percentiles:
                qos = bus.qos.endpoint(member)
                if qos is not None:
                    percentiles = {q: qos.response_time(0, f"p{q}") for q in (50, 95, 99)}
            states = slo_status.get(member, {})
            slo_cell = _worst_state(states) if slo_active else "-"
            table.add_row(
                [
                    f"{vep_name} [{vep.selection_strategy}]",
                    member,
                    "-" if requests is None else requests,
                    _fmt_percent(availability),
                    _fmt_seconds(percentiles.get(50)),
                    _fmt_seconds(percentiles.get(95)),
                    _fmt_seconds(percentiles.get(99)),
                    "-" if burn is None else f"{burn:.1f}x",
                    breaker_states.get(member, "-"),
                    slo_cell,
                ]
            )
    return table.render()


_STATE_ORDER = {"ok": 0, "burning": 1, "exhausted": 2}


def _worst_state(states: dict[str, dict]) -> str:
    if not states:
        return "-"
    return max(
        (status["state"] for status in states.values()),
        key=lambda state: _STATE_ORDER.get(state, 0),
    )


def _fmt_percent(value) -> str:
    return "-" if value is None else f"{value * 100:.1f}%"


def _fmt_seconds(value) -> str:
    return "-" if value is None else f"{value * 1000:.0f}ms"
