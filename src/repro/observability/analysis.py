"""Trace analytics: assembly, critical path, latency attribution.

The exporters (:mod:`repro.observability.exporters`,
:class:`~repro.observability.ops.FlightRecorder`) record *spans*; an
operator asks questions about *traces* — "which requests were slow, and
where did the time go?". This module turns exported span streams back
into answers:

- :func:`load_spans` merges any mix of JSONL span files and
  flight-recorder dumps from **one run** into a deduplicated span list
  (a fleet writes one JSONL per run plus per-bus flight dumps; span ids
  are unique within a run, so the union is well-defined);
- :func:`group_traces` / :func:`assemble_trace` rebuild the per-trace
  span trees, including trees whose root crossed buses via the trace
  context the envelope carries;
- :func:`critical_path` walks the tree root-to-leaf through the child
  that finished last — the chain of spans an operator should read first;
- :func:`attribute_latency` charges every simulated second of the root
  span to exactly one **phase** (queue-wait, mediation, network,
  service-execution, adaptation, other) by exclusive self-time, so the
  phase durations *sum to the critical-path (root) duration exactly* —
  no second is double-counted or dropped.

Everything here is pure post-processing over plain :class:`Span`
records; nothing imports the simulation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.observability.exporters import read_spans_jsonl
from repro.observability.tracing import Span

__all__ = [
    "PHASES",
    "TraceSummary",
    "TraceTree",
    "assemble_trace",
    "attribute_latency",
    "critical_path",
    "group_traces",
    "load_spans",
    "phase_of",
    "slowest_traces",
    "trace_report",
]

#: Attribution phases, in report order. Every span name maps to exactly
#: one phase (:func:`phase_of`); unknown names land in ``other``.
PHASES = (
    "queue-wait",
    "mediation",
    "network",
    "service-execution",
    "adaptation",
    "other",
)

#: Longest-prefix-wins span-name → phase table. ``wsbus.mediate``'s
#: *self* time is the admission-queue wait (its child ``vep.handle``
#: covers actual mediation work), hence its phase.
_PHASE_PREFIXES = (
    ("wsbus.mediate", "queue-wait"),
    ("vep.handle", "mediation"),
    ("traffic.", "mediation"),
    ("wsbus.monitoring", "mediation"),
    ("wsbus.pipeline", "mediation"),
    ("resilience.", "mediation"),
    ("wsbus.send", "network"),
    ("net.exchange", "network"),
    ("service.execute", "service-execution"),
    ("wsbus.retry", "adaptation"),
    ("wsbus.adaptation", "adaptation"),
    ("wsbus.policy", "adaptation"),
    ("masc.", "adaptation"),
    ("slo.", "adaptation"),
    ("federation.", "adaptation"),
    ("process.", "adaptation"),
    ("engine.", "adaptation"),
    ("persistence.", "adaptation"),
)


def phase_of(name: str) -> str:
    """The attribution phase of a span name (longest matching prefix)."""
    best = "other"
    best_len = -1
    for prefix, phase in _PHASE_PREFIXES:
        if name.startswith(prefix) and len(prefix) > best_len:
            best = phase
            best_len = len(prefix)
    return best


# -- loading -----------------------------------------------------------------


def load_spans(paths) -> list[Span]:
    """Merge span files from one run into a deduplicated, ordered list.

    Accepts any mix of JSONL span files and flight-recorder dumps (a
    JSON object with a ``"spans"`` list). Duplicate span ids — the same
    span reaching both the JSONL exporter and a flight recorder — keep
    the record that has an end time (a finished record wins over an
    ``unfinished`` flush). Only meaningful for files from a *single*
    run: span ids restart at ``sp-000001`` every run.
    """
    merged: dict[str, Span] = {}
    for path in paths:
        for span in _read_any(path):
            previous = merged.get(span.span_id)
            if previous is None or (
                previous.end_time is None and span.end_time is not None
            ):
                merged[span.span_id] = span
    return sorted(merged.values(), key=lambda s: (s.start_time, s.span_id))


def _read_any(path) -> list[Span]:
    target = Path(path)
    text = target.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "spans" in payload:
            # A flight-recorder dump.
            return [Span.from_dict(record) for record in payload["spans"]]
    return read_spans_jsonl(target)


# -- assembly ----------------------------------------------------------------


@dataclass
class TraceTree:
    """One assembled trace: the root plus a parent→children index."""

    trace_id: str
    root: Span
    spans: list[Span]
    children: dict[str, list[Span]] = field(repr=False, default_factory=dict)

    @property
    def duration(self) -> float:
        return _end_of(self.root) - self.root.start_time

    @property
    def span_count(self) -> int:
        return len(self.spans)


@dataclass(frozen=True)
class TraceSummary:
    """One row of the slowest-traces table."""

    trace_id: str
    root_name: str
    start: float
    duration: float
    span_count: int
    status: str
    correlation_id: str | None


def _end_of(span: Span) -> float:
    return span.end_time if span.end_time is not None else span.start_time


def group_traces(spans) -> dict[str, list[Span]]:
    """``{trace_id: [span, ...]}`` in deterministic order."""
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    for bucket in grouped.values():
        bucket.sort(key=lambda s: (s.start_time, s.span_id))
    return grouped


def assemble_trace(spans) -> TraceTree:
    """Build the tree of one trace's spans.

    The root is the span whose parent is absent from the collection
    (sampling or ring-buffer eviction can drop a true ancestor — the
    earliest orphan then stands in as root). Remaining orphans hang off
    the synthetic root position so no span silently disappears.
    """
    if not spans:
        raise ValueError("cannot assemble an empty trace")
    ordered = sorted(spans, key=lambda s: (s.start_time, s.span_id))
    by_id = {span.span_id: span for span in ordered}
    children: dict[str, list[Span]] = {}
    orphans: list[Span] = []
    for span in ordered:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            orphans.append(span)
    root = orphans[0]
    # Extra orphans (evicted ancestors) become children of the root so
    # the walk still visits them.
    for span in orphans[1:]:
        children.setdefault(root.span_id, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start_time, s.span_id))
    return TraceTree(
        trace_id=root.trace_id, root=root, spans=ordered, children=children
    )


def slowest_traces(spans, limit: int = 10) -> list[TraceSummary]:
    """The ``limit`` longest traces, longest first (ties by trace id)."""
    summaries = []
    for trace_id, bucket in group_traces(spans).items():
        tree = assemble_trace(bucket)
        summaries.append(
            TraceSummary(
                trace_id=trace_id,
                root_name=tree.root.name,
                start=tree.root.start_time,
                duration=tree.duration,
                span_count=tree.span_count,
                status=tree.root.status,
                correlation_id=tree.root.correlation_id,
            )
        )
    summaries.sort(key=lambda s: (-s.duration, s.trace_id))
    return summaries[:limit]


# -- critical path -----------------------------------------------------------


def critical_path(tree: TraceTree) -> list[Span]:
    """Root-to-leaf chain through the child that finished last.

    The returned chain is what an operator reads first: at every level
    the span that gated its parent's completion. Its total duration is
    the root's duration (the path lives inside the root span).
    """
    path = [tree.root]
    current = tree.root
    while True:
        offspring = tree.children.get(current.span_id, ())
        if not offspring:
            return path
        current = max(offspring, key=lambda s: (_end_of(s), s.span_id))
        path.append(current)


# -- latency attribution -----------------------------------------------------


def attribute_latency(tree: TraceTree) -> dict[str, float]:
    """Exclusive self-time per phase over the root span's tree.

    Every span's *effective window* is its own interval clipped to its
    parent's effective window (a child that outlives its parent — an
    abandoned exchange racing a timeout — only counts while the parent
    was open). The root's interval is cut at every window edge and each
    elementary segment is charged to exactly one span: the **deepest**
    span whose effective window covers it (ties go to the later-starting
    span, then the higher span id — deterministic, and resolving
    overlapping siblings without double-counting). Segment times are
    charged to :func:`phase_of` the owning span's name.

    By construction the segments tile the root's interval exactly:
    ``sum(attribute_latency(t).values()) == t.duration`` to float
    addition error — the invariant ``python -m repro trace
    --attribution`` asserts.
    """
    windows: list[tuple[float, float, int, Span]] = []

    def walk(span: Span, lo: float, hi: float, depth: int) -> None:
        lo = max(lo, span.start_time)
        hi = min(hi, _end_of(span))
        if hi <= lo:
            return
        windows.append((lo, hi, depth, span))
        for child in tree.children.get(span.span_id, ()):
            walk(child, lo, hi, depth + 1)

    root_lo, root_hi = tree.root.start_time, _end_of(tree.root)
    walk(tree.root, root_lo, root_hi, 0)
    edges = sorted(
        {root_lo, root_hi}
        | {lo for lo, _, _, _ in windows}
        | {hi for _, hi, _, _ in windows}
    )
    phases: dict[str, list[float]] = {phase: [] for phase in PHASES}
    for segment_lo, segment_hi in zip(edges, edges[1:]):
        owner = None
        owner_key = None
        for lo, hi, depth, span in windows:
            if lo <= segment_lo and segment_hi <= hi:
                key = (depth, lo, span.span_id)
                if owner_key is None or key > owner_key:
                    owner, owner_key = span, key
        if owner is not None:
            phases[phase_of(owner.name)].append(segment_hi - segment_lo)
    # fsum keeps the "phases sum to the critical-path duration" invariant
    # tight even for thousand-span trees.
    return {phase: math.fsum(values) for phase, values in phases.items()}


# -- reporting ---------------------------------------------------------------


def trace_report(spans, limit: int = 10) -> dict:
    """The JSON report behind ``python -m repro trace --report``."""
    rows = slowest_traces(spans, limit=limit)
    grouped = group_traces(spans)
    traces = []
    for summary in rows:
        tree = assemble_trace(grouped[summary.trace_id])
        attribution = attribute_latency(tree)
        traces.append(
            {
                "trace_id": summary.trace_id,
                "root": summary.root_name,
                "start": summary.start,
                "duration": summary.duration,
                "spans": summary.span_count,
                "status": summary.status,
                "correlation_id": summary.correlation_id,
                "critical_path": [
                    {
                        "name": span.name,
                        "span_id": span.span_id,
                        "start": span.start_time,
                        "duration": _end_of(span) - span.start_time,
                        "status": span.status,
                    }
                    for span in critical_path(tree)
                ],
                "attribution": attribution,
                "attribution_total": math.fsum(attribution.values()),
            }
        )
    return {
        "span_count": len(list(spans)),
        "trace_count": len(grouped),
        "traces": traces,
    }
