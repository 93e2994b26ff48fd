"""Cross-cutting observability: structured tracing and metrics.

The paper's wsBus *measures* QoS (the QoS Measurement Service and the
Monitoring Service of Section 3) but gives operators no way to see *why*
an adaptation fired — which VEP member was selected, which retry attempt
succeeded, which WS-Policy4MASC rule rewrote a running instance. This
package adds that missing layer:

- :mod:`repro.observability.tracing` — :class:`Tracer` / :class:`Span`
  with parent links and message-ID / process-instance-ID correlation, so
  one SCM request yields a single correlated trace spanning the messaging
  layer (VEP dispatch, retries, substitution) and the process layer
  (policy decisions, dynamic modification);
- :mod:`repro.observability.metrics` — :class:`MetricsRegistry` with
  counters and latency histograms;
- :mod:`repro.observability.exporters` — pluggable span sinks: in-memory
  (tests), JSONL files (offline analysis), and a human-readable console
  trace tree;
- :mod:`repro.observability.trace_context` — the trace context each
  envelope carries as a value (serialized as the W3C-traceparent-style
  ``masc:TraceContext`` header) so trace identity crosses
  bus/shard/failover hops and a fleet-mediated request is one trace;
- :mod:`repro.observability.analysis` — trace assembly, critical-path
  extraction and per-phase latency attribution over exported spans
  (``python -m repro trace``);
- :mod:`repro.observability.sampling` — policy-driven head-based trace
  sampling (the WS-Policy4MASC ``Tracing`` assertion), with retroactive
  promotion of faulted / SLO-violating traces.

Everything defaults to the **no-op** :data:`NULL_TRACER` /
:data:`NULL_METRICS` singletons: instrumented hot paths guard on
``tracer.enabled`` and allocate nothing when tracing is off, so the
Figure 5 / Table 1 benchmarks are unaffected (see
``tests/test_observability.py::test_null_tracer_adds_zero_allocations``).
"""

from repro.observability.analysis import (
    attribute_latency,
    assemble_trace,
    critical_path,
    group_traces,
    load_spans,
    slowest_traces,
    trace_report,
)
from repro.observability.exporters import (
    ConsoleSummaryExporter,
    InMemoryExporter,
    JsonlExporter,
    SpanExporter,
    read_spans_jsonl,
    render_trace_tree,
)
from repro.observability.metrics import (
    NULL_METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    labeled_name,
)
from repro.observability.trace_context import (
    TraceContext,
    context_of_span,
    format_traceparent,
    parse_traceparent,
    stamp_trace_context,
    trace_context_of,
)
from repro.observability.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    correlation_id_for,
)

__all__ = [
    "ConsoleSummaryExporter",
    "Counter",
    "FlightRecorder",
    "Histogram",
    "InMemoryExporter",
    "JsonlExporter",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "SloObjective",
    "SloService",
    "Span",
    "SpanExporter",
    "TraceContext",
    "TraceSampler",
    "Tracer",
    "TracingService",
    "assemble_trace",
    "attribute_latency",
    "context_of_span",
    "correlation_id_for",
    "critical_path",
    "format_traceparent",
    "group_traces",
    "labeled_name",
    "load_spans",
    "parse_traceparent",
    "read_spans_jsonl",
    "render_top",
    "render_trace_tree",
    "slowest_traces",
    "stamp_trace_context",
    "trace_context_of",
    "trace_report",
]

#: Lazily re-exported: the SLO engine imports :mod:`repro.core.events`
#: and :mod:`repro.policy`, which themselves import this package during
#: init — an eager import here would be a cycle. Everything that only
#: needs tracing/metrics/exporters stays eager above.
_LAZY = {
    "FlightRecorder": "repro.observability.ops",
    "SloObjective": "repro.observability.slo",
    "SloService": "repro.observability.slo",
    "TraceSampler": "repro.observability.sampling",
    "TracingService": "repro.observability.sampling",
    "render_top": "repro.observability.ops",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
