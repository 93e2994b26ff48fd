"""Tracing and sampling must never change what the simulation computes.

The ``masc:TraceContext`` header is *transparent* (on the wire, excluded
from ``size_bytes``) and sampling only filters which finished spans reach
the exporters, so a traced run — sampled or not — is byte-identical to an
untraced one. These tests pin that equivalence on full storm runs.
"""

import tracemalloc
from dataclasses import replace

from repro.casestudies.scm import tracing_policy_document
from repro.experiments import fault_storm, fleet_storm, run
from repro.observability import NULL_TRACER, InMemoryExporter, Tracer

STORM = fault_storm(7, resilience=True, slo=True, clients=3, requests=25)


def _sampled(rate: float):
    """The storm with head-based trace sampling at ``rate``."""
    return replace(STORM, policies=STORM.policies + (tracing_policy_document(sample_rate=rate),))


def _slo_events_sans_exemplars(result):
    # Exemplar trace ids are the one legitimate delta: an untraced run
    # records none. Timing, burns and ordering must still match exactly.
    return [
        {key: value for key, value in event.items() if key != "exemplar_trace_ids"}
        for event in result.slo["events"]
    ]


class TestTracedEqualsUntraced:
    def test_single_bus_storm_is_byte_identical_with_tracing_on(self):
        baseline = run(STORM)
        tracer = Tracer()
        tracer.add_exporter(InMemoryExporter())
        traced = run(STORM, tracer=tracer)
        tracer.close()
        assert traced.rtt_stats == baseline.rtt_stats
        assert traced.delivered == baseline.delivered
        assert traced.reliability == baseline.reliability
        assert _slo_events_sans_exemplars(traced) == _slo_events_sans_exemplars(
            baseline
        )

    def test_fleet_storm_is_time_identical_with_tracing_on(self):
        scenario = fleet_storm(11, 2, veps=4, clients=2, requests=10)
        baseline = run(scenario)
        tracer = Tracer()
        tracer.add_exporter(InMemoryExporter())
        traced = run(scenario, tracer=tracer)
        tracer.close()
        assert traced.rtt_stats == baseline.rtt_stats
        assert traced.throughput == baseline.throughput
        assert traced.delivered == baseline.delivered
        assert traced.placement == baseline.placement


class TestSamplingFiltersOnlyExports:
    def test_sampled_run_is_byte_identical_and_exports_less(self):
        full_tracer = Tracer()
        full_memory = full_tracer.add_exporter(InMemoryExporter())
        full = run(STORM, tracer=full_tracer)
        full_tracer.close()

        sampled_tracer = Tracer()
        sampled_memory = sampled_tracer.add_exporter(InMemoryExporter())
        sampled = run(_sampled(0.2), tracer=sampled_tracer)
        sampled_tracer.close()

        # The simulation never observes the sampling verdict.
        assert sampled.rtt_stats == full.rtt_stats
        assert sampled.delivered == full.delivered
        assert sampled.slo["events"] == full.slo["events"]
        assert sampled.metrics == full.metrics

        # But far fewer traces reached the exporter, and each exported
        # trace is one the full run also saw — same ids, head-sampled.
        full_ids = {span.trace_id for span in full_memory.spans}
        sampled_ids = {span.trace_id for span in sampled_memory.spans}
        assert sampled_ids < full_ids
        assert len(sampled_ids) < len(full_ids) / 2

    def test_violation_traces_survive_sampling_via_promotion(self):
        tracer = Tracer()
        memory = tracer.add_exporter(InMemoryExporter())
        result = run(_sampled(0.0), tracer=tracer)
        tracer.close()
        assert result.slo["events"]
        violations = memory.find(name="slo.violation")
        assert violations
        # Promotion pulled each violation's buffered ancestors along:
        # the violation's trace holds more than the violation itself.
        for violation in violations:
            trace = [s for s in memory.spans if s.trace_id == violation.trace_id]
            assert len(trace) > 1

    def test_sampling_applies_through_the_bus_policy_scan(self):
        tracer = Tracer()
        tracer.add_exporter(InMemoryExporter())
        result = run(_sampled(0.5), tracer=tracer)
        tracer.close()
        assert result.bus.tracing.action is not None
        assert result.bus.tracing.action.sample_rate == 0.5


class TestNullTracerAllocations:
    def test_null_tracer_span_path_allocates_nothing(self):
        # The S6 guarantee restated at the API level: driving the
        # NULL_TRACER through the span lifecycle allocates no objects.
        spans = [NULL_TRACER.start_span("warmup") for _ in range(4)]
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(200):
            span = NULL_TRACER.start_span(
                "wsbus.mediate", correlation_id="msg-1", attributes=None
            )
            span.set_attribute("queue_seconds", 0.0)
            span.end()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        stats = after.compare_to(before, "filename")
        grown = sum(stat.size_diff for stat in stats if stat.size_diff > 0)
        # tracemalloc bookkeeping itself shows up; anything per-iteration
        # would dwarf this allowance (200 spans × ~100B each).
        assert grown < 4096, f"null tracer allocated {grown} bytes"
        assert spans
