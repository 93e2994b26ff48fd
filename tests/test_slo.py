"""SLO engine + operations plane: the metrics→policy feedback loop.

Covers the full chain the SLO subsystem adds: WS-Policy4MASC ``Slo`` /
``BurnRateAlert`` / ``SelectionStrategy`` assertions (XML round-trip),
burn-rate evaluation over synthetic series, histogram buckets + exemplars,
the Prometheus/flight-recorder/top operations plane, and the end-to-end
loop test — fault storm + SLO policy ⇒ ``sloBurnRateExceeded`` ⇒
selection-strategy switch, with the trace chain linking exemplar →
violation span → adaptation span.
"""

import json
from dataclasses import replace

import pytest

from repro.casestudies.scm import slo_policy_document
from repro.experiments import fault_storm, run
from repro.observability import (
    FlightRecorder,
    Histogram,
    InMemoryExporter,
    JsonlExporter,
    MetricsRegistry,
    SloService,
    Tracer,
    labeled_name,
    read_spans_jsonl,
    render_top,
)
from repro.policy import (
    AdaptationPolicy,
    BurnRateAlertAction,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    SelectionStrategyAction,
    SloAction,
    parse_policy_document,
    serialize_policy_document,
)
from repro.policy.actions import SELECTION_STRATEGIES
from repro.simulation import Environment


# -- policy assertions ----------------------------------------------------------


class TestSloAssertionsXml:
    def _round_trip(self, document):
        return parse_policy_document(serialize_policy_document(document))

    def test_slo_and_burn_rate_round_trip(self):
        document = PolicyDocument("slo-doc")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="availability-slo",
                triggers=("observability.slo",),
                scope=PolicyScope(endpoint="http://scm/retailer*"),
                actions=(
                    SloAction(
                        name="retailer-availability",
                        availability_target=99.5,
                        latency_target_seconds=0.8,
                        latency_percentile="p95",
                        window_seconds=600.0,
                    ),
                    BurnRateAlertAction(
                        fast_window_seconds=30.0,
                        slow_window_seconds=120.0,
                        fast_burn_threshold=10.0,
                        slow_burn_threshold=2.5,
                        evaluation_interval_seconds=4.0,
                        min_requests=7,
                    ),
                ),
            )
        )
        parsed = self._round_trip(document)
        actions = parsed.adaptation_policies[0].actions
        assert actions == document.adaptation_policies[0].actions

    def test_selection_strategy_round_trips(self):
        document = PolicyDocument("switch-doc")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="switch",
                triggers=("sloBurnRateExceeded",),
                actions=(SelectionStrategyAction(strategy="best_reliability"),),
            )
        )
        parsed = self._round_trip(document)
        assert parsed.adaptation_policies[0].actions == (
            SelectionStrategyAction(strategy="best_reliability"),
        )

    def test_slo_defaults_round_trip(self):
        document = PolicyDocument("defaults")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="defaults",
                triggers=("observability.slo",),
                actions=(SloAction(name="default-slo"), BurnRateAlertAction()),
            )
        )
        parsed = self._round_trip(document)
        assert parsed.adaptation_policies[0].actions == (
            SloAction(name="default-slo"),
            BurnRateAlertAction(),
        )

    def test_invalid_assertions_rejected(self):
        with pytest.raises(Exception):
            SloAction(name="bad", availability_target=101.0)
        with pytest.raises(Exception):
            BurnRateAlertAction(fast_window_seconds=300.0, slow_window_seconds=60.0)
        with pytest.raises(Exception):
            SelectionStrategyAction(strategy="psychic")

    def test_error_budget_derivation(self):
        assert SloAction(name="x", availability_target=99.0).error_budget == pytest.approx(
            0.01
        )

    def test_selection_strategies_match_the_bus(self):
        # actions.py duplicates the tuple to avoid a policy->wsbus import
        # cycle; this pins the two lists together.
        from repro.wsbus.selection import STRATEGIES

        assert SELECTION_STRATEGIES == STRATEGIES


# -- burn-rate evaluation over synthetic series ---------------------------------


def _slo_repository(**overrides):
    defaults = dict(
        fast_window_seconds=10.0,
        slow_window_seconds=30.0,
        fast_burn_threshold=5.0,
        slow_burn_threshold=2.0,
        evaluation_interval_seconds=5.0,
        min_requests=5,
    )
    defaults.update(overrides)
    repository = PolicyRepository()
    document = PolicyDocument("slo")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="slo-config",
            triggers=("observability.slo",),
            scope=PolicyScope(endpoint="http://svc/*"),
            actions=(
                SloAction(name="avail", availability_target=99.0, window_seconds=60.0),
                BurnRateAlertAction(**defaults),
            ),
        )
    )
    repository.load(document)
    return repository


class TestBurnRateEvaluation:
    def _service(self, **overrides):
        env = Environment()
        service = SloService(
            env, _slo_repository(**overrides), metrics=MetricsRegistry()
        )
        service.register_endpoint("http://svc/a", "Svc")
        return env, service

    def _feed(self, service, ok_count, fail_count):
        for _ in range(ok_count):
            service.record("http://svc/a", 0.02, ok=True)
        for _ in range(fail_count):
            service.record("http://svc/a", 0.02, ok=False)

    def test_inactive_without_policies_or_metrics(self):
        env = Environment()
        assert not SloService(env, PolicyRepository(), metrics=MetricsRegistry()).active
        assert not SloService(env, _slo_repository()).active  # NULL_METRICS
        assert SloService(env, _slo_repository(), metrics=MetricsRegistry()).active

    def test_burn_rate_is_failure_fraction_over_budget(self):
        env, service = self._service()
        self._feed(service, ok_count=18, fail_count=2)  # 10% failures, 1% budget
        env.run(until=5.0)
        service.evaluate()
        status = service.status_table()["http://svc/a"]["slo-config/avail"]
        assert status["fast_burn"] == pytest.approx(10.0)
        assert status["slow_burn"] == pytest.approx(10.0)

    def test_event_fires_only_when_both_windows_burn(self):
        env, service = self._service(
            fast_window_seconds=10.0, slow_window_seconds=30.0
        )
        # Seed the slow window with clean traffic, then a short fast blip:
        # the fast window burns but the slow window stays under threshold.
        # (Counter deltas bucket at evaluation ticks, so evaluate once at
        # t=15 to timestamp the clean traffic outside the later fast window.)
        self._feed(service, ok_count=200, fail_count=0)
        env.run(until=15.0)
        service.evaluate()
        self._feed(service, ok_count=8, fail_count=2)
        env.run(until=30.0)
        service.evaluate()
        status = service.status_table()["http://svc/a"]["slo-config/avail"]
        assert status["fast_burn"] >= 5.0
        assert status["slow_burn"] < 2.0
        assert [e["name"] for e in service.events] == []

    def test_sustained_burn_emits_then_recovers(self):
        env, service = self._service()
        self._feed(service, ok_count=10, fail_count=10)
        env.run(until=5.0)
        service.evaluate()
        assert [e["name"] for e in service.events] == ["sloBurnRateExceeded"]
        # The failures are still inside the SLO window: budget exhausted.
        env.run(until=10.0)
        service.evaluate()
        # Clean traffic long enough that every window slides past the burst.
        env.run(until=70.0)
        self._feed(service, ok_count=50, fail_count=0)
        env.run(until=75.0)
        service.evaluate()
        assert [e["name"] for e in service.events] == [
            "sloBurnRateExceeded",
            "errorBudgetExhausted",
            "sloRecovered",
        ]

    def test_low_volume_never_alerts(self):
        env, service = self._service(min_requests=50)
        self._feed(service, ok_count=5, fail_count=5)
        env.run(until=5.0)
        service.evaluate()
        assert service.events == []

    def test_latency_target_violation_emits(self):
        repository = PolicyRepository()
        document = PolicyDocument("slo")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="slo-config",
                triggers=("observability.slo",),
                actions=(
                    SloAction(
                        name="latency",
                        availability_target=50.0,
                        latency_target_seconds=0.1,
                        latency_percentile="p99",
                        window_seconds=60.0,
                    ),
                ),
            )
        )
        repository.load(document)
        env = Environment()
        service = SloService(env, repository, metrics=MetricsRegistry())
        for _ in range(20):
            service.record("http://svc/a", 0.5, ok=True)
        env.run(until=5.0)
        service.evaluate()
        assert [e["name"] for e in service.events] == ["sloBurnRateExceeded"]
        status = service.status_table()["http://svc/a"]["slo-config/latency"]
        assert status["latency_observed"] == pytest.approx(0.5)

    def test_events_carry_exemplar_trace_ids(self):
        env, service = self._service()
        for index in range(10):
            service.record("http://svc/a", 0.02, ok=True, trace_id=f"tr-{index:04d}")
        for index in range(10):
            service.record("http://svc/a", 0.02, ok=False, trace_id=f"tr-f{index:02d}")
        env.run(until=5.0)
        service.evaluate()
        [event] = service.events
        assert event["exemplar_trace_ids"]
        assert all(trace.startswith("tr-") for trace in event["exemplar_trace_ids"])

    def test_same_feed_same_event_sequence(self):
        sequences = []
        for _ in range(2):
            env, service = self._service()
            self._feed(service, ok_count=10, fail_count=10)
            env.run(until=5.0)
            service.evaluate()
            env.run(until=10.0)
            self._feed(service, ok_count=40, fail_count=0)
            service.evaluate()
            sequences.append(service.events)
        assert sequences[0] == sequences[1]


# -- histogram buckets + exemplars ----------------------------------------------


class TestHistogramBucketsAndExemplars:
    def test_empty_percentile_is_none_not_crash(self):
        histogram = Histogram("empty")
        assert histogram.percentile(50) is None
        assert histogram.percentile(99) is None

    def test_single_sample_percentiles_collapse(self):
        histogram = Histogram("one")
        histogram.observe(0.25)
        assert histogram.percentile(50) == 0.25
        assert histogram.percentile(99) == 0.25
        assert histogram.percentile(0) == 0.25

    def test_nearest_rank_interpolation_rule(self):
        # Documented rule: index = round(q/100 * (n-1)) over the sorted
        # window — p50 of [1..4] rounds to index 2.
        histogram = Histogram("rule")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.percentile(50) == 3.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 4.0

    def test_bucket_counts_are_per_bucket_not_cumulative(self):
        histogram = Histogram("b", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 2, 1]  # <=0.1, <=1.0, +Inf

    def test_exemplars_bounded_per_bucket(self):
        histogram = Histogram("ex", buckets=(1.0,))
        for index in range(10):
            histogram.observe(0.5, trace_id=f"tr-{index}", correlation_id=f"c-{index}")
        exemplars = histogram.exemplars()
        assert len(exemplars) == Histogram.EXEMPLARS_PER_BUCKET
        # Most recent samples win.
        assert [e["trace_id"] for e in exemplars] == ["tr-8", "tr-9"]
        assert exemplars[0]["bucket_le"] == 1.0

    def test_observations_without_trace_ids_leave_no_exemplars(self):
        histogram = Histogram("quiet", buckets=(1.0,))
        histogram.observe(0.5)
        assert histogram.exemplars() == []


# -- operations plane -----------------------------------------------------------


class TestPrometheusRendering:
    def test_counters_and_histograms_render(self):
        registry = MetricsRegistry()
        registry.counter("wsbus.send.attempts").inc(3)
        histogram = registry.histogram(
            labeled_name("wsbus.endpoint.seconds", endpoint="http://svc/a"),
            buckets=(0.1, 1.0),
        )
        histogram.observe(0.05, trace_id="tr-000001")
        histogram.observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE wsbus_send_attempts_total counter" in text
        assert "wsbus_send_attempts_total 3" in text
        # Cumulative buckets with labels preserved and +Inf terminal.
        assert (
            'wsbus_endpoint_seconds_bucket{endpoint="http://svc/a",le="0.1"} 1' in text
        )
        assert (
            'wsbus_endpoint_seconds_bucket{endpoint="http://svc/a",le="+Inf"} 2' in text
        )
        assert 'wsbus_endpoint_seconds_count{endpoint="http://svc/a"} 2' in text
        # OpenMetrics-style exemplar on the bucket that holds the sample.
        assert '# {trace_id="tr-000001"}' in text

    def test_unbucketed_histogram_renders_summary_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("plain.seconds")
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'plain_seconds{quantile="0.5"}' in text
        assert "plain_seconds_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_hostile_label_values_are_escaped(self):
        # Backslashes, quotes and newlines in a label value must follow
        # Prometheus exposition escaping or the scrape breaks mid-file.
        registry = MetricsRegistry()
        hostile = 'http://svc/a"b\\c\nd'
        registry.counter(labeled_name("wsbus.requests", endpoint=hostile)).inc()
        histogram = registry.histogram(
            labeled_name("wsbus.endpoint.seconds", endpoint=hostile), buckets=(1.0,)
        )
        histogram.observe(0.5, trace_id='tr-"1\\2\n3')
        text = registry.render_prometheus()
        assert 'endpoint="http://svc/a\\"b\\\\c\\nd"' in text
        assert '# {trace_id="tr-\\"1\\\\2\\n3"}' in text
        # The raw newline never survives into the output, so every sample
        # stays one exposition line.
        assert hostile not in text
        assert 'a"b' not in text


class TestFlightRecorder:
    def test_ring_buffer_keeps_most_recent(self, tmp_path):
        recorder = FlightRecorder(capacity=3)
        tracer = Tracer(clock=lambda: 0.0)
        tracer.add_exporter(recorder)
        for index in range(5):
            tracer.start_span(f"span-{index}").end()
        assert [s["name"] for s in recorder.spans] == ["span-2", "span-3", "span-4"]
        path = recorder.dump(tmp_path / "flight.json", reason="test")
        payload = json.loads(path.read_text())
        assert payload["reason"] == "test"
        assert len(payload["spans"]) == 3
        assert recorder.dumped == [str(path)]

    def test_records_masc_events_as_plain_data(self, tmp_path):
        from repro.core.events import MASCEvent

        recorder = FlightRecorder()
        recorder.record_event(
            MASCEvent(
                name="sloBurnRateExceeded",
                time=5.0,
                endpoint="http://svc/a",
                context={"fast_burn": 10.0, "exemplars": [{"trace_id": "tr-1"}]},
            )
        )
        path = recorder.dump(tmp_path / "flight.json")
        payload = json.loads(path.read_text())
        assert payload["events"][0]["name"] == "sloBurnRateExceeded"
        assert payload["events"][0]["context"]["fast_burn"] == 10.0

    def test_dump_flushes_spans_still_open_at_the_crash(self, tmp_path):
        # A crash mid-mediation leaves open spans; the dump must include
        # them, flagged unfinished, instead of silently dropping them.
        tracer = Tracer(clock=lambda: 3.0)
        recorder = tracer.add_exporter(FlightRecorder(tracer=tracer))
        finished = tracer.start_span("wsbus.mediate")
        finished.end()
        tracer.start_span("net.exchange")  # never ends: the crash
        path = recorder.dump(tmp_path / "flight.json", reason="crash")
        payload = json.loads(path.read_text())
        assert payload["unfinished_spans_flushed"] == 1
        by_name = {record["name"]: record for record in payload["spans"]}
        assert "unfinished" not in by_name["wsbus.mediate"]["attributes"]
        assert by_name["net.exchange"]["attributes"]["unfinished"] is True
        assert by_name["net.exchange"]["end"] == 3.0

    def test_tracer_close_flushes_open_spans_to_every_exporter(self, tmp_path):
        tracer = Tracer(clock=lambda: 1.0)
        recorder = tracer.add_exporter(FlightRecorder(tracer=tracer))
        with JsonlExporter(tmp_path / "spans.jsonl") as exporter:
            tracer.add_exporter(exporter)
            tracer.start_span("wsbus.mediate")
            tracer.close()
        records = read_spans_jsonl(tmp_path / "spans.jsonl")
        assert [r.attributes.get("unfinished") for r in records] == [True]
        assert [s["name"] for s in recorder.spans] == ["wsbus.mediate"]


# -- end-to-end: the closed loop ------------------------------------------------


STORM = fault_storm(7, resilience=True, clients=3, requests=25)
SLO_STORM = replace(STORM, policies=STORM.policies + (slo_policy_document(),))


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def traced_storm(self):
        tracer = Tracer()
        exporter = tracer.add_exporter(InMemoryExporter())
        result = run(SLO_STORM, tracer=tracer)
        return result, exporter

    def test_storm_emits_burn_rate_events(self, traced_storm):
        result, _exporter = traced_storm
        assert result.slo is not None
        names = [event["name"] for event in result.slo["events"]]
        assert "sloBurnRateExceeded" in names

    def test_reaction_policy_switches_selection_strategy(self, traced_storm):
        result, _exporter = traced_storm
        assert result.bus.veps["retailers"].selection_strategy == "best_reliability"
        switches = [
            record
            for record in result.bus.adaptation.event_adaptations
            if any("selection strategy ->" in a for a in record.actions_taken)
        ]
        assert switches and switches[0].policy == "retailer-slo-burn-reaction"

    def test_adaptation_span_parents_under_violation_span(self, traced_storm):
        _result, exporter = traced_storm
        violations = {
            span.span_id: span for span in exporter.find(name="slo.violation")
        }
        adaptations = exporter.find(name="wsbus.adaptation.event")
        assert violations and adaptations
        for span in adaptations:
            assert span.parent_id in violations
            assert violations[span.parent_id].trace_id == span.trace_id

    def test_violation_span_links_an_exemplar_request_trace(self, traced_storm):
        _result, exporter = traced_storm
        violation = exporter.find(name="slo.violation")[0]
        exemplar_trace = violation.attributes.get("exemplar.trace_id")
        assert exemplar_trace is not None
        # The exemplar points at a real recorded request trace.
        assert any(span.trace_id == exemplar_trace for span in exporter.spans)

    def test_slo_event_reaches_adaptation_then_traffic_then_the_flight_recorder(
        self, monkeypatch
    ):
        from repro.traffic import TrafficService
        from repro.wsbus.adaptation import AdaptationManager

        deliveries = []
        for owner, method in (
            (AdaptationManager, "handle_event"),
            (TrafficService, "handle_event"),
            (FlightRecorder, "record_event"),
        ):
            def spy(self, event, _original=getattr(owner, method), _owner=owner.__name__):
                deliveries.append((_owner, event))
                return _original(self, event)

            monkeypatch.setattr(owner, method, spy)
        result = run(SLO_STORM, flight_recorder=FlightRecorder())
        slo_names = {event["name"] for event in result.slo["events"]}
        slo_deliveries = [(owner, e) for owner, e in deliveries if e.name in slo_names]
        assert slo_deliveries
        assert [owner for owner, _ in slo_deliveries] == [
            "AdaptationManager", "TrafficService", "FlightRecorder"
        ] * len(result.slo["events"])
        for index in range(0, len(slo_deliveries), 3):
            assert len({id(e) for _, e in slo_deliveries[index : index + 3]}) == 1

    def test_same_seed_same_event_sequence(self):
        first = run(SLO_STORM)
        second = run(SLO_STORM)
        assert first.slo["events"] == second.slo["events"]
        assert first.slo["events"]  # non-trivial sequence

    def test_slo_section_in_stats_summary(self, traced_storm):
        result, _exporter = traced_storm
        summary = result.bus.stats_summary()
        assert "slo" in summary
        assert summary["slo"]["objectives"]

    def test_disabled_slo_is_byte_identical(self):
        baseline = run(STORM)
        assert baseline.slo is None
        assert not baseline.bus.slo.active
        # No SLO instruments leak into the shared registry when disabled.
        assert not any(
            name.startswith(("wsbus.endpoint.", "slo."))
            for section in baseline.metrics.values()
            if isinstance(section, dict)
            for name in section
        )
        repeat = run(STORM)
        assert repeat.metrics == baseline.metrics
        assert repeat.rtt_stats == baseline.rtt_stats


class TestRenderTop:
    def test_top_table_rows_per_member(self):
        result = run(SLO_STORM)
        text = render_top(result.bus, window_seconds=60.0)
        assert "wsBus top" in text
        for member in result.bus.veps["retailers"].members:
            assert member in text
        assert "retailers [best_reliability]" in text

    def test_top_without_slo_falls_back_to_qos(self):
        result = run(STORM)
        text = render_top(result.bus, window_seconds=60.0)
        assert "wsBus top" in text
        assert "retailers [round_robin]" in text

    def test_qos_fallback_p50_is_the_median_not_the_mean(self):
        # Regression: the p50 cell was filled from the mean (2080ms here).
        from conftest import ECHO_CONTRACT
        from repro.services import InvocationOutcome, InvocationRecord
        from repro.simulation import RandomSource
        from repro.transport import Network
        from repro.wsbus import WsBus

        env = Environment()
        bus = WsBus(env, Network(env, RandomSource(1)))
        bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        for index, duration in enumerate((0.1, 0.1, 0.1, 0.1, 10.0)):
            bus.qos.observe(
                InvocationRecord(
                    "vep", "http://svc/a", "echo", float(index), index + duration,
                    InvocationOutcome.SUCCESS,
                )
            )
        (row,) = [line for line in render_top(bus).splitlines() if "http://svc/a" in line]
        cells = [cell.strip() for cell in row.split("|")]
        assert "100ms" in cells and "10000ms" in cells
        assert "2080ms" not in cells
