"""Unit tests for the QoS Measurement Service."""

import pytest

from repro.services import InvocationOutcome, InvocationRecord
from repro.soap import FaultCode
from repro.wsbus import QoSMeasurementService
from repro.wsbus.qos import EndpointQoS


def record(target="http://a", start=0.0, duration=0.1, ok=True):
    return InvocationRecord(
        caller="c",
        target=target,
        operation="op",
        started_at=start,
        finished_at=start + duration,
        outcome=InvocationOutcome.SUCCESS if ok else InvocationOutcome.FAULT,
        fault_code=None if ok else FaultCode.TIMEOUT,
    )


class TestEndpointQoS:
    def test_reliability_ratio(self):
        qos = QoSMeasurementService()
        for ok in (True, True, False, True):
            qos.observe(record(ok=ok))
        assert qos.lookup("reliability", 0, "mean", "http://a") == pytest.approx(0.75)

    def test_reliability_window(self):
        qos = QoSMeasurementService()
        qos.observe(record(ok=False, start=0))
        for index in range(3):
            qos.observe(record(ok=True, start=index + 1))
        assert qos.lookup("reliability", 2, "mean", "http://a") == 1.0

    def test_response_time_aggregates(self):
        qos = QoSMeasurementService()
        for duration in (0.1, 0.2, 0.3, 0.4):
            qos.observe(record(duration=duration))
        assert qos.lookup("response_time", 0, "mean", "http://a") == pytest.approx(0.25)
        assert qos.lookup("response_time", 0, "min", "http://a") == pytest.approx(0.1)
        assert qos.lookup("response_time", 0, "max", "http://a") == pytest.approx(0.4)
        assert qos.lookup("response_time", 0, "p95", "http://a") == pytest.approx(0.4)

    def test_response_time_ignores_failures(self):
        qos = QoSMeasurementService()
        qos.observe(record(duration=0.1, ok=True))
        qos.observe(record(duration=30.0, ok=False))
        assert qos.lookup("response_time", 0, "mean", "http://a") == pytest.approx(0.1)

    def test_unknown_endpoint_returns_none(self):
        assert QoSMeasurementService().lookup("reliability", 0, "mean", "http://x") is None

    def test_none_endpoint_returns_none(self):
        assert QoSMeasurementService().lookup("reliability", 0, "mean", None) is None

    def test_unknown_metric_rejected(self):
        qos = QoSMeasurementService()
        qos.observe(record())
        with pytest.raises(ValueError):
            qos.lookup("karma", 0, "mean", "http://a")

    def test_unknown_aggregate_rejected_on_a_cold_window(self):
        # Regression: the aggregate was checked only once a success had
        # arrived, so a mistyped one returned None until traffic came and
        # then raised in the middle of the run.
        qos = QoSMeasurementService()
        qos.observe(record(ok=False))
        with pytest.raises(ValueError, match="unknown aggregate 'p90'"):
            qos.lookup("response_time", 50, "p90", "http://a")

    def test_median_uses_the_percentile_index_rule(self):
        qos = QoSMeasurementService()
        for duration in (0.1, 0.2, 0.3, 10.0):
            qos.observe(record(duration=duration))
        # index round(0.5 * 3) == 2, as p95/p99 pick theirs
        assert qos.lookup("response_time", 0, "p50", "http://a") == 0.3

    def test_availability_full_uptime(self):
        qos = QoSMeasurementService()
        for index in range(5):
            qos.observe(record(start=float(index)))
        assert qos.lookup("availability", 0, "mean", "http://a") == pytest.approx(1.0)

    def test_availability_with_outage_burst(self):
        qos = QoSMeasurementService()
        # 0-10 ok, 10-15 failing burst, 15-100 ok.
        for start in range(0, 10):
            qos.observe(record(start=float(start), duration=0.5))
        for start in range(10, 15):
            qos.observe(record(start=float(start), duration=1.0, ok=False))
        for start in range(15, 100):
            qos.observe(record(start=float(start), duration=0.5))
        availability = qos.lookup("availability", 0, "mean", "http://a")
        assert 0.90 <= availability < 1.0

    def test_throughput(self):
        qos = QoSMeasurementService()
        for start in range(10):
            qos.observe(record(start=float(start), duration=0.5))
        throughput = qos.lookup("throughput", 0, "mean", "http://a")
        assert throughput == pytest.approx(10 / 9.5, rel=0.01)

    def test_throughput_excludes_trailing_failure_burn(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=0.5))
        qos.observe(record(start=10.0, duration=20.0, ok=False))
        # One success delivered over its own 0.5s is 2 req/s. The
        # 20-second timeout burn hanging off the end of the window must
        # not dilute the rate (regression: the span ran first record
        # start to last record finish, yielding 1/30).
        assert qos.lookup("throughput", 0, "mean", "http://a") == pytest.approx(2.0)

    def test_throughput_single_success_is_measurable(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=1.0, duration=0.25))
        assert qos.lookup("throughput", 0, "mean", "http://a") == pytest.approx(4.0)

    def test_throughput_no_successes_is_zero(self):
        qos = QoSMeasurementService()
        qos.observe(record(ok=False))
        assert qos.lookup("throughput", 0, "mean", "http://a") == 0.0

    def test_throughput_empty_window_is_none(self):
        from repro.wsbus.qos import EndpointQoS

        assert EndpointQoS("http://a").throughput() is None

    def test_window_eviction(self):
        qos = QoSMeasurementService(window=3)
        for index in range(10):
            qos.observe(record(start=float(index)))
        assert len(qos.endpoint("http://a").records) == 3
        assert qos.endpoint("http://a").total_invocations == 10


class TestBestEndpoint:
    def test_prefers_fastest(self):
        qos = QoSMeasurementService()
        qos.observe(record(target="http://slow", duration=1.0))
        qos.observe(record(target="http://fast", duration=0.1))
        assert qos.best_endpoint(["http://slow", "http://fast"]) == "http://fast"

    def test_prefers_most_reliable(self):
        qos = QoSMeasurementService()
        qos.observe(record(target="http://flaky", ok=False))
        qos.observe(record(target="http://flaky", ok=True))
        qos.observe(record(target="http://solid", ok=True))
        assert (
            qos.best_endpoint(["http://flaky", "http://solid"], metric="reliability")
            == "http://solid"
        )

    def test_measured_beats_unmeasured(self):
        qos = QoSMeasurementService()
        qos.observe(record(target="http://known", duration=5.0))
        assert (
            qos.best_endpoint(["http://unknown", "http://known"]) == "http://known"
        )

    def test_all_unmeasured_picks_first(self):
        assert QoSMeasurementService().best_endpoint(["http://a", "http://b"]) == "http://a"

    def test_empty_candidates(self):
        assert QoSMeasurementService().best_endpoint([]) is None


class TestAvailabilityWindowEdges:
    """MTBF/(MTBF+MTTR) estimation at the awkward edges: outage bursts
    clipped by the observation window, all-failure windows, and
    zero-length horizons."""

    def test_outage_burst_counts_once(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=1.0, ok=True))
        qos.observe(record(start=2.0, duration=1.0, ok=False))
        qos.observe(record(start=3.0, duration=1.0, ok=False))
        qos.observe(record(start=5.0, duration=1.0, ok=True))
        # One burst from t=2 to t=4 over a t=0..6 horizon.
        assert qos.lookup("availability", 0, "mean", "http://a") == pytest.approx(
            1.0 - 2.0 / 6.0
        )

    def test_burst_spanning_window_boundary_is_clipped(self):
        """A failure burst straddling the window edge: only the in-window
        part of the burst (and of the horizon) is charged."""
        qos = QoSMeasurementService()
        for start in (0.0, 1.0, 2.0):
            qos.observe(record(start=start, duration=1.0, ok=False))
        qos.observe(record(start=3.0, duration=1.0, ok=True))
        # Full history: downtime 3 of horizon 4.
        assert qos.lookup("availability", 0, "mean", "http://a") == pytest.approx(0.25)
        # Window of 2 slices mid-burst: downtime 1 of horizon 2.
        assert qos.lookup("availability", 2, "mean", "http://a") == pytest.approx(0.5)

    def test_all_failure_window_is_zero(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=1.0, ok=False))
        qos.observe(record(start=1.0, duration=1.0, ok=False))
        assert qos.lookup("availability", 0, "mean", "http://a") == 0.0

    def test_zero_horizon_uses_last_outcome(self):
        ok = EndpointQoS("http://a")
        ok.add(record(start=0.0, duration=0.0, ok=True))
        assert ok.availability() == 1.0
        bad = EndpointQoS("http://b")
        bad.add(record(target="http://b", start=0.0, duration=0.0, ok=False))
        assert bad.availability() == 0.0


class TestThroughputWindowEdges:
    def test_trailing_timeout_burn_does_not_dilute(self):
        """The denominator is the successes' own delivery span: a failed
        30-second timeout hanging off the window edge no longer drags an
        honest 2-in-3-seconds rate down to 2-in-33."""
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=1.0, ok=True))
        qos.observe(record(start=2.0, duration=1.0, ok=True))
        qos.observe(record(start=3.0, duration=30.0, ok=False))
        assert qos.lookup("throughput", 0, "mean", "http://a") == pytest.approx(
            2.0 / 3.0
        )

    def test_window_slice_recomputes_span(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=1.0, ok=True))
        qos.observe(record(start=2.0, duration=1.0, ok=True))
        qos.observe(record(start=3.0, duration=30.0, ok=False))
        # Window of 2: one success from t=2..3 → 1 req/s.
        assert qos.lookup("throughput", 2, "mean", "http://a") == pytest.approx(1.0)

    def test_all_failure_window_is_zero_not_none(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=5.0, ok=False))
        assert qos.lookup("throughput", 0, "mean", "http://a") == 0.0

    def test_single_success_is_a_measurable_rate(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=0.5, ok=True))
        assert qos.lookup("throughput", 0, "mean", "http://a") == pytest.approx(2.0)

    def test_instantaneous_successes_are_unmeasurable(self):
        qos = QoSMeasurementService()
        qos.observe(record(start=0.0, duration=0.0, ok=True))
        assert qos.lookup("throughput", 0, "mean", "http://a") is None


class TestBestEndpointAllFailureWindows:
    def test_all_failure_candidate_loses_to_any_success(self):
        qos = QoSMeasurementService()
        for start in (0.0, 1.0):
            qos.observe(record(target="http://dead", start=start, ok=False))
        qos.observe(record(target="http://alive", start=0.0, ok=True))
        qos.observe(record(target="http://alive", start=2.0, ok=False))
        for metric in ("availability", "throughput", "reliability"):
            assert (
                qos.best_endpoint(["http://dead", "http://alive"], metric=metric)
                == "http://alive"
            )

    def test_measured_zero_beats_unmeasured(self):
        """Measurement beats optimism even when the measurement is 0.0 —
        an all-failure window is information, absence of history is not."""
        qos = QoSMeasurementService()
        qos.observe(record(target="http://dead", start=0.0, ok=False))
        assert (
            qos.best_endpoint(["http://unknown", "http://dead"], metric="availability")
            == "http://dead"
        )

    def test_every_candidate_all_failures_still_selects(self):
        qos = QoSMeasurementService()
        qos.observe(record(target="http://d1", start=0.0, ok=False))
        qos.observe(record(target="http://d2", start=0.0, ok=False))
        assert qos.best_endpoint(
            ["http://d1", "http://d2"], metric="availability"
        ) in ("http://d1", "http://d2")
