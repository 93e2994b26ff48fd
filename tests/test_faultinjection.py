"""Unit tests for the fault injection harness."""

import math

import pytest

from conftest import ECHO_CONTRACT, run_process
from repro.faultinjection import (
    ApplicationFault,
    BusCrash,
    DowntimeLog,
    EndpointFault,
    FaultInjector,
)
from repro.services import Invoker
from repro.simulation import RandomSource
from repro.soap import FaultCode, SoapFaultError


class TestDowntimeLog:
    def test_availability_with_no_downtime(self):
        log = DowntimeLog("http://a")
        assert log.availability(100.0) == 1.0

    def test_single_window(self):
        log = DowntimeLog("http://a")
        log.mark_down(10.0)
        log.mark_up(20.0)
        assert log.total_downtime(100.0) == pytest.approx(10.0)
        assert log.availability(100.0) == pytest.approx(0.9)
        assert log.failure_count == 1

    def test_open_window_counts_to_horizon(self):
        log = DowntimeLog("http://a")
        log.mark_down(90.0)
        assert log.total_downtime(100.0) == pytest.approx(10.0)

    def test_close_seals_open_window(self):
        log = DowntimeLog("http://a")
        log.mark_down(50.0)
        log.close(60.0)
        assert log.windows == [(50.0, 60.0)]

    def test_double_mark_down_idempotent(self):
        log = DowntimeLog("http://a")
        log.mark_down(5.0)
        log.mark_down(7.0)
        log.mark_up(10.0)
        assert log.windows == [(5.0, 10.0)]

    def test_zero_horizon(self):
        assert DowntimeLog("http://a").availability(0.0) == 1.0


def _register(network, *addresses):
    return [network.register(address, lambda req: iter(())) for address in addresses]


def _malformed(up, down, random=False, **fields):
    """A malformed ``EndpointFault`` case, identified by its arguments."""
    named = "".join(f"-{name}={value}" for name, value in fields.items())
    return pytest.param(up, down, dict(fields, random=random), id=f"{up}-{down}-{random}{named}")


def _sample(env, endpoint, attribute, times):
    """``attribute`` of ``endpoint`` at each of ``times``, running the clock forward."""
    values = []
    for time in times:
        env.run(until=time)
        values.append(getattr(endpoint, attribute))
    return values


class TestAvailabilityInjector:
    def test_cycles_toggle_endpoint(self, env, network):
        _register(network, "http://a")
        injector = FaultInjector(env, network, RandomSource(3))
        injector.inject(EndpointFault("http://a", 10.0, 5.0, random=True))
        env.run(until=200.0)
        injector.finalize()
        log = injector.logs["http://a"]
        assert log.failure_count > 0
        assert 0.0 < log.availability(200.0) < 1.0

    def test_observed_availability_tracks_nominal(self, env, network):
        _register(network, "http://a")
        injector = FaultInjector(env, network, RandomSource(5))
        injector.inject(EndpointFault("http://a", 90.0, 10.0, random=True))
        env.run(until=50_000.0)
        injector.finalize()
        assert injector.logs["http://a"].availability(50_000.0) == pytest.approx(0.9, abs=0.05)

    def test_unknown_endpoint_rejected(self, env, network):
        injector = FaultInjector(env, network, RandomSource(0))
        with pytest.raises(ValueError):
            injector.inject(EndpointFault("http://ghost", 10, 1, random=True))

    def test_logs_every_unavailable_address(self, env, network):
        _register(network, "http://a", "http://b", "http://c")
        injector = FaultInjector(env, network, RandomSource(0))
        injector.inject(EndpointFault("http://a", 10, 1, random=True))
        injector.inject(EndpointFault("http://b", 10, 1, random=True))
        injector.inject(EndpointFault("http://c", 10, 1, delay=2.0, random=True))
        assert set(injector.logs) == {"http://a", "http://b"}


class TestRandomDelay:
    def test_delay_applied_and_removed(self, env, network):
        (endpoint,) = _register(network, "http://a")
        injector = FaultInjector(env, network, RandomSource(7))
        injector.inject(EndpointFault("http://a", 5.0, 2.0, delay=3.0, random=True))
        delays = _sample(env, endpoint, "added_delay_seconds", [t / 4 for t in range(1, 400)])
        # Episodes come and go; none leaves a permanent delay behind.
        assert set(delays) == {0.0, 3.0}

    def test_unknown_endpoint_rejected(self, env, network):
        injector = FaultInjector(env, network, RandomSource(0))
        with pytest.raises(ValueError):
            injector.inject(EndpointFault("http://ghost", 1, 1, delay=1.0, random=True))


class TestFixedSchedule:
    def test_waits_start_after_then_stops_after_cycles(self, env, network):
        (endpoint,) = _register(network, "http://a")
        injector = FaultInjector(env, network, RandomSource(0))
        injector.inject(EndpointFault("http://a", 2.0, 1.0, start_after=3.0, cycles=2))
        times = [4.9, 5.5, 6.5, 7.9, 8.5, 9.5, 11.5, 50.0]
        assert _sample(env, endpoint, "available", times) == [
            True, False, True, True, False, True, True, True
        ]
        assert injector.logs["http://a"].windows == [(5.0, 6.0), (8.0, 9.0)]

    def test_fixed_delay_spikes_repeat(self, env, network):
        (endpoint,) = _register(network, "http://a")
        injector = FaultInjector(env, network, RandomSource(0))
        injector.inject(EndpointFault("http://a", 3.0, 1.0, delay=2.0, start_after=1.0))
        times = [3.9, 4.5, 5.5, 8.5, 9.5, 12.5]
        assert _sample(env, endpoint, "added_delay_seconds", times) == [
            0.0, 2.0, 0.0, 2.0, 0.0, 2.0
        ]
        assert injector.logs == {}

    def test_zero_second_up_is_not_waited(self, env, network):
        (endpoint,) = _register(network, "http://a")
        injector = FaultInjector(env, network, RandomSource(0))
        injector.inject(EndpointFault("http://a", 0.0, 2.0, cycles=1))
        env.run(until=0.0)
        assert not endpoint.available
        # The process's first resumption only: no zero-second wait first.
        assert env.events_processed == 1
        env.run(until=5.0)
        assert endpoint.available
        assert injector.logs["http://a"].windows == [(0.0, 2.0)]

    def test_delays_stack_and_floor_at_zero(self, env, network):
        (endpoint,) = _register(network, "http://a")
        injector = FaultInjector(env, network, RandomSource(0))
        injector.inject(EndpointFault("http://a", 1.0, 4.0, delay=2.0, cycles=1))
        injector.inject(EndpointFault("http://a", 2.0, 1.0, delay=3.0, cycles=1))
        assert _sample(env, endpoint, "added_delay_seconds", [0.5, 1.5, 2.5, 3.5]) == [
            0.0, 2.0, 5.0, 2.0
        ]
        endpoint.added_delay_seconds = 1.0  # reset by someone else mid-window
        env.run(until=6.0)
        assert endpoint.added_delay_seconds == 0.0

    def test_overlapping_unavailability_windows_hold_the_endpoint_down(self, env, network):
        """A flap inside an outage must not bring the endpoint back early."""
        (endpoint,) = _register(network, "http://d")
        injector = FaultInjector(env, network, RandomSource(0))
        injector.inject(EndpointFault("http://d", 12.0, 8.0, start_after=3.0))
        injector.inject(EndpointFault("http://d", 10.0, 20.0, cycles=1))
        times = [9.5, 11.0, 16.0, 24.0, 29.0, 31.0, 36.0, 44.0]
        assert _sample(env, endpoint, "available", times) == [
            True, False, False, False, False, True, False, True
        ]
        injector.finalize()
        assert injector.logs["http://d"].windows == [(10.0, 30.0), (35.0, 43.0)]

    def test_injection_at_proxied_address_hits_the_origin(self, env, network):
        proxy, origin = _register(network, "http://p", "http://p#origin")
        proxy.fault_target = origin.address
        injector = FaultInjector(env, network, RandomSource(0))
        injector.inject(EndpointFault("http://p", 1.0, 2.0, cycles=1))
        injector.inject(EndpointFault("http://p", 1.0, 2.0, delay=4.0, cycles=1))
        env.run(until=2.0)
        assert (proxy.available, proxy.added_delay_seconds) == (True, 0.0)
        assert (origin.available, origin.added_delay_seconds) == (False, 4.0)
        env.run(until=4.0)
        assert injector.logs["http://p"].windows == [(1.0, 3.0)]

    @pytest.mark.parametrize(
        "up, down, fields",
        [
            _malformed(1.0, 0.0),
            _malformed(1.0, -1.0),
            _malformed(-1.0, 1.0),
            _malformed(0.0, 1.0, random=True),
            _malformed(math.nan, 1.0),
            _malformed(1.0, math.nan),
            _malformed(1.0, 1.0, delay=-5.0),
            _malformed(1.0, 1.0, delay=0.0),
            _malformed(1.0, 1.0, delay=math.nan),
            _malformed(1.0, 1.0, start_after=-3.0),
            _malformed(1.0, 1.0, start_after=math.nan),
            _malformed(1.0, 1.0, cycles=0),
            _malformed(1.0, 1.0, cycles=-2),
        ],
    )
    def test_bad_stretches_rejected(self, up, down, fields):
        with pytest.raises(ValueError):
            EndpointFault("http://a", up, down, **fields)


class TestApplicationFault:
    def test_injects_service_failures(self, env, network, container, echo_service):
        injector = FaultInjector(env, network, RandomSource(1))
        injector.inject(ApplicationFault("http://test/echo", 1.0))
        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.invoke("http://test/echo", "echo", payload)
            return excinfo.value.fault.code

        assert run_process(env, client()) is FaultCode.SERVICE_FAILURE
        assert injector.injected_counts["http://test/echo"] == 1

    def test_zero_probability_never_injects(self, env, network, container, echo_service):
        injector = FaultInjector(env, network, RandomSource(1))
        injector.inject(ApplicationFault("http://test/echo", 0.0))
        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            response = yield from invoker.invoke("http://test/echo", "echo", payload)
            return response.body.child_text("text")

        assert run_process(env, client()) == "x@echo1"

    def test_rate_roughly_honored(self, env, network, container, echo_service):
        injector = FaultInjector(env, network, RandomSource(2))
        injector.inject(ApplicationFault("http://test/echo", 0.3))
        invoker = Invoker(env, network)
        failures = 0

        def client():
            nonlocal failures
            for _ in range(300):
                payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
                try:
                    yield from invoker.invoke("http://test/echo", "echo", payload)
                except SoapFaultError:
                    failures += 1

        run_process(env, client())
        assert 60 <= failures <= 120  # ~90 expected

    @pytest.mark.parametrize("probability", [1.5, -0.1, math.nan])
    def test_invalid_probability_rejected(self, probability):
        with pytest.raises(ValueError):
            ApplicationFault("http://test/echo", probability)


class TestBusCrash:
    @pytest.mark.parametrize("at", [-1.0, math.nan, math.inf])
    def test_bad_crash_time_rejected(self, at):
        with pytest.raises(ValueError):
            BusCrash("bus-0", at)
