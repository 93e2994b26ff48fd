"""Tests for active QoS probing and external management events."""

import pytest

from conftest import ECHO_CONTRACT, EchoService
from repro.core import MASCPolicyDecisionMaker
from repro.policy import (
    AdaptationPolicy,
    PolicyDocument,
    PolicyRepository,
    QuarantineAction,
)
from repro.soap import FaultCode
from repro.wsbus import (
    BusEnforcementPoint,
    ManagementEventSource,
    QoSMeasurementService,
    QoSProbe,
    WsBus,
)


def probe_payload():
    return ECHO_CONTRACT.operation("echo").input.build(text="probe")


class TestQoSProbe:
    def test_probe_measures_healthy_endpoint(self, env, network, container, echo_service):
        probe = QoSProbe(
            env, network, "http://test/echo", "echo", probe_payload, interval_seconds=10.0
        )
        probe.start()
        env.run(until=65.0)
        assert len(probe.results) == 6
        assert probe.observed_availability == 1.0
        assert all(r.response_time > 0 for r in probe.results)

    def test_probe_sees_outages(self, env, network, container, echo_service):
        probe = QoSProbe(
            env, network, "http://test/echo", "echo", probe_payload, interval_seconds=10.0
        )
        probe.start()
        endpoint = network.endpoint("http://test/echo")

        def outage():
            yield env.timeout(25.0)
            endpoint.available = False
            yield env.timeout(30.0)
            endpoint.available = True

        env.process(outage())
        env.run(until=105.0)
        failed = [r for r in probe.results if not r.succeeded]
        assert failed
        assert all(r.fault_code is FaultCode.SERVICE_UNAVAILABLE for r in failed)
        assert 0 < probe.observed_availability < 1

    def test_probe_feeds_qos_measurement_service(self, env, network, container, echo_service):
        qos = QoSMeasurementService()
        probe = QoSProbe(
            env, network, "http://test/echo", "echo", probe_payload, interval_seconds=5.0
        )
        qos.attach_to_invoker(probe.invoker)
        probe.start()
        env.run(until=26.0)
        assert qos.lookup("reliability", 0, "mean", "http://test/echo") == 1.0
        assert qos.lookup("response_time", 0, "mean", "http://test/echo") > 0

    def test_stop_halts_probing(self, env, network, container, echo_service):
        probe = QoSProbe(
            env, network, "http://test/echo", "echo", probe_payload, interval_seconds=5.0
        )
        probe.start()
        env.run(until=12.0)
        count = len(probe.results)
        probe.stop()
        env.run(until=60.0)
        assert len(probe.results) <= count + 1  # at most the in-flight probe

    def test_invalid_interval(self, env, network):
        with pytest.raises(ValueError):
            QoSProbe(env, network, "http://x", "echo", probe_payload, interval_seconds=0)

    def test_invalid_window(self, env, network):
        with pytest.raises(ValueError):
            QoSProbe(env, network, "http://x", "echo", probe_payload, window=0)

    def test_results_window_bounds_history_and_availability(
        self, env, network, container, echo_service
    ):
        """Regression: ``results`` grew without bound and availability
        averaged the full history, so a long-dead prefix of failed probes
        dragged the number down forever after the endpoint recovered."""
        probe = QoSProbe(
            env,
            network,
            "http://test/echo",
            "echo",
            probe_payload,
            interval_seconds=1.0,
            window=10,
        )
        endpoint = network.endpoint("http://test/echo")
        endpoint.available = False
        probe.start()
        env.run(until=20.5)
        assert probe.observed_availability == 0.0
        assert len(probe.results) == 10  # bounded even while failing

        endpoint.available = True
        env.run(until=35.5)
        assert len(probe.results) == 10
        # The failed prefix aged out of the window entirely; the unbounded
        # history would still report ~0.43 here.
        assert probe.observed_availability == 1.0

    def test_start_is_idempotent(self, env, network, container, echo_service):
        probe = QoSProbe(
            env, network, "http://test/echo", "echo", probe_payload, interval_seconds=10.0
        )
        probe.start()
        probe.start()
        env.run(until=11.0)
        assert len(probe.results) == 1  # not doubled


class TestManagementEvents:
    def test_reported_fault_becomes_masc_event(self, env):
        source = ManagementEventSource(env)
        events = []
        source.router.subscribe(events.append)
        event = source.report_fault(
            "http://svc/a", FaultCode.SERVICE_UNAVAILABLE, "rack power failure",
            service_type="Echo", source_system="datacenter-monitor",
        )
        assert events == [event]
        assert event.name == "fault.ServiceUnavailable"
        assert event.fault.source == "datacenter-monitor"
        assert event.context["reported_by"] == "datacenter-monitor"

    def test_broken_sink_does_not_starve_other_sinks(self, env):
        """Regression: one raising consumer stopped fault propagation to
        every sink registered after it, silently losing the event."""
        source = ManagementEventSource(env)

        def broken(event):
            raise RuntimeError("consumer crashed")

        seen = []
        source.router.subscribe(broken)
        source.router.subscribe(seen.append)

        with pytest.raises(RuntimeError, match="consumer crashed"):
            source.report_fault(
                "http://svc/a", FaultCode.SERVICE_UNAVAILABLE, "disk array degraded"
            )

        # The later sink still received the event, and the failure was
        # recorded with full context instead of being swallowed.
        assert len(seen) == 1
        assert source.reported == seen
        (event, sink, error) = source.sink_errors[0]
        assert event is seen[0]
        assert sink is broken
        assert isinstance(error, RuntimeError)

    def test_external_fault_drives_preventive_quarantine(self, env, network, container):
        """A hardware-failure report from an external system quarantines
        the endpoint through the normal policy machinery."""
        for name in ("a", "b"):
            container.deploy(EchoService(env, f"echo-{name}", f"http://svc/{name}"))
        repository = PolicyRepository()
        document = PolicyDocument("mgmt")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="quarantine-on-hardware-fault",
                triggers=("fault.ServiceUnavailable",),
                actions=(QuarantineAction(duration_seconds=300.0),),
            )
        )
        repository.load(document)
        bus = WsBus(env, network, repository=repository)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a", "http://svc/b"]
        )
        maker = MASCPolicyDecisionMaker(env, repository)
        maker.register_enforcement_point(BusEnforcementPoint(bus))
        source = ManagementEventSource(env)
        source.router.subscribe(maker.handle)

        source.report_fault(
            "http://svc/a", FaultCode.SERVICE_UNAVAILABLE, "disk array degraded"
        )
        assert vep.members == ["http://svc/b"]
        env.run(until=301.0)
        assert set(vep.members) == {"http://svc/a", "http://svc/b"}
