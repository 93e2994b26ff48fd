"""Unit tests for service hosting, invocation, and the registry."""

import pytest

from conftest import ECHO_CONTRACT, EchoService, SlowEchoService, run_process
from repro.services import (
    InvocationOutcome,
    Invoker,
    ProcessingModel,
    ServiceRegistry,
    SimulatedService,
)
from repro.simulation import RandomSource
from repro.soap import FaultCode, SoapFault, SoapFaultError
from repro.xmlutils import Element


class TestProcessingModel:
    def test_deterministic_without_jitter(self):
        model = ProcessingModel(base_seconds=0.01, per_kb_seconds=0.001, jitter_fraction=0)
        rng = RandomSource(1).stream("p")
        assert model.sample(1024, rng) == pytest.approx(0.011)

    def test_jitter_varies_samples(self):
        model = ProcessingModel(jitter_fraction=0.5)
        rng = RandomSource(1).stream("p")
        samples = {model.sample(0, rng) for _ in range(10)}
        assert len(samples) > 1


class TestContainer:
    def test_deploy_and_invoke(self, env, network, container, echo_service):
        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="hi")
            response = yield from invoker.invoke("http://test/echo", "echo", payload)
            return response.body.child_text("text")

        assert run_process(env, client()) == "hi@echo1"
        assert echo_service.invocations == 1

    def test_duplicate_address_rejected(self, env, container, echo_service):
        with pytest.raises(ValueError):
            container.deploy(EchoService(env, "other", "http://test/echo"))

    def test_contract_violation_becomes_client_fault(self, env, network, container, echo_service):
        invoker = Invoker(env, network)

        def client():
            bad = Element("echoRequest")  # missing required 'text' part
            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.invoke("http://test/echo", "echo", bad)
            return excinfo.value.fault.code

        assert run_process(env, client()) is FaultCode.CLIENT
        assert echo_service.faults_raised == 1

    def test_unknown_operation_faults(self, env, network, container, echo_service):
        invoker = Invoker(env, network)

        def client():
            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.invoke("http://test/echo", "nothing", Element("mystery"))
            return excinfo.value.fault.code

        assert run_process(env, client()) is FaultCode.CLIENT

    def test_operation_resolved_by_payload_root(self, env, network, container, echo_service):
        """Callers without a matching action still dispatch via the payload."""
        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("add").input.build(a=2, b=3)
            response = yield from invoker.invoke(
                "http://test/echo", "add", payload, action="urn:uncorrelated"
            )
            return response.body.child_text("sum")

        assert run_process(env, client()) == "5"

    def test_service_fault_propagates_with_source(self, env, network, container):
        class Faulty(SimulatedService):
            contract = ECHO_CONTRACT

            def op_echo(self, payload, ctx):
                yield ctx.work()
                raise SoapFaultError(SoapFault(FaultCode.SERVICE_FAILURE, "bad data"))

        container.deploy(Faulty(env, "faulty", "http://test/faulty"))
        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.invoke("http://test/faulty", "echo", payload)
            return excinfo.value.fault

        fault = run_process(env, client())
        assert fault.code is FaultCode.SERVICE_FAILURE
        assert fault.source == "faulty"

    def test_undeploy(self, env, network, container, echo_service):
        container.undeploy("http://test/echo")
        assert container.service_at("http://test/echo") is None
        assert network.endpoint("http://test/echo") is None


class TestInvoker:
    def test_records_success(self, env, network, container, echo_service):
        invoker = Invoker(env, network, caller="tester")
        records = []
        invoker.add_observer(records.append)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            yield from invoker.invoke("http://test/echo", "echo", payload)

        run_process(env, client())
        (record,) = records
        assert record.outcome is InvocationOutcome.SUCCESS
        assert record.caller == "tester"
        assert record.duration > 0
        assert record.request_bytes > 0 and record.response_bytes > 0

    def test_records_unavailable_fault(self, env, network):
        invoker = Invoker(env, network)
        records = []
        invoker.add_observer(records.append)

        def client():
            with pytest.raises(SoapFaultError):
                yield from invoker.invoke("http://ghost", "echo", Element("x"))

        run_process(env, client())
        assert records[0].fault_code is FaultCode.SERVICE_UNAVAILABLE

    def test_timeout_mapped_to_fault(self, env, network, container):
        container.deploy(SlowEchoService(env, "slow", "http://test/slow", delay=50))
        invoker = Invoker(env, network)
        records = []
        invoker.add_observer(records.append)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.invoke("http://test/slow", "echo", payload, timeout=0.5)
            return excinfo.value.fault.code

        assert run_process(env, client()) is FaultCode.TIMEOUT
        assert records[0].fault_code is FaultCode.TIMEOUT
        assert records[0].duration == pytest.approx(0.5)

    def test_message_taps_see_request_and_response(self, env, network, container, echo_service):
        invoker = Invoker(env, network)
        taps = []
        invoker.add_message_tap(lambda d, e, o, t: taps.append((d, o, t)))

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            yield from invoker.invoke("http://test/echo", "echo", payload)

        run_process(env, client())
        assert taps == [
            ("request", "echo", "http://test/echo"),
            ("response", "echo", "http://test/echo"),
        ]

    def test_message_tap_sees_fault(self, env, network, container):
        class Faulty(SimulatedService):
            contract = ECHO_CONTRACT

            def op_echo(self, payload, ctx):
                yield ctx.work()
                raise SoapFaultError(SoapFault(FaultCode.SERVICE_FAILURE, "no"))

        container.deploy(Faulty(env, "f", "http://test/f"))
        invoker = Invoker(env, network)
        taps = []
        invoker.add_message_tap(lambda d, e, o, t: taps.append(d))

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            with pytest.raises(SoapFaultError):
                yield from invoker.invoke("http://test/f", "echo", payload)

        run_process(env, client())
        assert taps == ["request", "fault"]

    def test_process_instance_id_attached(self, env, network, container, echo_service):
        invoker = Invoker(env, network)
        seen = []
        invoker.add_message_tap(
            lambda d, e, o, t: seen.append(e.addressing.process_instance_id)
        )

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            yield from invoker.invoke(
                "http://test/echo", "echo", payload, process_instance_id="proc-77"
            )

        run_process(env, client())
        assert seen[0] == "proc-77"


class TestRegistry:
    def test_register_and_find(self):
        registry = ServiceRegistry()
        registry.register("Retailer", "A", "http://a")
        registry.register("Retailer", "B", "http://b", {"region": "EU"})
        assert len(registry.find("Retailer")) == 2
        assert registry.find_one("Retailer").name == "A"

    def test_find_with_predicate(self):
        registry = ServiceRegistry()
        registry.register("Retailer", "A", "http://a", {"region": "US"})
        registry.register("Retailer", "B", "http://b", {"region": "EU"})
        found = registry.find("Retailer", lambda r: r.properties.get("region") == "EU")
        assert [record.name for record in found] == ["B"]

    def test_unregister_by_address(self):
        registry = ServiceRegistry()
        registry.register("Retailer", "A", "http://a")
        registry.unregister("http://a")
        assert registry.find("Retailer") == []

    def test_unknown_type_empty(self):
        assert ServiceRegistry().find("Ghost") == []

    def test_len_and_types(self):
        registry = ServiceRegistry()
        registry.register("A", "a", "http://a")
        registry.register("B", "b", "http://b")
        assert len(registry) == 2
        assert registry.service_types == ["A", "B"]

    def test_unregistering_the_last_implementation_drops_the_type(self):
        """Regression: the emptied type stayed listed, so a validator fed
        ``service_types`` accepted a type nothing implements."""
        registry = ServiceRegistry()
        registry.register("Retailer", "A", "http://a")
        registry.register("Warehouse", "W", "http://w")
        registry.unregister("http://a")
        assert registry.service_types == ["Warehouse"]
        assert len(registry) == 1

    def test_service_type_of_is_the_first_type_in_sorted_order(self):
        registry = ServiceRegistry()
        registry.register("Warehouse", "W", "http://multi")
        assert registry.service_type_of("http://multi") == "Warehouse"
        registry.register("Retailer", "R", "http://multi")
        registry.register("Shipper", "S", "http://multi")
        assert registry.service_type_of("http://multi") == "Retailer"
        assert registry.service_type_of("http://nowhere") is None
        registry.unregister("http://multi")
        assert registry.service_type_of("http://multi") is None
        assert registry.service_types == []


class TestMustUnderstand:
    def test_unknown_must_understand_header_rejected(self, env, network, container, echo_service):
        from repro.soap import SoapEnvelope
        from repro.xmlutils import Element

        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            envelope = SoapEnvelope.request("http://test/echo", "urn:Echo:echo", payload)
            envelope.add_header(Element("{urn:ext}Security", text="token"), must_understand=True)
            with pytest.raises(SoapFaultError) as excinfo:
                yield from invoker.send(envelope, operation="echo")
            return excinfo.value.fault

        fault = run_process(env, client())
        assert fault.code is FaultCode.CLIENT
        assert "mustUnderstand" in fault.reason

    def test_understood_header_accepted(self, env, network, container):
        from repro.soap import SoapEnvelope
        from repro.xmlutils import Element

        class SecurityAwareEcho(EchoService):
            understood_headers = frozenset({"{urn:ext}Security"})

        container.deploy(SecurityAwareEcho(env, "secure", "http://test/secure"))
        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            envelope = SoapEnvelope.request("http://test/secure", "urn:Echo:echo", payload)
            envelope.add_header(Element("{urn:ext}Security", text="token"), must_understand=True)
            response = yield from invoker.send(envelope, operation="echo")
            return response.body.child_text("text")

        assert run_process(env, client()) == "x@secure"

    def test_optional_header_ignored(self, env, network, container, echo_service):
        from repro.soap import SoapEnvelope
        from repro.xmlutils import Element

        invoker = Invoker(env, network)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            envelope = SoapEnvelope.request("http://test/echo", "urn:Echo:echo", payload)
            envelope.add_header(Element("{urn:ext}Tracing", text="id"), must_understand=False)
            response = yield from invoker.send(envelope, operation="echo")
            return response.body.child_text("text")

        assert run_process(env, client()) == "x@echo1"
