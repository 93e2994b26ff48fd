"""Shared fixtures: a minimal echo/calc service world, and the size oracle."""

from __future__ import annotations

import pytest

from repro.services import ProcessingModel, ServiceContainer, SimulatedService
from repro.simulation import Environment, RandomSource
from repro.transport import Network
from repro.wsdl import MessageSchema, Operation, PartSchema, ServiceContract

ECHO_CONTRACT = ServiceContract(
    service_type="Echo",
    operations=(
        Operation(
            name="echo",
            input=MessageSchema("echoRequest", (PartSchema("text"),)),
            output=MessageSchema("echoResponse", (PartSchema("text"),)),
        ),
        Operation(
            name="add",
            input=MessageSchema(
                "addRequest", (PartSchema("a", "int"), PartSchema("b", "int"))
            ),
            output=MessageSchema("addResponse", (PartSchema("sum", "int"),)),
        ),
    ),
)


class EchoService(SimulatedService):
    """Echoes text back; adds numbers."""

    contract = ECHO_CONTRACT

    def op_echo(self, payload, ctx):
        yield ctx.work()
        return ECHO_CONTRACT.operation("echo").output.build(
            text=f"{payload.child_text('text')}@{self.name}"
        )

    def op_add(self, payload, ctx):
        yield ctx.work()
        total = int(payload.child_text("a")) + int(payload.child_text("b"))
        return ECHO_CONTRACT.operation("add").output.build(sum=total)


class SlowEchoService(EchoService):
    """Takes a configurable long time to answer."""

    def __init__(self, *args, delay: float = 100.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay

    def op_echo(self, payload, ctx):
        yield ctx.env.timeout(self.delay)
        return ECHO_CONTRACT.operation("echo").output.build(text="late")


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def random_source():
    return RandomSource(42)


@pytest.fixture
def network(env, random_source):
    return Network(env, random_source)


@pytest.fixture
def container(env, network, random_source):
    return ServiceContainer(env, network, random_source)


@pytest.fixture
def echo_service(env, container):
    service = EchoService(
        env, "echo1", "http://test/echo", processing=ProcessingModel(base_seconds=0.005)
    )
    container.deploy(service)
    return service


def run_process(env, generator):
    """Drive a generator to completion on the simulation."""
    return env.run(env.process(generator))


def serialized_size(envelope):
    """What ``envelope.size_bytes`` must equal: the UTF-8 length of the
    envelope serialized by ``serialize_xml`` (behind ``to_xml``) without
    its transparent headers and its trace context, plus padding. The
    reference for every differential test of the measured size."""
    visible = envelope.copy()
    visible.headers = [header for header in envelope.headers if not header.transparent]
    visible.trace_context = None
    return len(visible.to_xml().encode("utf-8")) + envelope.padding
