"""Unit tests for the simulated network transport."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

from conftest import ECHO_CONTRACT, run_process
from repro.casestudies.scm import RETAILER_CONTRACT, build_scm_deployment
from repro.experiments import catalog_plan
from repro.policy import PolicyRepository
from repro.soap import SoapEnvelope
from repro.transport import (
    ConnectionRefused,
    LatencyModel,
    Network,
    TransportTimeout,
)
from repro.simulation import RandomSource
from repro.workload import WorkloadRunner
from repro.wsbus import WsBus
from repro.xmlutils import Element


def echo_handler_factory(env, delay=0.0):
    def handler(request):
        if delay:
            yield env.timeout(delay)
        else:
            yield env.timeout(0)
        return request.reply(Element("ok"))

    return handler


def make_request(to="http://svc/a"):
    return SoapEnvelope.request(to, "urn:op:echo", Element("q"))


class TestLatencyModel:
    def test_zero_jitter_is_deterministic(self):
        model = LatencyModel(base_seconds=0.01, per_kb_seconds=0.001, jitter_fraction=0.0)
        rng = RandomSource(1).stream("t")
        assert model.sample(2048, rng) == pytest.approx(0.012)

    def test_size_increases_latency(self):
        model = LatencyModel(jitter_fraction=0.0)
        rng = RandomSource(1).stream("t")
        assert model.sample(64 * 1024, rng) > model.sample(1024, rng)

    def test_jitter_bounded(self):
        model = LatencyModel(base_seconds=0.01, per_kb_seconds=0.0, jitter_fraction=0.5)
        rng = RandomSource(1).stream("t")
        for _ in range(200):
            sample = model.sample(0, rng)
            assert 0.005 <= sample <= 0.015

    def test_never_negative(self):
        model = LatencyModel(base_seconds=0.0, per_kb_seconds=0.0, jitter_fraction=0.9)
        rng = RandomSource(1).stream("t")
        assert all(model.sample(0, rng) >= 0 for _ in range(50))


class TestNetwork:
    def test_round_trip(self, env, network):
        network.register("http://svc/a", echo_handler_factory(env))

        def client():
            response = yield from network.send(make_request())
            return response.body.name.local

        assert run_process(env, client()) == "ok"
        assert env.now > 0

    def test_unknown_endpoint_refused(self, env, network):
        def client():
            with pytest.raises(ConnectionRefused):
                yield from network.send(make_request("http://nowhere"))

        run_process(env, client())

    def test_unavailable_endpoint_refused_and_counted(self, env, network):
        endpoint = network.register("http://svc/a", echo_handler_factory(env))
        endpoint.available = False

        def client():
            with pytest.raises(ConnectionRefused):
                yield from network.send(make_request())

        run_process(env, client())
        assert endpoint.requests_refused == 1
        assert endpoint.requests_handled == 0

    def test_timeout_fires(self, env, network):
        network.register("http://svc/a", echo_handler_factory(env, delay=60.0))

        def client():
            with pytest.raises(TransportTimeout) as excinfo:
                yield from network.send(make_request(), timeout=1.0)
            return excinfo.value.timeout

        assert run_process(env, client()) == 1.0
        assert env.now >= 1.0

    def test_fast_response_beats_timeout(self, env, network):
        network.register("http://svc/a", echo_handler_factory(env))

        def client():
            response = yield from network.send(make_request(), timeout=10.0)
            return response.body.name.local

        assert run_process(env, client()) == "ok"

    def test_added_delay_slows_response(self, env, network):
        network.register("http://svc/a", echo_handler_factory(env))
        baseline_env_time = []

        def client():
            yield from network.send(make_request())
            baseline_env_time.append(env.now)

        run_process(env, client())
        endpoint = network.endpoint("http://svc/a")
        endpoint.added_delay_seconds = 5.0
        start = env.now

        def slow_client():
            yield from network.send(make_request())

        run_process(env, slow_client())
        assert env.now - start >= 5.0

    def test_unregister(self, env, network):
        network.register("http://svc/a", echo_handler_factory(env))
        network.unregister("http://svc/a")
        assert network.endpoint("http://svc/a") is None

    def test_reregister_replaces_handler(self, env, network):
        network.register("http://svc/a", echo_handler_factory(env))

        def other_handler(request):
            yield env.timeout(0)
            return request.reply(Element("other"))

        network.register("http://svc/a", other_handler)

        def client():
            response = yield from network.send(make_request())
            return response.body.name.local

        assert run_process(env, client()) == "other"

    def test_addresses_sorted(self, env, network):
        network.register("http://svc/b", echo_handler_factory(env))
        network.register("http://svc/a", echo_handler_factory(env))
        assert network.addresses == ["http://svc/a", "http://svc/b"]

    def test_handler_exception_propagates(self, env, network):
        def bad_handler(request):
            yield env.timeout(0)
            raise RuntimeError("handler broke")

        network.register("http://svc/a", bad_handler)

        def client():
            with pytest.raises(RuntimeError):
                yield from network.send(make_request())

        run_process(env, client())

    def test_larger_message_takes_longer(self, env, random_source):
        network = Network(
            env,
            random_source,
            latency=LatencyModel(base_seconds=0.001, per_kb_seconds=0.01, jitter_fraction=0.0),
        )
        network.register("http://svc/a", echo_handler_factory(env))
        durations = []

        def client(padding):
            start = env.now
            envelope = make_request()
            envelope.padding = padding
            yield from network.send(envelope)
            durations.append(env.now - start)

        run_process(env, client(0))
        run_process(env, client(100 * 1024))
        assert durations[1] > durations[0]


class TestDeadline:
    """A timed send bounds the wait, not the round trip — and leaves nothing behind."""

    def send_with_timeout(self, env, network, timeout, to="http://svc/a"):
        def client():
            with pytest.raises(TransportTimeout) as excinfo:
                yield from network.send(make_request(to), timeout=timeout)
            return excinfo.value

        return run_process(env, client())

    def test_abandoned_request_still_reaches_the_service(self, env, network):
        endpoint = network.register("http://svc/a", echo_handler_factory(env, delay=60.0))
        error = self.send_with_timeout(env, network, 1.0)
        assert (error.timeout, error.address) == (1.0, "http://svc/a")
        assert env.now == 1.0
        env.run()  # the late reply is discarded
        assert endpoint.requests_handled == 1
        assert env.now > 60.0

    def test_late_fault_is_discarded(self, env, network):
        def bad_handler(request):
            yield env.timeout(60.0)
            raise RuntimeError("late fault")

        endpoint = network.register("http://svc/a", bad_handler)
        self.send_with_timeout(env, network, 1.0)
        env.run()  # no unhandled failure
        assert endpoint.requests_handled == 1
        assert env.now > 60.0

    def test_late_connection_refused_is_discarded(self, env, network):
        # The deadline is shorter than the connect leg to an address nobody serves.
        self.send_with_timeout(env, network, 0.0001, to="http://nowhere")
        env.run()
        assert env.now > 0.0001

    def test_refused_connect_cancels_the_timer(self, env, network):
        def client():
            with pytest.raises(ConnectionRefused):
                yield from network.send(make_request("http://nowhere"), timeout=30.0)

        run_process(env, client())
        refused_at = env.now
        assert env.peek() == float("inf")
        env.run()
        assert env.now == refused_at < 30.0

    def bare_primary_vep(self):
        deployment = build_scm_deployment(seed=5, log_events=False)
        bus = WsBus(
            deployment.env,
            deployment.network,
            repository=PolicyRepository(),
            registry=deployment.registry,
            member_timeout=30.0,
        )
        vep = bus.create_vep(
            "retailers",
            RETAILER_CONTRACT,
            members=[deployment.retailers["C"].address],
            selection_strategy="primary",
        )
        return deployment.env, deployment.network, vep

    def test_finished_round_trips_leave_no_timers(self):
        """The retention guard: 600 requests under 30 s deadlines, all answered in time."""
        env, network, vep = self.bare_primary_vep()
        plan = catalog_plan(vep.address, timeout=30.0, think=0.0)
        result = WorkloadRunner(env, network).run(plan, clients=2, requests_per_client=300)
        assert len(result.successes) == 600 and env.now < 30.0
        # Two deadlines per request: left to fire dead, 1,200 would still be scheduled.
        assert len(env._queue) <= 40

    def test_dropped_reply_is_not_retained(self):
        """The other half of the guard: a dead timer must not keep the reply alive."""
        env, network, vep = self.bare_primary_vep()
        dropped = []

        def client():
            request = SoapEnvelope.request(
                vep.address,
                "urn:op:getCatalog",
                RETAILER_CONTRACT.operation("getCatalog").input.build(),
            )
            response = yield from network.send(request, timeout=30.0)
            assert not response.is_fault
            dropped.append(weakref.ref(response))

        run_process(env, client())
        assert env.now < 30.0
        gc.collect()
        assert dropped[0]() is None


def test_deadlines_stay_in_the_kernel():
    """Layering guard: the kernel's private names stay private, and the
    transport keeps no hand-rolled race (no event of its own, no closure)."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        if path.parent.name == "simulation":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "repro.simulation"
            ):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path} imports {private} from {node.module}"

    tree = ast.parse((src / "transport" / "network.py").read_text(encoding="utf-8"))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if node is function:
                continue
            assert not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ), f"nested function in Network code: {function.name}"
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                assert name not in ("Event", "Timeout"), f"{function.name} constructs {name}"
