"""Discrete-event simulated network.

The :class:`Network` owns a table of addressable endpoints. Sending a message
is one generator per leg (``Network._exchange``), run in the sender's
process: connect (may be refused), transmit the request (size-dependent
latency), let the endpoint's handler run inline, transmit the response.
Each latency is a plain ``yield seconds``, one kernel wake and no event
object. An optional timeout bounds the whole round trip, mirroring the
paper's "Web services Invoker component can use timers to raise timeout
faults": the round trip is a deadline-bound call (``Environment.call``)
that runs in the caller's own process, so a reply in time leaves nothing
scheduled. No process exists only to be awaited: on the request path,
every kernel event is a simulated delay.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass

from repro.observability.tracing import NULL_TRACER
from repro.simulation import Environment, Expired, RandomSource
from repro.soap import SoapEnvelope

__all__ = [
    "ConnectionRefused",
    "LatencyModel",
    "Network",
    "NetworkEndpoint",
    "TransportError",
    "TransportTimeout",
]


class TransportError(Exception):
    """Base for transport-level failures."""

    def __init__(self, message: str, address: str | None = None) -> None:
        super().__init__(message)
        self.address = address


class ConnectionRefused(TransportError):
    """The target endpoint is unknown or currently unavailable."""


class TransportTimeout(TransportError):
    """No response within the caller's timeout interval."""

    def __init__(self, message: str, address: str | None = None, timeout: float = 0.0) -> None:
        super().__init__(message, address)
        self.timeout = timeout


@dataclass(frozen=True)
class LatencyModel:
    """One-way message latency: ``base + per_kb * size + jitter``.

    ``jitter_fraction`` scales a uniform ±jitter term, seeded per network so
    runs are reproducible. Defaults approximate a fast LAN.
    """

    base_seconds: float = 0.002
    per_kb_seconds: float = 0.0004
    jitter_fraction: float = 0.10

    def sample(self, size_bytes: int, rng) -> float:
        nominal = self.base_seconds + self.per_kb_seconds * (size_bytes / 1024.0)
        if self.jitter_fraction <= 0:
            return nominal
        jitter = nominal * self.jitter_fraction
        return max(0.0, nominal + rng.uniform(-jitter, jitter))


#: An endpoint handler: a callable producing a simulated process (generator)
#: that yields simulation events and returns the response envelope.
Handler = Callable[[SoapEnvelope], Generator]


class NetworkEndpoint:
    """A registered, addressable message handler.

    ``available`` is toggled by the fault injector to open and close
    unavailability windows; while False, connects are refused. An extra
    ``added_delay_seconds`` models injected QoS degradation at the endpoint
    (the paper's test code "picked some service instances and changed their
    QoS values (e.g., introduced delays)").
    """

    def __init__(self, address: str, handler: Handler) -> None:
        self.address = address
        self.handler = handler
        self.available = True
        self.added_delay_seconds = 0.0
        #: When a transparent proxy interposes at this address, the address
        #: of the relocated backend that fault injection should actually
        #: affect (see :meth:`Network.fault_injection_target`). The proxy
        #: itself does not fail when its backend is faulted.
        self.fault_target: str | None = None
        #: Optional per-endpoint latency model overriding the network's
        #: default for traffic to/from this endpoint. Used to model
        #: co-location (e.g. a client-side wsBus reached over loopback).
        self.latency: LatencyModel | None = None
        #: Counters for experiment reporting.
        self.requests_handled = 0
        self.requests_refused = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.available else "down"
        return f"<NetworkEndpoint {self.address} {state}>"


class Network:
    """The simulated wire connecting clients, wsBus and services.

    A timed :meth:`send` owns no timer of its own: the deadline is a call
    frame of the sender's process, and a reply in time withdraws it.
    """

    def __init__(
        self,
        env: Environment,
        random_source: RandomSource | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.env = env
        self.latency = latency or LatencyModel()
        self._rng = (random_source or RandomSource()).stream("network.latency")
        self._endpoints: dict[str, NetworkEndpoint] = {}
        #: Set by a tracing-enabled wsBus: exchanges whose envelope carries
        #: a trace context get ``net.exchange`` / ``service.execute`` spans.
        #: Client legs (no context yet) and untraced runs take the exact
        #: pre-tracing path.
        self.tracer = NULL_TRACER

    # -- endpoint management -----------------------------------------------------

    def register(self, address: str, handler: Handler) -> NetworkEndpoint:
        """Attach a handler at ``address`` (replacing any previous one)."""
        endpoint = NetworkEndpoint(address, handler)
        self._endpoints[address] = endpoint
        return endpoint

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def endpoint(self, address: str) -> NetworkEndpoint | None:
        return self._endpoints.get(address)

    def relocate(self, address: str, new_address: str) -> NetworkEndpoint:
        """Move the endpoint at ``address`` to ``new_address``.

        The *same* :class:`NetworkEndpoint` object is re-keyed, preserving
        its availability/delay state, counters and — critically — its
        identity: fault injectors that already hold the object keep
        toggling the service they targeted even after a proxy takes over
        its old address.
        """
        endpoint = self._endpoints.pop(address, None)
        if endpoint is None:
            raise ValueError(f"no endpoint registered at {address!r}")
        endpoint.address = new_address
        self._endpoints[new_address] = endpoint
        return endpoint

    def fault_injection_target(self, address: str) -> NetworkEndpoint | None:
        """The endpoint fault injection at ``address`` should affect.

        Follows :attr:`NetworkEndpoint.fault_target` links, so injecting at
        a transparently proxied address degrades the relocated backend (the
        origin "shares its fate") rather than knocking out the proxy that
        is supposed to mediate the failure.
        """
        endpoint = self._endpoints.get(address)
        seen: set[str] = set()
        while (
            endpoint is not None
            and endpoint.fault_target is not None
            and endpoint.address not in seen
        ):
            seen.add(endpoint.address)
            linked = self._endpoints.get(endpoint.fault_target)
            if linked is None:
                break
            endpoint = linked
        return endpoint

    @property
    def addresses(self) -> list[str]:
        return sorted(self._endpoints)

    # -- message exchange -----------------------------------------------------------

    def send(self, envelope: SoapEnvelope, timeout: float | None = None) -> Generator:
        """Simulated round trip; returns the response envelope.

        Raises :class:`ConnectionRefused` if the target is unknown or down,
        :class:`TransportTimeout` if ``timeout`` elapses first, and
        propagates whatever the handler process raises.
        """
        address = envelope.addressing.to or ""
        if timeout is None:
            return self._exchange(address, envelope)
        return self._exchange_with_timeout(address, envelope, timeout)

    def _exchange(self, address: str, envelope: SoapEnvelope) -> Generator:
        """One leg: connect, request, the handler inline, reply; one generator."""
        span = None
        if self.tracer.enabled:
            context = envelope.trace_context
            if context is not None:
                span = self.tracer.start_span(
                    "net.exchange", parent=context, attributes={"address": address}
                )
        endpoint = self._endpoints.get(address)
        latency = self.latency
        if endpoint is not None and endpoint.latency is not None:
            latency = endpoint.latency
        try:
            # Even a refused connect costs one base latency (TCP SYN and reset).
            yield latency.sample(0, self._rng)
            if endpoint is None:
                raise ConnectionRefused(f"no endpoint at {address!r}", address)
            if not endpoint.available:
                endpoint.requests_refused += 1
                raise ConnectionRefused(f"endpoint {address!r} is unavailable", address)
            yield latency.sample(envelope.size_bytes, self._rng)
            if endpoint.added_delay_seconds > 0:
                yield endpoint.added_delay_seconds
            endpoint.requests_handled += 1
            # The handler generator runs inline in this exchange: it is scoped
            # to exactly this request, so wrapping it in its own process only
            # added allocation and event traffic per message.
            if span is None:
                response = yield from endpoint.handler(envelope)
            else:
                # The handler leg is the service actually executing (or a
                # downstream VEP mediating); its span separates service time
                # from the transit time that stays in ``net.exchange``.
                execute = self.tracer.start_span(
                    "service.execute", parent=span, attributes={"address": address}
                )
                try:
                    response = yield from endpoint.handler(envelope)
                except BaseException as error:
                    execute.end(status=f"error:{type(error).__name__}")
                    raise
                execute.end()
            if not isinstance(response, SoapEnvelope):
                raise TransportError(f"handler at {address!r} returned {response!r}", address)
            yield latency.sample(response.size_bytes, self._rng)
        except BaseException as error:
            if span is not None:
                span.end(status=f"error:{type(error).__name__}")
            raise
        if span is not None:
            span.end()
        return response

    def _exchange_with_timeout(
        self, address: str, envelope: SoapEnvelope, timeout: float
    ) -> Generator:
        """Run the exchange as a deadline-bound call: whichever is first wins.

        The exchange runs inline in the caller's process (``env.call``): a
        reply or fault in time leaves nothing scheduled; a deadline that
        passes abandons the round trip without stopping it, so the request
        still reaches the service and its late outcome is discarded by the
        kernel.
        """
        try:
            return (yield self.env.call(self._exchange(address, envelope), timeout))
        except Expired:
            raise TransportTimeout(
                f"no response from {address!r} within {timeout}s", address, timeout
            ) from None
