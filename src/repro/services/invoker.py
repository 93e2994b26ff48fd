"""Client-side Web services invoker.

The invoker builds request envelopes, races them against a timeout timer,
and normalizes every failure mode into the fault taxonomy:

- connection refused / unknown endpoint  → ``ServiceUnavailable``
- no response within the timeout         → ``Timeout``
- fault envelope returned by the service → the fault's own code

Every attempt produces an :class:`InvocationRecord` for the readers of the
invoker's ``record`` kind (the wsBus QoS Measurement Service, experiment
harnesses) to build reliability, availability and response-time statistics.
"""

from __future__ import annotations

import enum
from collections.abc import Generator
from dataclasses import dataclass

from repro.simulation import Environment, EventRouter
from repro.soap import AddressingHeaders, FaultCode, SoapEnvelope, SoapFault
from repro.transport import ConnectionRefused, Network, TransportTimeout
from repro.xmlutils import Element

__all__ = ["InvocationOutcome", "InvocationRecord", "Invoker"]


class InvocationOutcome(enum.Enum):
    SUCCESS = "success"
    FAULT = "fault"


@dataclass(frozen=True)
class InvocationRecord:
    """One attempted request/response exchange, as seen by the caller."""

    caller: str
    target: str
    operation: str
    started_at: float
    finished_at: float
    outcome: InvocationOutcome
    fault_code: FaultCode | None = None
    request_bytes: int = 0
    response_bytes: int = 0

    @property
    def duration(self) -> float:
        """Round-trip time in simulated seconds."""
        return self.finished_at - self.started_at

    @property
    def succeeded(self) -> bool:
        return self.outcome is InvocationOutcome.SUCCESS


class Invoker:
    """Sends requests on behalf of one caller (a client, service, or VEP)."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        caller: str = "client",
        default_timeout: float | None = 30.0,
    ) -> None:
        self.env = env
        self.network = network
        self.caller = caller
        self.default_timeout = default_timeout
        #: Publishes ``record`` with each attempt's :class:`InvocationRecord`, and
        #: ``request``/``response``/``fault`` with ``(kind, envelope, operation, target)``.
        self.router = EventRouter()

    # -- invocation ------------------------------------------------------------

    def invoke(
        self,
        to: str,
        operation: str,
        payload: Element,
        timeout: float | None = None,
        action: str | None = None,
        process_instance_id: str | None = None,
        padding: int = 0,
    ) -> Generator:
        """Build and send a request; returns the response envelope.

        Raises :class:`~repro.soap.SoapFaultError` on any failure.
        """
        envelope = SoapEnvelope.request(
            to,
            action or f"urn:op:{operation}",
            payload,
            padding=padding,
            process_instance_id=process_instance_id,
        )
        return self.send(envelope, operation=operation, timeout=timeout)

    def send(
        self,
        envelope: SoapEnvelope,
        operation: str | None = None,
        timeout: float | None = None,
    ) -> Generator:
        """Send a prebuilt envelope (used by wsBus when re-routing copies).

        ``timeout=None`` applies the invoker's default; ``math.inf``
        disables the timer entirely (callers that manage their own,
        extensible deadline — the orchestration engine — use this).
        """
        effective_timeout = self.default_timeout if timeout is None else timeout
        if effective_timeout is not None and effective_timeout == float("inf"):
            effective_timeout = None
        operation_name = operation or (envelope.addressing.action or "unknown")
        target = envelope.addressing.to or ""
        started = self.env.now
        for tap in self.router.routes.get("request", self.router.every):
            tap("request", envelope, operation_name, target)
        try:
            # Drive the transport exchange inline (no wrapping process): the
            # exchange is request-scoped and nothing races it at this level,
            # so the extra process per invocation was pure overhead.
            response = yield from self.network.send(envelope, timeout=effective_timeout)
        except ConnectionRefused as refused:
            fault = SoapFault(
                FaultCode.SERVICE_UNAVAILABLE, str(refused), actor=target, source="transport"
            )
            self._record(target, operation_name, started, envelope, None, fault)
            raise fault.to_exception() from refused
        except TransportTimeout as timed_out:
            fault = SoapFault(FaultCode.TIMEOUT, str(timed_out), actor=target, source="invoker")
            self._record(target, operation_name, started, envelope, None, fault)
            raise fault.to_exception() from timed_out
        # The record (QoS measurement) goes out before the message
        # (monitoring) so a monitoring policy evaluating QoS thresholds on
        # this response already sees the exchange it is judging.
        fault = response.fault
        self._record(target, operation_name, started, envelope, response, fault)
        kind = "response" if fault is None else "fault"
        for tap in self.router.routes.get(kind, self.router.every):
            tap(kind, response, operation_name, target)
        if fault is not None:
            raise fault.to_exception()
        return response

    def _record(
        self,
        target: str,
        operation: str,
        started: float,
        request: SoapEnvelope,
        response: SoapEnvelope | None,
        fault: SoapFault | None,
    ) -> None:
        observers = self.router.routes.get("record", self.router.every)
        if not observers:
            return
        # Direct construction (one record per attempt): skips the dataclass
        # __init__ funnel on a 9-field object built in the hottest loop.
        record = InvocationRecord.__new__(InvocationRecord)
        state = record.__dict__
        state["caller"] = self.caller
        state["target"] = target
        state["operation"] = operation
        state["started_at"] = started
        state["finished_at"] = self.env.now
        state["outcome"] = InvocationOutcome.FAULT if fault else InvocationOutcome.SUCCESS
        state["fault_code"] = fault.code if fault else None
        state["request_bytes"] = request.size_bytes
        state["response_bytes"] = response.size_bytes if response is not None else 0
        for observer in observers:
            observer(record)
