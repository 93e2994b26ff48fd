"""Active QoS probing and external management events.

Two sensor paths from Section 3.1 beyond passive message observation:

- the QoS Measurement Service collects data "either through direct
  computation of QoS metrics... **or via periodic probing for management
  information** from other management intermediaries" —
  :class:`QoSProbe` sends synthetic transactions at a fixed interval and
  feeds the resulting observations into the measurement service;
- "Faults can also be identified based on **management events coming from
  internal or external management systems**, such as hardware or network
  failure faults" — :class:`ManagementEventSource` lets such systems
  report faults for an endpoint, which become classified MASC events and
  can drive the same adaptation policies as observed message faults.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass

from repro.core.events import MASCEvent
from repro.services import Invoker
from repro.simulation import EventRouter
from repro.soap import FaultCode, SoapFault, SoapFaultError
from repro.xmlutils import Element

__all__ = ["ManagementEventSource", "ProbeResult", "QoSProbe"]


@dataclass(frozen=True)
class ProbeResult:
    """One synthetic-transaction measurement."""

    time: float
    target: str
    succeeded: bool
    response_time: float | None
    fault_code: FaultCode | None = None


class QoSProbe:
    """Periodically probes an endpoint with a synthetic request.

    The probe uses its own invoker; subscribing the QoS Measurement
    Service to it (``qos.attach_to_invoker(probe.invoker)``) folds probe
    observations into the same per-endpoint statistics that passive
    measurement feeds — exactly the "third QoS measurement entity" role.
    """

    def __init__(
        self,
        env,
        network,
        target: str,
        operation: str,
        payload_factory: Callable[[], Element],
        interval_seconds: float = 30.0,
        timeout_seconds: float = 5.0,
        caller: str = "qos-probe",
        window: int = 100,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("probe interval must be positive")
        if window <= 0:
            raise ValueError("probe window must be positive")
        self.env = env
        self.target = target
        self.operation = operation
        self.payload_factory = payload_factory
        self.interval_seconds = interval_seconds
        self.timeout_seconds = timeout_seconds
        self.window = window
        self.invoker = Invoker(env, network, caller=caller, default_timeout=timeout_seconds)
        # Bounded: only the newest ``window`` probes count, so an endpoint
        # that recovers is not haunted forever by faults from hours ago.
        self.results: deque[ProbeResult] = deque(maxlen=window)
        self._running = False

    def start(self) -> None:
        """Begin the probe cycle (idempotent)."""
        if not self._running:
            self._running = True
            self.env.process(self._cycle(), name=f"probe:{self.target}")

    def stop(self) -> None:
        """Stop after the in-flight probe (if any) completes."""
        self._running = False

    def _cycle(self) -> Generator:
        while self._running:
            yield self.interval_seconds
            if not self._running:
                return
            started = self.env.now
            try:
                yield from self.invoker.invoke(
                    self.target,
                    self.operation,
                    self.payload_factory(),
                    timeout=self.timeout_seconds,
                )
            except SoapFaultError as error:
                self.results.append(
                    ProbeResult(
                        time=self.env.now,
                        target=self.target,
                        succeeded=False,
                        response_time=None,
                        fault_code=error.fault.code,
                    )
                )
                continue
            self.results.append(
                ProbeResult(
                    time=self.env.now,
                    target=self.target,
                    succeeded=True,
                    response_time=self.env.now - started,
                )
            )

    @property
    def observed_availability(self) -> float | None:
        """Fraction of the sliding probe window that succeeded.

        None before any probe. Only the newest ``window`` results are
        retained, so availability tracks the endpoint's *current* health
        rather than a lifetime average that old outages would pin down.
        """
        if not self.results:
            return None
        return sum(1 for r in self.results if r.succeeded) / len(self.results)


class ManagementEventSource:
    """Bridge for faults reported by internal/external management systems."""

    def __init__(self, env) -> None:
        self.env = env
        self.router = EventRouter()
        self.reported: list[MASCEvent] = []
        #: ``(event, handler, error)`` per handler that raised during
        #: delivery; kept so operators can see which consumers misbehaved.
        self.sink_errors: list[tuple[MASCEvent, Callable[[MASCEvent], None], Exception]] = []

    def report_fault(
        self,
        endpoint: str,
        code: FaultCode,
        reason: str,
        service_type: str | None = None,
        source_system: str = "external-management",
    ) -> MASCEvent:
        """Report a fault observed by a management system.

        The fault becomes a ``fault.<Code>`` MASC event carrying the
        reporting system's identity, indistinguishable to adaptation
        policies from faults detected on the message path.
        """
        event = MASCEvent(
            name=f"fault.{code.value}",
            time=self.env.now,
            endpoint=endpoint,
            service_type=service_type,
            fault=SoapFault(code, reason, actor=endpoint, source=source_system),
            context={"reported_by": source_system, "fault_reason": reason},
            raised_by=source_system,
        )
        self.reported.append(event)
        # Deliver to every handler before surfacing any failure: one broken
        # consumer must not block fault propagation to the rest.
        first_error: Exception | None = None
        for handler in self.router.routes.get(event.name, self.router.every):
            try:
                handler(event)
            except Exception as error:
                self.sink_errors.append((event, handler, error))
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return event
