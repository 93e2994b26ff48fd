"""Simulated Web service base class.

A service implements each contract operation as a method named
``op_<operation>`` taking the request payload (an Element) and a
:class:`ServiceContext`. Operation methods are generators: they yield
simulated delays (typically ``ctx.work()``, the processing time) and
``yield from ctx.call()`` for nested invocations, and return the response
payload.

Application-level failures are raised as
:class:`~repro.soap.SoapFaultError`; the hosting container converts them to
fault replies on the wire.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.simulation import Environment
from repro.soap import SoapEnvelope
from repro.wsdl import ServiceContract
from repro.xmlutils import Element

__all__ = ["ProcessingModel", "ServiceContext", "SimulatedService"]


@dataclass(frozen=True)
class ProcessingModel:
    """Simulated service-side processing time.

    ``base + per_kb * request_size`` with uniform ±jitter, drawn from the
    service's own random stream. Differentiating these per service instance
    is how the case studies give "the same type" services different QoS.
    """

    base_seconds: float = 0.005
    per_kb_seconds: float = 0.0002
    jitter_fraction: float = 0.15

    def sample(self, size_bytes: int, rng) -> float:
        nominal = self.base_seconds + self.per_kb_seconds * (size_bytes / 1024.0)
        if self.jitter_fraction <= 0:
            return nominal
        jitter = nominal * self.jitter_fraction
        return max(0.0, nominal + rng.uniform(-jitter, jitter))


class ServiceContext:
    """Per-request context handed to operation implementations."""

    def __init__(
        self,
        service: "SimulatedService",
        request: SoapEnvelope,
        operation_name: str,
    ) -> None:
        self.service = service
        self.request = request
        self.operation_name = operation_name
        self.env: Environment = service.env

    def work(self, extra_seconds: float = 0.0) -> float:
        """This request's simulated processing time, in seconds: ``yield ctx.work()``."""
        rng = self.service.rng
        duration = self.service.processing.sample(self.request.size_bytes, rng)
        return duration + max(0.0, extra_seconds)

    def call(
        self,
        to: str,
        operation: str,
        payload: Element,
        timeout: float | None = None,
    ) -> Generator:
        """Invoke another service through this service's invoker."""
        if self.service.invoker is None:
            raise RuntimeError(f"service {self.service.name!r} has no invoker configured")
        return self.service.invoker.invoke(to, operation, payload, timeout=timeout)


class SimulatedService:
    """Base class for all case-study services."""

    #: Subclasses set the shared contract for their service type.
    contract: ServiceContract
    #: Qualified names (Clark notation) of extension headers this service
    #: understands. A request carrying a ``mustUnderstand`` header outside
    #: this set is rejected with a Client fault (SOAP 1.1 semantics).
    understood_headers: frozenset[str] = frozenset()

    def __init__(
        self,
        env: Environment,
        name: str,
        address: str,
        processing: ProcessingModel | None = None,
        rng=None,
    ) -> None:
        if not hasattr(self, "contract") or self.contract is None:
            raise TypeError(f"{type(self).__name__} must define a contract")
        self.env = env
        self.name = name
        self.address = address
        self.processing = processing or ProcessingModel()
        self.rng = rng
        #: Set by the container so operations can make nested calls.
        self.invoker = None
        #: Invocation counters for experiment reporting.
        self.invocations = 0
        self.faults_raised = 0

    @property
    def service_type(self) -> str:
        return self.contract.service_type

    def dispatch(self, operation_name: str, request: SoapEnvelope) -> Generator:
        """The simulated process implementing one request."""
        method = getattr(self, f"op_{operation_name}", None)
        if method is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not implement operation {operation_name!r}"
            )
        self.invocations += 1
        context = ServiceContext(self, request, operation_name)
        return method(request.body, context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} at {self.address}>"
