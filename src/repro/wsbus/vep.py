"""Virtual End Point (VEP).

"wsBus key architectural abstraction is the concept of a Virtual End Point
(VEP). A VEP allows virtualization by grouping a set of functionally
equivalent services and exposes an abstract WSDL for accessing the
configured services... The VEP acts as a recovery block and various runtime
policies can be associat[ed] with it. ... The VEP takes care of the dynamic
Find, Select, Bind and Invoke on behalf of the BPEL engine."
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapFaultError
from repro.wsbus.adaptation import AdaptationManager, broadcast_first_response
from repro.wsbus.monitoring import BusMonitoringService, MonitoringPoint
from repro.wsbus.pipeline import MessagePipeline, PipelineContext
from repro.wsbus.selection import STRATEGIES, SelectionService
from repro.wsdl import ContractViolation, ServiceContract

__all__ = ["VepStats", "VirtualEndpoint"]


@dataclass
class VepStats:
    """Per-VEP counters for experiment reporting."""

    requests: int = 0
    successes: int = 0
    recovered: int = 0
    failures: int = 0
    violations: int = 0
    #: Requests rejected at admission (load shedding / bulkhead saturation).
    shed: int = 0
    #: Requests answered from the traffic tier's response cache.
    cache_hits: int = 0
    #: Requests delayed by queue-based load leveling.
    leveled: int = 0
    #: Requests rejected by the load leveler (queue full / wait too long).
    throttled: int = 0


class VirtualEndpoint:
    """A group of equivalent services behind one abstract endpoint."""

    def __init__(
        self,
        name: str,
        contract: ServiceContract,
        env,
        sender,
        selection: SelectionService,
        monitoring: BusMonitoringService,
        adaptation: AdaptationManager,
        members: list[str] | None = None,
        selection_strategy: str = "round_robin",
        invocation_timeout: float | None = 10.0,
        broadcast: bool = False,
        registry=None,
        pipeline: MessagePipeline | None = None,
        validate_messages: bool = False,
        mediation_overhead=None,
        overhead_rng=None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.name = name
        self.contract = contract
        self.env = env
        self.sender = sender
        self.selection = selection
        self.monitoring = monitoring
        self.adaptation = adaptation
        if selection_strategy not in STRATEGIES:
            raise ValueError(
                f"unknown selection strategy {selection_strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        self.members: list[str] = list(members or ())
        self.selection_strategy = selection_strategy
        self.invocation_timeout = invocation_timeout
        #: When True every request is broadcast to all members, first
        #: response wins (the paper's concurrent invocation configuration).
        self.broadcast = broadcast
        self.registry = registry
        self.pipeline = pipeline if pipeline is not None else MessagePipeline()
        self.validate_messages = validate_messages
        if validate_messages:
            from repro.wsbus.inspectors import ContractValidationInspector

            self.pipeline.insert(0, ContractValidationInspector(contract))
        #: Simulated per-message mediation cost (request dispatch, policy
        #: handling, inspector execution): the source of the ~10% latency
        #: overhead the paper measures and attributes to "the high number
        #: of threads created to serve the requests" and "the need to
        #: import, parse, and process policies".
        self.mediation_overhead = mediation_overhead
        self.overhead_rng = overhead_rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.address: str | None = None  # set by the bus on deployment
        self.stats = VepStats()

    def _mediation_delay(self, size_bytes: int) -> float | None:
        """The delay of one mediation pass, in seconds, or None if free."""
        if self.mediation_overhead is None:
            return None
        return self.mediation_overhead.sample(size_bytes, self.overhead_rng)

    # -- membership ---------------------------------------------------------------

    def add_member(self, address: str) -> None:
        if address not in self.members:
            self.members.append(address)

    def remove_member(self, address: str) -> None:
        if address in self.members:
            self.members.remove(address)

    def refresh_members_from_registry(self) -> None:
        """Dynamic Find: refresh membership from the UDDI-style registry."""
        if self.registry is None:
            return
        for record in self.registry.find(self.contract.service_type):
            self.add_member(record.address)

    # -- the message path -------------------------------------------------------------

    def handle(self, request: SoapEnvelope, span=None) -> Generator:
        """The mediation core: inspectors, monitoring, selection, recovery.

        A bare bus registers this as the network handler; the tiers its
        policies configure are stages composed in front of it
        (:func:`repro.wsbus.pipeline.compose`). The innermost of them hands
        over the ``span`` the pass runs under (``None``: tracing is off).
        """
        self.stats.requests += 1
        operation = self.operation_of(request)
        if operation is None:
            self.stats.failures += 1
            return request.reply_fault(
                SoapFault(
                    FaultCode.CLIENT,
                    f"VEP {self.name!r} cannot map the request to an operation",
                    source=self.name,
                )
            )
        if span is not None:
            span.set_attribute("operation", operation)
        context = PipelineContext(env=self.env, vep=self, operation=operation, span=span)
        point = MonitoringPoint(
            service_type=self.contract.service_type, endpoint=None, operation=operation
        )
        request_cost = self._mediation_delay(request.size_bytes)
        if request_cost is not None:
            yield request_cost

        # Request-side pipeline + monitoring.
        try:
            request = self.pipeline.run_request(request, context)
        except ContractViolation as violation:
            self.stats.violations += 1
            return request.reply_fault(
                SoapFault(FaultCode.CLIENT, str(violation), source=self.name)
            )
        violation_fault = self.monitoring.check_message("request", request, point)
        if violation_fault is not None:
            self.stats.violations += 1
            return request.reply_fault(violation_fault)

        try:
            if self.broadcast:
                response, target = yield from self._invoke_broadcast(request, operation)
            else:
                response, target = yield from self._invoke_with_recovery(request, context)
        except SoapFaultError as error:
            self.stats.failures += 1
            self.monitoring.notify_fault(error.fault, request, point)
            return request.reply_fault(error.fault)

        # Response-side monitoring + pipeline.
        context.target = target
        response_point = MonitoringPoint(
            service_type=self.contract.service_type, endpoint=target, operation=operation
        )
        violation_fault = self.monitoring.check_message("response", response, response_point)
        if violation_fault is not None:
            self.stats.violations += 1
            try:
                response, context.target = yield from self._recover(
                    request, operation, violation_fault, target or "", span
                )
            except SoapFaultError as error:
                self.stats.failures += 1
                return request.reply_fault(error.fault)
        response = self.pipeline.run_response(response, context)
        response_cost = self._mediation_delay(response.size_bytes)
        if response_cost is not None:
            yield response_cost
        self.stats.successes += 1
        if response.body is None:
            return request.reply_fault(
                SoapFault(
                    FaultCode.SERVER, "member returned an empty response", source=self.name
                )
            )
        return request.reply(response.body)

    def _invoke_with_recovery(
        self, request: SoapEnvelope, context: PipelineContext
    ) -> Generator:
        """Select, bind, invoke; recover through adaptation policies."""
        operation = context.operation
        span = context.span
        target = self.selection.select(
            self.name,
            self.selection_strategy,
            self.members,
            envelope=request,
            context=context,
        )
        if span is not None:
            span.add_event("member_selected", target=target)
        if target is None:
            raise self._unavailable(f"VEP {self.name!r} has no registered members")
        outbound = request.copy()
        outbound.addressing = request.addressing.retargeted(target)
        try:
            response = yield from self.sender(
                outbound, operation, target, timeout=self.invocation_timeout
            )
            return response, target
        except SoapFaultError as error:
            point = MonitoringPoint(
                service_type=self.contract.service_type, endpoint=target, operation=operation
            )
            fault = self.monitoring.classify(error.fault, point)
            self.monitoring.notify_fault(fault, request, point)
            return (yield from self._recover(request, operation, fault, target, span))

    def _recover(
        self,
        request: SoapEnvelope,
        operation: str,
        fault: SoapFault,
        failed_target: str,
        span=None,
    ) -> Generator:
        """Run the adaptation manager: ``(response, target)``, or its final
        :class:`~repro.soap.SoapFaultError`."""
        recovered = yield from self.adaptation.recover(
            self, request, operation, fault, failed_target, parent_span=span
        )
        self.stats.recovered += 1
        self.metrics.counter("wsbus.vep.recovered").inc()
        return recovered

    def _invoke_broadcast(self, request: SoapEnvelope, operation: str) -> Generator:
        """Concurrent invocation of all members; first response wins."""
        if not self.members:
            raise self._unavailable(f"VEP {self.name!r} has no registered members")
        targets = self.selection.broadcast_targets(self.members, vep_name=self.name)
        if not targets:
            raise self._unavailable(f"all members of VEP {self.name!r} are quarantined")
        try:
            response, winner = yield from broadcast_first_response(
                self.env, self.sender, request, operation, targets
            )
        except SoapFaultError:
            # Every member faulted: the message is undeliverable by this
            # recovery block. Park it so operators can replay it once the
            # fleet recovers (addressed to the VEP, so a replay re-runs the
            # whole selection/recovery path).
            from repro.wsbus.retry import DeadLetterEntry

            self.adaptation.dead_letters.add(
                DeadLetterEntry(
                    time=self.env.now,
                    envelope=request,
                    operation=operation,
                    target=self.address or self.name,
                    attempts_made=len(targets),
                    reason=f"broadcast to all {len(targets)} members of "
                    f"VEP {self.name!r} failed",
                )
            )
            raise
        return response, winner

    # -- utilities -----------------------------------------------------------------------

    def _unavailable(self, reason: str) -> SoapFaultError:
        return SoapFaultError(
            SoapFault(FaultCode.SERVICE_UNAVAILABLE, reason, source=self.name)
        )

    def operation_of(self, request: SoapEnvelope) -> str | None:
        """The contract operation ``request`` addresses, or None."""
        action = request.addressing.action or ""
        operation = self.contract.operation_for_action(action)
        if operation is not None:
            return operation.name
        if action.startswith("urn:op:"):
            candidate = action.split(":", 2)[2]
            if self.contract.has_operation(candidate):
                return candidate
        if request.body is not None:
            for candidate_op in self.contract.operations:
                if candidate_op.input.element_name == request.body.name.local:
                    return candidate_op.name
        return None

    def abstract_wsdl(self, indent: bool = True) -> str:
        """The abstract WSDL this VEP exposes for its contract.

        "A VEP... exposes an abstract WSDL for accessing the configured
        services" — the document advertises the VEP's own address, hiding
        the concrete members entirely.
        """
        from repro.wsdl.wsdl_xml import contract_to_wsdl

        return contract_to_wsdl(self.contract, endpoint_address=self.address, indent=indent)

    def synthetic_reply(
        self, request: SoapEnvelope, operation: str, reason: str
    ) -> SoapEnvelope:
        """A synthetic success used by skip policies."""
        from repro.xmlutils import Element

        body = Element(f"{operation}Response")
        body.add("skipped", text="true")
        body.add("reason", text=reason)
        return request.reply(body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualEndpoint {self.name} members={len(self.members)}>"
