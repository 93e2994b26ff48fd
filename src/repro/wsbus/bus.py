"""The wsBus intermediary.

"wsBus can be deployed either as a gateway to a Process Orchestration
Engine or it can act as a transparent HTTP Proxy. In the first case the
Process Orchestration Engine should be configured to explicitly direct
service calls to the virtual endpoints configured in wsBus and the
la[t]ter routes request messages to the real services."

- :meth:`WsBus.create_vep` + addressing the returned VEP address is the
  gateway deployment;
- :meth:`WsBus.deploy_as_proxy` takes over an existing service address so
  unmodified clients transparently go through the bus.
"""

from __future__ import annotations

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.observability.sampling import TracingService
from repro.observability.slo import SloService
from repro.observability.trace_context import start_hop_span
from repro.policy import PolicyRepository
from repro.resilience import Bulkhead, ResilienceService
from repro.services import Invoker, ServiceRegistry
from repro.simulation import Environment, RandomSource
from repro.soap import SoapFaultError
from repro.traffic import TrafficService
from repro.transport import LatencyModel, Network
from repro.wsbus.adaptation import AdaptationManager
from repro.wsbus.monitoring import BusMonitoringService
from repro.wsbus.pipeline import MessagePipeline, SendAttempt, compose
from repro.wsbus.qos import QoSMeasurementService
from repro.wsbus.retry import DeadLetterQueue, RetryQueue
from repro.wsbus.selection import SelectionService
from repro.wsbus.vep import VirtualEndpoint
from repro.wsdl import ServiceContract

__all__ = ["WsBus"]


class WsBus:
    """The deployable messaging intermediary hosting Virtual End Points."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        repository: PolicyRepository | None = None,
        registry: ServiceRegistry | None = None,
        random_source: RandomSource | None = None,
        process_enforcement=None,
        base_address: str = "http://wsbus",
        member_timeout: float | None = 10.0,
        qos_window: int = 500,
        colocated_with_clients: bool = False,
        tracer=None,
        metrics=None,
        name: str = "wsbus",
        mediation_capacity: int | None = None,
    ) -> None:
        self.env = env
        self.network = network
        self.repository = repository if repository is not None else PolicyRepository()
        self.registry = registry
        #: Display name; distinguishes instances in a federated fleet.
        self.name = name
        self.base_address = base_address
        self.member_timeout = member_timeout
        #: Observability hooks; the no-op defaults cost one branch per site.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer.bind_clock(env)
        #: The paper's client-side deployment: "JMeter stress tool (acting
        #: as the client) and wsBus were deployed at a Windows XP laptop" —
        #: the client→bus hop is loopback, not LAN. When set, VEP endpoints
        #: get a near-zero latency override.
        self.colocated_with_clients = colocated_with_clients

        self.invoker = Invoker(env, network, caller="wsbus", default_timeout=member_timeout)
        self.qos = QoSMeasurementService(window=qos_window)
        self.qos.attach_to_invoker(self.invoker)
        #: Policy-driven protection machinery (circuit breakers, bulkheads,
        #: adaptive timeouts, load shedding); inert until resilience
        #: policies are loaded into the repository.
        self.resilience = ResilienceService(
            env, self.qos, self.repository, tracer=self.tracer, metrics=self.metrics
        )
        self.resilience.attach_to_invoker(self.invoker)
        self.selection = SelectionService(
            self.qos, random_source, metrics=self.metrics, resilience=self.resilience
        )
        self.monitoring = BusMonitoringService(
            env, self.repository, self.qos, tracer=self.tracer, metrics=self.metrics
        )
        self.dead_letters = DeadLetterQueue()
        self.retry_queue = RetryQueue(
            env,
            self._send,
            self.dead_letters,
            tracer=self.tracer,
            metrics=self.metrics,
            random_source=random_source,
        )
        self.resilience.retry_queue = self.retry_queue
        self.adaptation = AdaptationManager(
            env,
            self.repository,
            self.selection,
            self.retry_queue,
            self.dead_letters,
            self._send,
            process_enforcement=process_enforcement,
            tracer=self.tracer,
            metrics=self.metrics,
            resilience=self.resilience,
        )
        self.veps: dict[str, VirtualEndpoint] = {}
        #: Event-triggered (non-message) adaptation needs the live VEP map
        #: so selection-strategy switches can find their subjects.
        self.adaptation.veps = self.veps
        #: SLO engine: inert until ``observability.slo`` policies are
        #: loaded *and* a real metrics registry is attached. Its events
        #: flow both to the Monitoring Service's sinks (cross-layer
        #: decision makers) and to the bus's own Adaptation Manager.
        self.slo = SloService(env, self.repository, metrics=self.metrics, tracer=self.tracer)
        self.slo.add_sink(self.adaptation.handle_event)
        self.slo.add_sink(self.monitoring.raise_event)
        self.slo.ensure_started()
        #: Policy-driven trace sampling: inert until an
        #: ``observability.tracing`` policy is loaded (record-everything
        #: default). The network is handed the tracer so the service-side
        #: legs of mediated calls appear in the same trace.
        self.tracing = TracingService(self.tracer, self.repository)
        if self.tracer.enabled:
            network.tracer = self.tracer
        #: Policy-driven traffic shaping (response cache, idempotency
        #: keys, load leveling); inert until ``traffic.configure``
        #: policies are loaded. Subscribed to the Monitoring Service's
        #: event stream (which SLO events also flow through, above) so
        #: cache invalidation is event-driven.
        self.traffic = TrafficService(
            env, self.repository, tracer=self.tracer, metrics=self.metrics
        )
        self.monitoring.add_sink(self.traffic.handle_event)
        #: Per-message mediation processing cost applied inside each VEP;
        #: calibrated so mediation adds roughly the paper's ~10% RTT.
        self.mediation_overhead = LatencyModel(
            base_seconds=0.0006, per_kb_seconds=0.00004, jitter_fraction=0.1
        )
        self._overhead_rng = (random_source or RandomSource()).stream("wsbus.mediation")
        #: Optional bound on concurrent mediations across this bus's VEPs
        #: (the capacity one instance can sustain): a slot is held for the
        #: full VEP handling of one request and arrivals beyond the bound
        #: wait in FIFO order. This is the resource a federated fleet
        #: shards — N buses bring N times the slots.
        self.mediation_capacity = mediation_capacity
        if mediation_capacity is not None and not mediation_capacity >= 1:
            raise ValueError(f"mediation capacity must be at least 1: {mediation_capacity}")
        self._gate = (
            Bulkhead(f"bus:{name}", env, mediation_capacity, max_queue=float("inf"))
            if mediation_capacity is not None
            else None
        )
        # Whatever flips a tier's presence (a repository load/unload, a
        # fault-time ``apply_action``, a refresh by hand) ends in that
        # service's refresh, which recomposes the chains below.
        self.resilience.on_refresh = self.traffic.on_refresh = self.slo.on_refresh = self._compose
        self._compose()

    # -- the mediation path: one chain per VEP, one per delivery attempt -------------

    def _compose(self) -> None:
        """(Re)build the send chain and every deployed VEP's chain.

        Each list names every stage that can stand in the chain, outermost
        first; a factory returns None where its tier does not cover the
        subject, and that stage is then absent — not skipped per message.
        Requests in flight finish on the chain they started on.
        """
        self._deliver = compose(
            [
                self.resilience.breaker_stage(),
                self.resilience.bulkhead_stage(),
                self.resilience.timeout_stage(),
                self._send_stage(),
            ],
            self._invoke,
        )
        for vep in self.veps.values():
            endpoint = self.network.endpoint(vep.address)
            if endpoint is not None:
                endpoint.handler = self._vep_chain(vep)

    def _vep_chain(self, vep: VirtualEndpoint):
        """``vep``'s handler: its mediation core behind the stages that cover it."""
        return compose(
            [
                self._mediate_stage(),
                self.traffic.cache_stage(vep),
                self.traffic.idempotency_stage(vep),
                self.traffic.leveling_stage(vep),
                self.resilience.admission_stage(vep),
                self._handle_stage(vep),
            ],
            vep.handle,
        )

    def _mediate_stage(self):
        """The mediation-capacity gate; absent on an unbounded bus.

        When tracing is on the whole gated pass runs under a
        ``wsbus.mediate`` span whose self-time (everything not covered by
        the child ``vep.handle`` span) is the admission-queue wait — the
        quantity trace analytics attributes as *queue-wait*.
        """
        gate = self._gate
        if gate is None:
            return None
        env, tracing = self.env, self.tracer.enabled

        def mediate(envelope, proceed):
            span = None
            if tracing:
                span, envelope = start_hop_span(
                    self.tracer, "wsbus.mediate", envelope, {"bus": self.name}
                )
            queued_at = env.now
            slot = gate.try_acquire()
            if slot is not None:
                yield slot
            self.metrics.histogram("wsbus.mediation.queue_seconds").observe(
                env.now - queued_at
            )
            if span is not None:
                span.set_attribute("queue_seconds", round(env.now - queued_at, 9))
            try:
                return (yield from proceed(envelope))
            finally:
                gate.release()
                if span is not None:
                    span.end()

        return mediate

    def _handle_stage(self, vep: VirtualEndpoint):
        """The ``vep.handle`` span and metrics of one mediation pass; absent
        when the bus has neither a tracer nor a metrics registry.

        Innermost by construction: it hands the mediation core the span
        the pass runs under, so selection, pipeline modules, recovery and
        retries nest below it.
        """
        env, metrics, tracing = self.env, self.metrics, self.tracer.enabled
        if not tracing and not metrics.enabled:
            return None

        def handle(request, proceed):
            span = None
            if tracing:
                attributes = {"vep": vep.name, "strategy": vep.selection_strategy}
                if self.adaptation.owner_label is not None:
                    attributes["bus"] = self.adaptation.owner_label
                span, request = start_hop_span(self.tracer, "vep.handle", request, attributes)
            started = env.now
            try:
                reply = yield from proceed(request, span)
            except BaseException as error:
                if span is not None:
                    span.end(status=f"error:{type(error).__name__}")
                raise
            metrics.histogram("wsbus.vep.handle.seconds").observe(env.now - started)
            metrics.counter("wsbus.vep.requests").inc()
            if reply.is_fault:
                metrics.counter("wsbus.vep.faults").inc()
            if span is not None:
                span.end(status=f"fault:{reply.fault.code.value}" if reply.is_fault else None)
            return reply

        return handle

    def _send_stage(self):
        """The ``wsbus.send`` span, metrics and SLO feed of one delivery
        attempt; absent when the bus has neither a tracer nor a metrics
        registry.

        The span correlates on the *original* envelope (the re-routed copy
        carries a fresh message ID) so every attempt for one request joins
        the same correlated trace.
        """
        env, metrics, tracing = self.env, self.metrics, self.tracer.enabled
        if not tracing and not metrics.enabled:
            return None
        record = self.slo.record if self.slo.active else None

        def send(attempt, proceed):
            span = None
            ids = (None, None, None)
            if tracing:
                span, attempt.outbound = start_hop_span(
                    self.tracer,
                    "wsbus.send",
                    attempt.original,
                    {"target": attempt.target, "operation": attempt.operation},
                    carrier=attempt.outbound,
                )
                ids = (span.trace_id, span.correlation_id, span.span_id)
            started = env.now
            metrics.counter("wsbus.send.attempts").inc()
            failure = None
            try:
                response = yield from proceed(attempt)
            except SoapFaultError as error:
                failure = error
                metrics.counter("wsbus.send.failures").inc()
            else:
                metrics.histogram("wsbus.send.seconds").observe(env.now - started)
            if record is not None:
                record(attempt.target, env.now - started, failure is None, *ids)
            if span is not None:
                span.end(
                    status=None if failure is None else f"fault:{failure.fault.code.value}"
                )
            if failure is not None:
                raise failure
            return response

        return send

    # -- outbound sending (shared by VEPs, retry queue, adaptation manager) --------

    def _send(self, envelope, operation: str, target: str, timeout: float | None = None):
        """One delivery attempt to a concrete member service."""
        outbound = envelope
        if envelope.addressing.to != target:
            outbound = envelope.copy()
            outbound.addressing = envelope.addressing.retargeted(target)
        return self._deliver(
            SendAttempt(
                envelope,
                outbound,
                operation,
                target,
                timeout if timeout is not None else self.member_timeout,
            )
        )

    def _invoke(self, attempt: SendAttempt):
        """The send chain's core: hand the attempt to the invoker."""
        return self.invoker.send(
            attempt.outbound, operation=attempt.operation, timeout=attempt.timeout
        )

    # -- VEP management --------------------------------------------------------------

    def create_vep(
        self,
        name: str,
        contract: ServiceContract,
        members: list[str] | None = None,
        selection_strategy: str = "round_robin",
        invocation_timeout: float | None = None,
        broadcast: bool = False,
        pipeline: MessagePipeline | None = None,
        address: str | None = None,
        from_registry: bool = False,
    ) -> VirtualEndpoint:
        """Create and deploy a VEP (gateway deployment)."""
        if name in self.veps:
            raise ValueError(f"VEP {name!r} already exists")
        vep = VirtualEndpoint(
            name=name,
            contract=contract,
            env=self.env,
            sender=self._send,
            selection=self.selection,
            monitoring=self.monitoring,
            adaptation=self.adaptation,
            members=members,
            selection_strategy=selection_strategy,
            invocation_timeout=(
                invocation_timeout if invocation_timeout is not None else self.member_timeout
            ),
            broadcast=broadcast,
            registry=self.registry,
            pipeline=pipeline,
            mediation_overhead=self.mediation_overhead,
            overhead_rng=self._overhead_rng,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        if from_registry:
            vep.refresh_members_from_registry()
        for member in vep.members:
            self.slo.register_endpoint(member, contract.service_type)
        vep.address = address or f"{self.base_address}/{name}"
        endpoint = self.network.register(vep.address, self._vep_chain(vep))
        if self.colocated_with_clients:
            endpoint.latency = LatencyModel(
                base_seconds=0.0001, per_kb_seconds=0.00001, jitter_fraction=0.05
            )
        self.veps[name] = vep
        return vep

    def vep(self, name: str) -> VirtualEndpoint | None:
        return self.veps.get(name)

    def remove_vep(self, name: str) -> None:
        vep = self.veps.pop(name, None)
        if vep is not None and vep.address is not None:
            self.network.unregister(vep.address)

    # -- transparent proxy deployment ---------------------------------------------------

    def deploy_as_proxy(
        self,
        name: str,
        contract: ServiceContract,
        address: str,
        extra_members: list[str] | None = None,
        **vep_kwargs,
    ) -> VirtualEndpoint:
        """Interpose a VEP at an existing service address.

        The original endpoint is *relocated* to ``<address>#origin`` —
        the same :class:`~repro.transport.NetworkEndpoint` object, keeping
        its availability/delay state and its identity for fault injectors
        that already hold it — and becomes the VEP's first member; clients
        keep using ``address`` unmodified (the transparent HTTP proxy
        deployment). Fault injection aimed at the proxied address *after*
        deployment resolves through the VEP to the relocated origin (see
        :meth:`~repro.transport.Network.fault_injection_target`), so the
        backend genuinely shares its pre-proxy fate while the proxy keeps
        mediating.
        """
        if self.network.endpoint(address) is None:
            raise ValueError(f"no service to proxy at {address!r}")
        origin_address = f"{address}#origin"
        self.network.relocate(address, origin_address)
        members = [origin_address] + list(extra_members or ())
        vep = self.create_vep(
            name, contract, members=members, address=address, **vep_kwargs
        )
        front = self.network.endpoint(address)
        if front is not None:
            front.fault_target = origin_address
        return vep

    # -- gateway deployment ---------------------------------------------------------------

    def bind_engine(self, engine) -> None:
        """Gateway deployment: route the engine's abstract invokes via VEPs.

        "wsBus can be deployed either as a gateway to a Process
        Orchestration Engine... the Process Orchestration Engine should be
        configured to explicitly direct service calls to the virtual
        endpoints configured in wsBus." After binding, any Invoke that
        names a ``service_type`` for which a VEP exists resolves to that
        VEP's address; other types fall back to the engine's registry.
        """
        previous_binder = engine.binder

        def binder(service_type: str, instance):
            for vep in self.veps.values():
                if vep.contract.service_type == service_type:
                    return vep.address
            if previous_binder is not None:
                return previous_binder(service_type, instance)
            return None

        engine.binder = binder

    # -- dead-letter replay -------------------------------------------------------------

    def replay_dead_letters(self, entries=None, policy=None):
        """Re-enqueue dead letters for redelivery with a fresh budget.

        ``entries`` selects which dead letters to revive (default: all);
        ``policy`` overrides the :class:`~repro.policy.actions.RetryAction`
        governing the fresh attempts. Returns the completion events, one
        per replayed message.
        """
        return self.dead_letters.replay(self.retry_queue, entries=entries, policy=policy)

    # -- reporting ---------------------------------------------------------------------

    def stats_summary(self) -> dict[str, dict]:
        """Per-VEP and queue statistics for experiment reports."""
        summary = {
            "veps": {name: vars(vep.stats) for name, vep in self.veps.items()},
            "retry_queue": {
                "attempted": self.retry_queue.redeliveries_attempted,
                "succeeded": self.retry_queue.redeliveries_succeeded,
                "depth": self.retry_queue.depth,
                "replayed": self.dead_letters.replayed,
            },
            "dead_letters": len(self.dead_letters),
        }
        gate = self._gate
        if gate is not None:
            summary["mediation_gate"] = {
                "capacity": gate.max_concurrent,
                "inflight": gate.in_flight,
                "waiting": gate.queue_depth,
                "peak_waiting": gate.peak_queue_depth,
                "admitted": gate.admitted_total,
            }
        if self.resilience.active:
            summary["resilience"] = self.resilience.summary()
        if self.traffic.active:
            summary["traffic"] = self.traffic.summary()
        if self.slo.active:
            summary["slo"] = self.slo.summary()
        if self.metrics.enabled:
            summary["metrics"] = self.metrics.snapshot()
        return summary
