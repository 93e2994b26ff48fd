"""The Resilience Service: policy-driven protection machinery for wsBus.

Reads the resilience configuration vocabulary of WS-Policy4MASC
(:class:`~repro.policy.actions.CircuitBreakerAction`,
:class:`~repro.policy.actions.BulkheadAction`,
:class:`~repro.policy.actions.AdaptiveTimeoutAction`,
:class:`~repro.policy.actions.LoadSheddingAction`) out of the policy
repository and materializes the standing machinery: per-endpoint circuit
breakers fed from the invoker's observation stream, per-endpoint /
per-VEP bulkheads, adaptive timeout lookups against the QoS Measurement
Service, and bus-wide load shedding.

Configuration policies use the conventional ``resilience.configure``
trigger and are matched against endpoints/VEPs through their
:class:`~repro.policy.model.PolicyScope` — the same scope semantics as
every other MASC policy. The Adaptation Manager can also (re)apply a
resilience action at fault time via :meth:`ResilienceService.apply_action`
(dynamic rules take precedence over statically configured ones).

With no resilience policies loaded the service is inert
(:attr:`ResilienceService.active` is False) and the bus message path is
byte-for-byte the pre-resilience one — the ablation switch is purely
which policies are loaded.
"""

from __future__ import annotations

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.policy.actions import (
    AdaptiveTimeoutAction,
    BulkheadAction,
    CircuitBreakerAction,
    LoadSheddingAction,
    ResilienceAction,
)
from repro.resilience.breaker import BreakerState, BreakerTransition, CircuitBreaker
from repro.resilience.bulkhead import Bulkhead
from repro.resilience.shedding import LoadShedder
from repro.resilience.timeouts import adaptive_timeout
from repro.soap import FaultCode, SoapFault, SoapFaultError

__all__ = ["Admission", "ResilienceService"]

#: metric name per breaker target state
_TRANSITION_COUNTERS = {
    "open": "wsbus.resilience.breaker.opened",
    "closed": "wsbus.resilience.breaker.closed",
    "half_open": "wsbus.resilience.breaker.half_opened",
}


class Admission:
    """Capacity holds granted to one VEP mediation; release exactly once."""

    __slots__ = ("holds", "wait")

    def __init__(self, holds, wait=None) -> None:
        self.holds = holds
        #: Event to yield on before proceeding (bulkhead queue), or None.
        self.wait = wait

    def release(self) -> None:
        for hold in self.holds:
            hold.release()
        self.holds = ()


class ResilienceService:
    """Materializes and serves the bus's resilience configuration."""

    def __init__(self, env, qos, repository, tracer=None, metrics=None) -> None:
        self.env = env
        self.qos = qos
        self.repository = repository
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Wired by the bus after its retry queue exists (shedding input).
        self._retry_queue = None
        self._clock = lambda: env.now
        # Static rules from the repository; dynamic ones enacted at runtime
        # (via apply_action) are kept separately and always win.
        self._breaker_rules: list[tuple] = []
        self._bulkhead_rules: list[tuple] = []
        self._timeout_rules: list[tuple] = []
        self._dynamic_rules: list[tuple] = []
        self._static_shedding: LoadSheddingAction | None = None
        self._dynamic_shedding: LoadSheddingAction | None = None
        # Live machinery (created on first use, state survives reconfigures).
        self._breakers: dict[str, CircuitBreaker] = {}
        self._endpoint_bulkheads: dict[str, Bulkhead] = {}
        self._vep_bulkheads: dict[str, Bulkhead] = {}
        self.shedder: LoadShedder | None = None
        #: Every breaker transition on this bus, in simulation order.
        self.transitions: list[BreakerTransition] = []
        self.fail_fast_total = 0
        repository.subscribe(self.refresh_from_policies)
        self.refresh_from_policies()

    # -- configuration ----------------------------------------------------------------

    @property
    def retry_queue(self):
        return self._retry_queue

    @retry_queue.setter
    def retry_queue(self, queue) -> None:
        self._retry_queue = queue
        if self.shedder is not None:
            self.shedder.retry_queue = queue

    @property
    def active(self) -> bool:
        """True when any resilience behavior is configured."""
        return bool(
            self._breaker_rules
            or self._bulkhead_rules
            or self._timeout_rules
            or self.shedder is not None
        )

    def refresh_from_policies(self) -> None:
        """Re-scan the repository for ``resilience.configure`` policies.

        Runs on every repository ``load``/``unload`` (and after a dynamic
        :meth:`apply_action`). Live breakers and bulkheads keep their
        runtime state; their thresholds are updated in place when the
        matching configuration changed, and they are dropped when no
        rule configures them any more.
        """
        scan = self.repository.configuration
        self._breaker_rules, self._bulkhead_rules, self._timeout_rules = (
            self._dynamic_rules + [(policy.scope, action) for policy, action in scan(kind)]
            for kind in (CircuitBreakerAction, BulkheadAction, AdaptiveTimeoutAction)
        )
        # Shedding guards the whole bus: only unscoped policies apply,
        # first by priority wins.
        self._static_shedding = next(
            (action for policy, action in scan(LoadSheddingAction) if policy.scope.matches()),
            None,
        )
        self._reconfigure_live()

    def apply_action(self, action: ResilienceAction, scope=None) -> bool:
        """Enact one resilience action at runtime (adaptation pathway).

        Dynamic rules are matched before static ones, so a corrective
        policy can tighten thresholds mid-run without a policy reload.
        """
        if isinstance(action, LoadSheddingAction):
            self._dynamic_shedding = action
        elif isinstance(
            action, (CircuitBreakerAction, BulkheadAction, AdaptiveTimeoutAction)
        ):
            from repro.policy.model import PolicyScope

            self._dynamic_rules.insert(0, (scope if scope is not None else PolicyScope(), action))
        else:
            return False
        self.refresh_from_policies()
        return True

    def _reconfigure_live(self) -> None:
        shedding = self._dynamic_shedding or self._static_shedding
        if shedding is None:
            self.shedder = None
        elif self.shedder is None:
            self.shedder = LoadShedder(shedding, retry_queue=self.retry_queue)
        else:
            self.shedder.config = shedding
        if self.shedder is not None:
            self.shedder.retry_queue = self.retry_queue
        for endpoint, breaker in list(self._breakers.items()):
            config = self._match(self._breaker_rules, CircuitBreakerAction, endpoint=endpoint)
            if config is None:
                del self._breakers[endpoint]
            elif config is not breaker.config:
                breaker.config = config
        for address, bulkhead in list(self._endpoint_bulkheads.items()):
            config = self._match(
                self._bulkhead_rules, BulkheadAction, endpoint=address, applies_to="endpoint"
            )
            if config is None:
                del self._endpoint_bulkheads[address]
            else:
                bulkhead.max_concurrent = config.max_concurrent
                bulkhead.max_queue = config.max_queue

    @staticmethod
    def _match(rules, action_type, applies_to=None, **subject):
        for scope, action in rules:
            if not isinstance(action, action_type):
                continue
            if applies_to is not None and action.applies_to != applies_to:
                continue
            if scope.matches(**subject):
                return action
        return None

    # -- circuit breakers -------------------------------------------------------------

    def breaker_for(self, endpoint: str) -> CircuitBreaker | None:
        """The breaker guarding ``endpoint``, created on first demand."""
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            config = self._match(self._breaker_rules, CircuitBreakerAction, endpoint=endpoint)
            if config is None:
                return None
            breaker = CircuitBreaker(
                endpoint, config, self._clock, on_transition=self._record_transition
            )
            self._breakers[endpoint] = breaker
        return breaker

    def member_selectable(self, endpoint: str) -> bool:
        """Non-consuming peek for selection: skip evidently-broken members."""
        breaker = self.breaker_for(endpoint)
        return breaker is None or breaker.would_allow()

    def breaker_rejection(self, endpoint: str) -> SoapFault | None:
        """Send-time admission: the fail-fast fault, or None to proceed."""
        breaker = self.breaker_for(endpoint)
        if breaker is None or breaker.allow_request():
            return None
        self.fail_fast_total += 1
        if self.metrics.enabled:
            self.metrics.counter("wsbus.resilience.breaker.fail_fast").inc()
        return SoapFault(
            FaultCode.SERVICE_UNAVAILABLE,
            f"circuit breaker open for {endpoint}",
            source="wsbus-resilience",
        )

    def _record_transition(self, transition: BreakerTransition) -> None:
        self.transitions.append(transition)
        if self.metrics.enabled:
            self.metrics.counter(_TRANSITION_COUNTERS[transition.to_state]).inc()
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "resilience.breaker",
                attributes={"endpoint": transition.endpoint},
            )
            span.add_event(
                "transition",
                from_state=transition.from_state,
                to_state=transition.to_state,
                reason=transition.reason,
            )
            span.end(status=transition.to_state)

    def transition_log(self) -> list[tuple[float, str, str, str]]:
        """(time, endpoint, from, to) per transition — the determinism log."""
        return [
            (t.time, t.endpoint, t.from_state, t.to_state) for t in self.transitions
        ]

    def breaker_states(self) -> dict[str, str]:
        return {address: b.state.value for address, b in sorted(self._breakers.items())}

    # -- outcome feed ------------------------------------------------------------------

    def attach_to_invoker(self, invoker) -> None:
        invoker.add_observer(self.observe)

    def observe(self, record) -> None:
        """Invoker-observer entry point feeding the breakers."""
        if not self._breaker_rules:
            return
        breaker = self.breaker_for(record.target)
        if breaker is None:
            return
        if record.succeeded:
            breaker.record_success()
        elif record.fault_code is not FaultCode.CLIENT:
            # Caller-side faults (malformed requests) say nothing about the
            # endpoint's health and must not trip its breaker.
            breaker.record_failure()

    # -- adaptive timeouts -------------------------------------------------------------

    def timeout_for(self, endpoint: str, fallback: float | None) -> float | None:
        config = self._match(self._timeout_rules, AdaptiveTimeoutAction, endpoint=endpoint)
        if config is None:
            return fallback
        return adaptive_timeout(self.qos, endpoint, config, fallback)

    # -- bulkheads ---------------------------------------------------------------------

    def endpoint_bulkhead(self, endpoint: str) -> Bulkhead | None:
        bulkhead = self._endpoint_bulkheads.get(endpoint)
        if bulkhead is None:
            config = self._match(
                self._bulkhead_rules, BulkheadAction, endpoint=endpoint, applies_to="endpoint"
            )
            if config is None:
                return None
            bulkhead = Bulkhead(
                f"endpoint:{endpoint}", self.env, config.max_concurrent, config.max_queue
            )
            self._endpoint_bulkheads[endpoint] = bulkhead
        return bulkhead

    def vep_bulkhead(self, vep_name: str, service_type: str) -> Bulkhead | None:
        bulkhead = self._vep_bulkheads.get(vep_name)
        if bulkhead is None:
            config = self._match(
                self._bulkhead_rules,
                BulkheadAction,
                service_type=service_type,
                applies_to="vep",
            )
            if config is None:
                return None
            bulkhead = Bulkhead(
                f"vep:{vep_name}", self.env, config.max_concurrent, config.max_queue
            )
            self._vep_bulkheads[vep_name] = bulkhead
        return bulkhead

    # -- bus admission (shedding + VEP bulkhead) ---------------------------------------

    def admit_vep_request(self, vep_name: str, service_type: str) -> Admission:
        """Admit one mediation, or raise its retryable rejection fault."""
        holds = []
        if self.shedder is not None:
            fault = self.shedder.try_admit()
            if fault is not None:
                if self.metrics.enabled:
                    self.metrics.counter("wsbus.resilience.shed").inc()
                raise SoapFaultError(fault)
            holds.append(self.shedder)
        bulkhead = self.vep_bulkhead(vep_name, service_type)
        wait = None
        if bulkhead is not None:
            try:
                wait = bulkhead.try_acquire()
            except SoapFaultError:
                if self.metrics.enabled:
                    self.metrics.counter("wsbus.resilience.bulkhead.rejected").inc()
                for hold in holds:
                    hold.release()
                raise
            holds.append(bulkhead)
        return Admission(holds, wait)

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Counters and states for ``bus.stats_summary()``."""
        bulkheads = {}
        for bulkhead in self._endpoint_bulkheads.values():
            bulkheads[bulkhead.key] = bulkhead.stats()
        for bulkhead in self._vep_bulkheads.values():
            bulkheads[bulkhead.key] = bulkhead.stats()
        return {
            "breakers": self.breaker_states(),
            "breaker_transitions": len(self.transitions),
            "fail_fast": self.fail_fast_total,
            "bulkheads": bulkheads,
            "shedding": self.shedder.stats() if self.shedder is not None else None,
        }

    def open_endpoints(self) -> list[str]:
        return [
            address
            for address, breaker in sorted(self._breakers.items())
            if breaker.state is not BreakerState.CLOSED
        ]
