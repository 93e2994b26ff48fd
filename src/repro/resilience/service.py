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

The machinery stands in the message path as stages the bus composes
(:func:`repro.wsbus.pipeline.compose`); a stage whose rules are not loaded
is absent, so with no resilience policies loaded
(:attr:`ResilienceService.active` is False) the bus message path is
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
from repro.resilience.breaker import BreakerTransition, CircuitBreaker
from repro.resilience.bulkhead import Bulkhead
from repro.resilience.shedding import LoadShedder
from repro.resilience.timeouts import adaptive_timeout
from repro.soap import FaultCode, SoapFault, SoapFaultError

__all__ = ["ResilienceService"]

#: metric name per breaker target state
_TRANSITION_COUNTERS = {
    "open": "wsbus.resilience.breaker.opened",
    "closed": "wsbus.resilience.breaker.closed",
    "half_open": "wsbus.resilience.breaker.half_opened",
}


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
        #: Called after every refresh: the hosting bus recomposes its chains.
        self.on_refresh = lambda: None
        repository.router.subscribe(self.refresh_from_policies, ("changed",))
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
        rule configures them any more (VEP bulkheads when the bus
        recomposes that VEP's chain, see :meth:`admission_stage`).
        """
        scan = self.repository.configuration
        self._breaker_rules, self._bulkhead_rules, self._timeout_rules = (
            [rule for rule in self._dynamic_rules if isinstance(rule[1], kind)]
            + [(policy.scope, action) for policy, action in scan(kind)]
            for kind in (CircuitBreakerAction, BulkheadAction, AdaptiveTimeoutAction)
        )
        # Shedding guards the whole bus: only unscoped policies apply,
        # first by priority wins.
        self._static_shedding = next(
            (action for policy, action in scan(LoadSheddingAction) if policy.scope.matches()),
            None,
        )
        self._reconfigure_live()
        self.on_refresh()

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
        for endpoint, breaker in list(self._breakers.items()):
            config = self._match(self._breaker_rules, endpoint=endpoint)
            if config is None:
                del self._breakers[endpoint]
            elif config is not breaker.config:
                breaker.reconfigure(config)
        for address in list(self._endpoint_bulkheads):
            self._bulkhead(self._endpoint_bulkheads, "endpoint", address, endpoint=address)

    @staticmethod
    def _match(rules, applies_to=None, **subject):
        for scope, action in rules:
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
            config = self._match(self._breaker_rules, endpoint=endpoint)
            if config is None:
                return None
            breaker = CircuitBreaker(endpoint, config, self._clock)
            breaker.router.subscribe(self._record_transition)
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
        invoker.router.subscribe(self.observe, ("record",))

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
        config = self._match(self._timeout_rules, endpoint=endpoint)
        if config is None:
            return fallback
        return adaptive_timeout(self.qos, endpoint, config, fallback)

    # -- bulkheads ---------------------------------------------------------------------

    def _bulkhead(self, live: dict, applies_to: str, key: str, **subject) -> Bulkhead | None:
        """The bulkhead of one partition under the current rules: kept with
        its slots and queue, limits updated in place, created on first
        demand, dropped when no rule configures it any more."""
        config = self._match(self._bulkhead_rules, applies_to, **subject)
        if config is None:
            live.pop(key, None)
            return None
        bulkhead = live.get(key)
        if bulkhead is None:
            bulkhead = live[key] = Bulkhead(
                f"{applies_to}:{key}", self.env, config.max_concurrent, config.max_queue
            )
        bulkhead.max_concurrent, bulkhead.max_queue = config.max_concurrent, config.max_queue
        return bulkhead

    def endpoint_bulkhead(self, endpoint: str) -> Bulkhead | None:
        bulkhead = self._endpoint_bulkheads.get(endpoint)
        if bulkhead is None:
            bulkhead = self._bulkhead(
                self._endpoint_bulkheads, "endpoint", endpoint, endpoint=endpoint
            )
        return bulkhead

    # -- the stage in front of a VEP: shedding + the VEP's bulkhead -----------------------

    def admission_stage(self, vep):
        """Admission control in front of ``vep``; None when neither shedding
        nor a VEP bulkhead covers it. Under overload the bus sheds the
        request with a retryable fault (or parks it briefly in the VEP
        bulkhead queue) *before* spending any mediation effort on it.
        """
        bulkhead = self._bulkhead(
            self._vep_bulkheads, "vep", vep.name, service_type=vep.contract.service_type
        )
        shedder = self.shedder
        if shedder is None and bulkhead is None:
            return None
        stats, metrics = vep.stats, self.metrics

        def admission(request, proceed):
            holds = []  # released exactly once, however the mediation ends
            try:
                wait = None
                try:
                    if shedder is not None:
                        fault = shedder.try_admit()
                        if fault is not None:
                            metrics.counter("wsbus.resilience.shed").inc()
                            raise SoapFaultError(fault)
                        holds.append(shedder)
                    if bulkhead is not None:
                        try:
                            wait = bulkhead.try_acquire()
                        except SoapFaultError:
                            metrics.counter("wsbus.resilience.bulkhead.rejected").inc()
                            raise
                        holds.append(bulkhead)
                except SoapFaultError as error:
                    stats.shed += 1
                    metrics.counter("wsbus.vep.shed").inc()
                    return request.reply_fault(error.fault)
                # The bulkhead wait lives inside the outer try so a failed
                # wait event still releases the admission holds.
                if wait is not None:
                    yield wait
                return (yield from proceed(request))
            finally:
                for hold in holds:
                    hold.release()

        return admission

    # -- the stages around one delivery attempt ------------------------------------------
    #
    # Order matters: the breaker fails fast *before* the bulkhead so a
    # quarantined endpoint costs neither time nor a concurrency slot; the
    # adaptive timeout is derived last, when the request is actually about
    # to go out.

    def breaker_stage(self):
        if not self._breaker_rules:
            return None

        def breaker(attempt, proceed):
            rejection = self.breaker_rejection(attempt.target)
            if rejection is not None:
                raise SoapFaultError(rejection)
            return (yield from proceed(attempt))

        return breaker

    def bulkhead_stage(self):
        if not any(action.applies_to == "endpoint" for _scope, action in self._bulkhead_rules):
            return None

        def bulkhead(attempt, proceed):
            partition = self.endpoint_bulkhead(attempt.target)
            if partition is None:
                return (yield from proceed(attempt))
            try:
                waiter = partition.try_acquire()
            except SoapFaultError:
                self.metrics.counter("wsbus.resilience.bulkhead.rejected").inc()
                raise
            if waiter is not None:
                yield waiter
            try:
                return (yield from proceed(attempt))
            finally:
                partition.release()

        return bulkhead

    def timeout_stage(self):
        if not self._timeout_rules:
            return None

        def adaptive_timeout(attempt, proceed):
            attempt.timeout = self.timeout_for(attempt.target, attempt.timeout)
            return (yield from proceed(attempt))

        return adaptive_timeout

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
