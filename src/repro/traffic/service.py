"""The Traffic Service: policy-driven traffic shaping for wsBus.

Reads the traffic-shaping vocabulary of WS-Policy4MASC
(:class:`~repro.policy.actions.IdempotencyAction`,
:class:`~repro.policy.actions.ResponseCacheAction`,
:class:`~repro.policy.actions.LoadLevelingAction`) out of the policy
repository and serves scope-matched configuration to the VEPs: which
operations get idempotency keys stamped, which get a response cache, and
which VEPs level their load.

Configuration policies use the conventional ``traffic.configure`` trigger
(the same load-time-scan convention as ``resilience.configure`` and
``observability.slo``) and are matched through their
:class:`~repro.policy.model.PolicyScope`. The service also subscribes to
the bus's MASC event stream so a policy's ``invalidate_on`` patterns turn
adaptation/SLO/domain events into cache flushes.

The tier stands in the mediation path as stages the bus composes in front
of a VEP (:func:`repro.wsbus.pipeline.compose`); a stage no rule covers
is absent, so with no traffic policies loaded
(:attr:`TrafficService.active` is False) the bus message path is
byte-for-byte the pre-traffic one — the ablation switch is purely which
policies are loaded.
"""

from __future__ import annotations

from repro.observability import NULL_METRICS, NULL_TRACER, correlation_id_for
from repro.policy.actions import (
    IdempotencyAction,
    LoadLevelingAction,
    ResponseCacheAction,
)
from repro.soap import SoapFaultError
from repro.traffic.cache import ResponseCache
from repro.traffic.idempotency import stamp_idempotency_key
from repro.traffic.leveling import LoadLeveler

__all__ = ["TrafficService"]


class TrafficService:
    """Materializes and serves the bus's traffic-shaping configuration."""

    def __init__(self, env, repository, tracer=None, metrics=None) -> None:
        self.env = env
        self.repository = repository
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._clock = lambda: env.now
        self._idempotency_rules: list[tuple] = []
        self._cache_rules: list[tuple] = []
        self._leveling_rules: list[tuple] = []
        #: Live caches keyed by their (frozen) configuring action: entries
        #: survive policy reloads that keep the action unchanged.
        self._caches: dict[ResponseCacheAction, ResponseCache] = {}
        #: Live levelers by VEP name; like the caches they survive reloads.
        self._levelers: dict[str, LoadLeveler] = {}
        #: Called after every refresh: the hosting bus recomposes its chains.
        self.on_refresh = lambda: None
        repository.router.subscribe(self.refresh_from_policies, ("changed",))
        self.refresh_from_policies()

    # -- configuration ------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when any traffic-shaping behavior is configured."""
        return bool(
            self._idempotency_rules or self._cache_rules or self._leveling_rules
        )

    def refresh_from_policies(self) -> None:
        """Re-scan the repository for ``traffic.configure`` policies
        (runs on every repository ``load``/``unload``)."""
        self._idempotency_rules, self._cache_rules, self._leveling_rules = (
            [(policy.scope, action) for policy, action in self.repository.configuration(kind)]
            for kind in (IdempotencyAction, ResponseCacheAction, LoadLevelingAction)
        )
        # Caches for actions no longer configured are dropped; levelers
        # follow when the bus recomposes each VEP's chain.
        live = {scope_action[1] for scope_action in self._cache_rules}
        for config in list(self._caches):
            if config not in live:
                del self._caches[config]
        self.on_refresh()

    @staticmethod
    def _match(rules, **subject):
        for scope, action in rules:
            if scope.matches(**subject):
                return action
        return None

    def cache_for(self, service_type: str, operation: str) -> ResponseCache | None:
        config = self._match(
            self._cache_rules, service_type=service_type, operation=operation
        )
        if config is None:
            return None
        cache = self._caches.get(config)
        if cache is None:
            cache = self._caches[config] = ResponseCache(config, self._clock)
        return cache

    # -- the stages this tier stands in front of a VEP ----------------------------
    # (resolved when the bus composes the VEP's chain; None where no rule covers it)

    def cache_stage(self, vep):
        """Cache-aside for the cached operations of ``vep``'s contract: a
        hit never touches admission control or the mediation core."""
        service_type = vep.contract.service_type
        caches = {
            operation.name: cache
            for operation in vep.contract.operations
            if (cache := self.cache_for(service_type, operation.name)) is not None
        }
        if not caches:
            return None
        stats, metrics, tracer = vep.stats, self.metrics, self.tracer

        def cache(request, proceed):
            operation = vep.operation_of(request)
            store = caches.get(operation)
            if store is None:
                return (yield from proceed(request))
            key = store.key_for(service_type, operation, request)
            cached_body = store.get(key)
            if cached_body is not None:
                stats.requests += 1
                stats.successes += 1
                stats.cache_hits += 1
                metrics.counter("wsbus.traffic.cache.hits").inc()
                if tracer.enabled:
                    tracer.start_span(
                        "traffic.cache_hit",
                        correlation_id=correlation_id_for(request),
                        attributes={"vep": vep.name, "operation": operation},
                    ).end()
                return request.reply(cached_body)
            metrics.counter("wsbus.traffic.cache.misses").inc()
            reply = yield from proceed(request)
            if not reply.is_fault and reply.body is not None:
                store.put(key, reply.body)
            return reply

        return cache

    def idempotency_stage(self, vep):
        """Stamp requests for the keyed operations of ``vep``'s contract."""
        keyed = {
            operation.name
            for operation in vep.contract.operations
            if self._match(
                self._idempotency_rules,
                service_type=vep.contract.service_type,
                operation=operation.name,
            )
        }
        if not keyed:
            return None
        metrics = self.metrics

        def idempotency(request, proceed):
            if vep.operation_of(request) in keyed:
                # Stamp the key onto a header-shallow copy (never mutate
                # the client's own envelope). copy()/retargeted() preserve
                # headers, so every redelivery path downstream — retry,
                # dead-letter replay, broadcast, substitution — carries
                # the same key to the service container's dedupe store.
                stamped = request.copy()
                if stamp_idempotency_key(stamped) is not None:
                    request = stamped
                    metrics.counter("wsbus.traffic.idempotency.stamped").inc()
            return (yield from proceed(request))

        return idempotency

    def leveling_stage(self, vep):
        """Queue-based load leveling in front of ``vep``: a leveled request
        waits its turn *before* occupying a shedder or bulkhead slot.

        The VEP's leveler follows the hot-reload rule: kept (arrival clock,
        queue, counters) across reloads, reconfigured in place when its
        rule changed, dropped when no rule configures it any more.
        """
        config = self._match(
            self._leveling_rules, endpoint=vep.name, service_type=vep.contract.service_type
        )
        if config is None:
            self._levelers.pop(vep.name, None)
            return None
        leveler = self._levelers.get(vep.name)
        if leveler is None:
            leveler = self._levelers[vep.name] = LoadLeveler(f"vep:{vep.name}", self.env, config)
        leveler.config = config
        stats, metrics = vep.stats, self.metrics

        def leveling(request, proceed):
            try:
                wait = leveler.admit()
            except SoapFaultError as error:
                stats.throttled += 1
                metrics.counter("wsbus.traffic.throttled").inc()
                return request.reply_fault(error.fault)
            if wait is not None:
                stats.leveled += 1
                metrics.counter("wsbus.traffic.leveled").inc()
                try:
                    yield wait
                finally:
                    leveler.release()
            return (yield from proceed(request))

        return leveling

    # -- event-driven invalidation -------------------------------------------------

    def handle_event(self, event) -> None:
        """MASC event sink: flush caches whose patterns match the event."""
        if not self._caches:
            return
        name = event.name
        flushed = 0
        for cache in self._caches.values():
            if cache.matches_event(name):
                flushed += cache.invalidate()
        if flushed:
            if self.metrics.enabled:
                self.metrics.counter("wsbus.traffic.cache.invalidated").inc(flushed)
            if self.tracer.enabled:
                span = self.tracer.start_span(
                    "traffic.cache.invalidate",
                    attributes={"event": name, "entries": str(flushed)},
                )
                span.end()

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> dict:
        """Counters for ``bus.stats_summary()``."""
        summary: dict = {}
        if self._caches:
            summary["caches"] = {
                config.describe(): cache.stats()
                for config, cache in self._caches.items()
            }
        levelers = {leveler.key: leveler.stats() for leveler in self._levelers.values()}
        if levelers:
            summary["leveling"] = levelers
        summary["idempotency_rules"] = len(self._idempotency_rules)
        return summary
