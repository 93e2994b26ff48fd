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

With no traffic policies loaded the service is inert
(:attr:`TrafficService.active` is False) and the bus message path is
byte-for-byte the pre-traffic one — the ablation switch is purely which
policies are loaded.
"""

from __future__ import annotations

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.policy.actions import (
    IdempotencyAction,
    LoadLevelingAction,
    ResponseCacheAction,
)
from repro.traffic.cache import ResponseCache
from repro.traffic.leveling import LoadLeveler

__all__ = ["TrafficService"]

#: Sentinel distinguishing "no leveler configured" from "not derived yet".
_UNSET = object()


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
        #: Per-VEP levelers; _UNSET until derived, None when unmatched.
        self._levelers: dict[str, LoadLeveler | None] = {}
        repository.subscribe(self.refresh_from_policies)
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
        # Levelers are re-derived lazily against the fresh rules; caches
        # for actions no longer configured are dropped.
        self._levelers.clear()
        live = {scope_action[1] for scope_action in self._cache_rules}
        for config in list(self._caches):
            if config not in live:
                del self._caches[config]

    @staticmethod
    def _match(rules, **subject):
        for scope, action in rules:
            if scope.matches(**subject):
                return action
        return None

    # -- lookups used on the mediation path ---------------------------------------

    def stamps(self, service_type: str, operation: str) -> bool:
        """Should requests for this subject carry an idempotency key?"""
        return (
            self._match(
                self._idempotency_rules,
                service_type=service_type,
                operation=operation,
            )
            is not None
        )

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

    def leveler_for(self, vep_name: str, service_type: str) -> LoadLeveler | None:
        leveler = self._levelers.get(vep_name, _UNSET)
        if leveler is _UNSET:
            config = self._match(
                self._leveling_rules, endpoint=vep_name, service_type=service_type
            )
            leveler = (
                LoadLeveler(f"vep:{vep_name}", self.env, config)
                if config is not None
                else None
            )
            self._levelers[vep_name] = leveler
        return leveler

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
        levelers = {
            leveler.key: leveler.stats()
            for leveler in self._levelers.values()
            if leveler is not None
        }
        if levelers:
            summary["leveling"] = levelers
        summary["idempotency_rules"] = len(self._idempotency_rules)
        return summary
