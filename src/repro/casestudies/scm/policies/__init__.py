"""WS-Policy4MASC documents used by the SCM experiments (Section 3.2).

Each document is the committed ``<name>.xml`` beside this module, whose
leading comment says what it is for. A builder parses that file through
the same parser the deployments use and sets the fields its parameters
name (:func:`repro.casestudies.load_policy_document`).
"""

from __future__ import annotations

from functools import partial

from repro.casestudies import load_policy_document
from repro.policy import AdaptationPolicy, PolicyDocument, PolicyScope, ShardRoutingAction

__all__ = [
    "broadcast_policy_document",
    "federation_policy_document",
    "logging_skip_policy_document",
    "resilience_policy_document",
    "retailer_recovery_policy_document",
    "saga_policy_document",
    "shed_only_policy_document",
    "slo_policy_document",
    "tracing_policy_document",
    "traffic_policy_document",
]

_load = partial(load_policy_document, __name__)


def retailer_recovery_policy_document(
    max_retries: int = 3,
    retry_delay_seconds: float = 2.0,
    substitute_strategy: str = "best_response_time",
    backoff_multiplier: float = 1.0,
    max_delay_seconds: float | None = None,
    jitter_fraction: float = 0.0,
) -> PolicyDocument:
    """``scm-retailer-recovery.xml``: retry with a delay, then fail over."""
    return _load(
        "scm-retailer-recovery",
        {
            "retailer-retry-then-failover": {
                "max_retries": max_retries,
                "delay_seconds": retry_delay_seconds,
                "strategy": substitute_strategy,
                "backoff_multiplier": backoff_multiplier,
                "max_delay_seconds": max_delay_seconds,
                "jitter_fraction": jitter_fraction,
            }
        },
    )


def logging_skip_policy_document() -> PolicyDocument:
    """``scm-logging-skip.xml``: skip failed Logging calls."""
    return _load("scm-logging-skip")


def resilience_policy_document(
    consecutive_failures: int = 3, vep_max_concurrent: int = 32
) -> PolicyDocument:
    """``scm-resilience.xml``: breakers, bulkheads, adaptive timeouts, shedding."""
    return _load(
        "scm-resilience",
        {
            "retailer-endpoint-resilience": {"consecutive_failures": consecutive_failures},
            "retailer-vep-bulkhead": {"max_concurrent": vep_max_concurrent},
        },
    )


def slo_policy_document(
    latency_target_seconds: float | None = None,
    latency_percentile: str = "p99",
    window_seconds: float = 300.0,
    fast_window_seconds: float = 30.0,
    slow_window_seconds: float = 120.0,
    fast_burn_threshold: float = 6.0,
    slow_burn_threshold: float = 2.0,
    evaluation_interval_seconds: float = 5.0,
    min_requests: int = 5,
) -> PolicyDocument:
    """``scm-slo.xml``: the Retailer SLO and its burn-rate reaction."""
    return _load(
        "scm-slo",
        {
            "retailer-availability-slo": {
                "latency_target_seconds": latency_target_seconds,
                "latency_percentile": latency_percentile,
                "window_seconds": window_seconds,
                "fast_window_seconds": fast_window_seconds,
                "slow_window_seconds": slow_window_seconds,
                "fast_burn_threshold": fast_burn_threshold,
                "slow_burn_threshold": slow_burn_threshold,
                "evaluation_interval_seconds": evaluation_interval_seconds,
                "min_requests": min_requests,
            }
        },
    )


def saga_policy_document(
    scope: str | None = None, mode: str = "orchestration"
) -> PolicyDocument:
    """``scm-saga.xml``: compensate purchase sagas once the budget is gone."""
    return _load(
        "scm-saga",
        {"purchase-saga-compensate-on-budget-exhausted": {"scope": scope, "mode": mode}},
    )


def traffic_policy_document(
    cache_operation: str = "getCatalog", rate_per_second: float = 20.0, burst: int = 4
) -> PolicyDocument:
    """``scm-traffic.xml``: idempotency keys, a response cache, load leveling."""
    return _load(
        "scm-traffic",
        {
            "retailer-catalog-cache": {
                "scope": PolicyScope(service_type="Retailer", operation=cache_operation)
            },
            "retailer-load-leveling": {"rate_per_second": rate_per_second, "burst": burst},
        },
    )


def federation_policy_document(
    heartbeat_interval_seconds: float = 0.5,
    suspicion_multiplier: float = 3.0,
    gossip_interval_seconds: float = 2.0,
    gossip_fanout: int = 1,
    lease_seconds: float = 3.0,
    virtual_nodes: int = 32,
    pin_vep_pattern: str | None = None,
    pin_bus: str | None = None,
) -> PolicyDocument:
    """``scm-federation.xml``: fleet tuning, plus a pin of
    ``pin_vep_pattern`` to ``pin_bus`` when both are given."""
    document = _load(
        "scm-federation",
        {
            "fleet-federation-tuning": {
                "heartbeat_interval_seconds": heartbeat_interval_seconds,
                "suspicion_multiplier": suspicion_multiplier,
                "gossip_interval_seconds": gossip_interval_seconds,
                "gossip_fanout": gossip_fanout,
                "lease_seconds": lease_seconds,
                "virtual_nodes": virtual_nodes,
            }
        },
    )
    if pin_vep_pattern is not None and pin_bus is not None:
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="fleet-vep-pinning",
                triggers=("federation.configure",),
                actions=(ShardRoutingAction(bus=pin_bus, vep_pattern=pin_vep_pattern),),
                priority=20,
                adaptation_type="prevention",
            )
        )
    return document


def tracing_policy_document(
    sample_rate: float = 1.0,
    always_sample_faults: bool = True,
    always_sample_slo_violations: bool = True,
) -> PolicyDocument:
    """``scm-tracing.xml``: head-based trace sampling."""
    return _load(
        "scm-tracing",
        {
            "fleet-trace-sampling": {
                "sample_rate": sample_rate,
                "always_sample_faults": always_sample_faults,
                "always_sample_slo_violations": always_sample_slo_violations,
            }
        },
    )


def broadcast_policy_document(max_targets: int = 0) -> PolicyDocument:
    """``scm-retailer-broadcast.xml``: invoke equivalent Retailers at once."""
    return _load(
        "scm-retailer-broadcast", {"retailer-concurrent-invocation": {"max_targets": max_targets}}
    )


def shed_only_policy_document(max_inflight: int = 16) -> PolicyDocument:
    """``overload-shed-only.xml``: the overload ablation's shedding-only arm."""
    return _load("overload-shed-only", {"bus-load-shedding": {"max_inflight": max_inflight}})
