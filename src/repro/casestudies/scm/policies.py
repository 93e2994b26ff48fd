"""WS-Policy4MASC documents used by the SCM experiments.

These are the policies Section 3.2 describes: "For timeout faults, these
policies configured the VEP for the Retailers to first retry the invocation
of the faulty services three times with a delay between retry cycles of two
seconds. After exhausting the maximum number of allowed retries, the
policies configured the VEP to route the request message to a different
Retailer based on the response time gathered from prior interactions. ...
For the Logging service we have configured a skip policy since the
functionality provided by the Logging service is not business critical."

Each builder returns both the in-memory document and (via the XML module)
round-trips through the wire format, so the experiments exercise the full
parse path rather than hand-built objects.
"""

from __future__ import annotations

from repro.policy import (
    AdaptationPolicy,
    AdaptiveTimeoutAction,
    BulkheadAction,
    BurnRateAlertAction,
    CircuitBreakerAction,
    CompensateInstanceAction,
    ConcurrentInvokeAction,
    FederationAction,
    IdempotencyAction,
    LoadLevelingAction,
    LoadSheddingAction,
    PolicyDocument,
    PolicyScope,
    ResponseCacheAction,
    RetryAction,
    SelectionStrategyAction,
    ShardRoutingAction,
    SkipAction,
    SloAction,
    SubstituteAction,
    TracingAction,
    parse_policy_document,
    serialize_policy_document,
)

__all__ = [
    "broadcast_policy_document",
    "federation_policy_document",
    "logging_skip_policy_document",
    "resilience_policy_document",
    "retailer_recovery_policy_document",
    "saga_policy_document",
    "slo_policy_document",
    "tracing_policy_document",
    "traffic_policy_document",
]


def _round_trip(document: PolicyDocument) -> PolicyDocument:
    """Serialize + re-parse so experiments use the real XML path."""
    return parse_policy_document(serialize_policy_document(document))


def retailer_recovery_policy_document(
    max_retries: int = 3,
    retry_delay_seconds: float = 2.0,
    substitute_strategy: str = "best_response_time",
    backoff_multiplier: float = 1.0,
    max_delay_seconds: float | None = None,
    jitter_fraction: float = 0.0,
) -> PolicyDocument:
    """Retry n times with a fixed delay, then fail over by response time.

    The backoff/jitter knobs default to the paper's fixed-delay behaviour;
    passing ``jitter_fraction``/``max_delay_seconds`` spreads retry storms
    out while keeping the delay bounded.
    """
    document = PolicyDocument("scm-retailer-recovery")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-retry-then-failover",
            triggers=("fault.Timeout", "fault.ServiceUnavailable", "fault.ServiceFailure"),
            scope=PolicyScope(service_type="Retailer"),
            actions=(
                RetryAction(
                    max_retries=max_retries,
                    delay_seconds=retry_delay_seconds,
                    backoff_multiplier=backoff_multiplier,
                    max_delay_seconds=max_delay_seconds,
                    jitter_fraction=jitter_fraction,
                ),
                SubstituteAction(strategy=substitute_strategy),
            ),
            priority=10,
            adaptation_type="correction",
        )
    )
    return _round_trip(document)


def logging_skip_policy_document() -> PolicyDocument:
    """Skip failed Logging calls — the service is not business critical."""
    document = PolicyDocument("scm-logging-skip")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="logging-skip",
            triggers=("fault.*",),
            scope=PolicyScope(service_type="LoggingFacility"),
            actions=(SkipAction(reason="logging is not business critical"),),
            priority=10,
            adaptation_type="correction",
        )
    )
    return _round_trip(document)


def resilience_policy_document(
    consecutive_failures: int = 3, vep_max_concurrent: int = 32
) -> PolicyDocument:
    """Resilience configuration for the Retailer tier.

    Uses the ``resilience.configure`` trigger convention: the bus's
    :class:`~repro.resilience.ResilienceService` scans adaptation policies
    carrying that trigger at load time rather than waiting for a fault
    event.  Four protections are configured:

    - circuit breakers on each Retailer endpoint;
    - a per-endpoint bulkhead plus a wider per-VEP bulkhead;
    - adaptive timeouts derived from observed p95 latency;
    - unscoped load shedding at bus admission.
    """
    document = PolicyDocument("scm-resilience")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-endpoint-resilience",
            triggers=("resilience.configure",),
            scope=PolicyScope(endpoint="http://scm/retailer*"),
            actions=(
                CircuitBreakerAction(
                    failure_rate_threshold=0.5,
                    consecutive_failures=consecutive_failures,
                    open_seconds=6.0,
                    half_open_probes=1,
                ),
                BulkheadAction(max_concurrent=8, max_queue=16, applies_to="endpoint"),
                AdaptiveTimeoutAction(
                    aggregate="p95", multiplier=3.0, min_seconds=0.3, max_seconds=4.0
                ),
            ),
            priority=10,
            adaptation_type="prevention",
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-vep-bulkhead",
            triggers=("resilience.configure",),
            scope=PolicyScope(service_type="Retailer"),
            actions=(
                BulkheadAction(
                    max_concurrent=vep_max_concurrent, max_queue=64, applies_to="vep"
                ),
            ),
            priority=20,
            adaptation_type="prevention",
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="bus-load-shedding",
            triggers=("resilience.configure",),
            scope=PolicyScope(),
            actions=(LoadSheddingAction(max_inflight=256),),
            priority=30,
            adaptation_type="prevention",
        )
    )
    return _round_trip(document)


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
    """SLO declaration + burn-rate reaction for the Retailer tier.

    Two policies close the feedback loop:

    - ``retailer-availability-slo`` uses the ``observability.slo`` trigger
      convention (scanned at load time by the bus's
      :class:`~repro.observability.slo.SloService`, like
      ``resilience.configure``): it declares the availability/latency
      objective and the multi-window burn-rate alert that evaluates it.
    - ``retailer-slo-burn-reaction`` is an ordinary adaptation policy
      triggered by the events the SLO engine emits: when the error budget
      burns too fast it switches the Retailer VEP's selection strategy to
      ``best_reliability`` and tightens the circuit breaker on the
      Retailer endpoints.

    Defaults are scaled for the fault-storm experiments (minutes, not the
    SRE-canonical hours) so a short storm exercises the whole loop.
    """
    document = PolicyDocument("scm-slo")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-availability-slo",
            triggers=("observability.slo",),
            scope=PolicyScope(endpoint="http://scm/retailer*"),
            actions=(
                SloAction(
                    name="retailer-availability",
                    availability_target=99.0,
                    latency_target_seconds=latency_target_seconds,
                    latency_percentile=latency_percentile,
                    window_seconds=window_seconds,
                ),
                BurnRateAlertAction(
                    fast_window_seconds=fast_window_seconds,
                    slow_window_seconds=slow_window_seconds,
                    fast_burn_threshold=fast_burn_threshold,
                    slow_burn_threshold=slow_burn_threshold,
                    evaluation_interval_seconds=evaluation_interval_seconds,
                    min_requests=min_requests,
                ),
            ),
            priority=10,
            adaptation_type="prevention",
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-slo-burn-reaction",
            triggers=("sloBurnRateExceeded", "errorBudgetExhausted"),
            scope=PolicyScope(service_type="Retailer"),
            actions=(
                SelectionStrategyAction(strategy="best_reliability"),
                CircuitBreakerAction(consecutive_failures=2, open_seconds=10.0),
            ),
            priority=10,
            adaptation_type="optimization",
        )
    )
    return _round_trip(document)


def saga_policy_document(
    scope: str | None = None, mode: str = "orchestration"
) -> PolicyDocument:
    """Turn SLO despair into a saga unwind — a policy-only change.

    When the SLO engine reports the error budget gone, keeping in-flight
    purchase sagas running only piles further work onto a tier that can
    no longer meet its objective.  This reaction policy compensates them
    instead: each instance's registered compensations (cancel the order,
    refund the payment) run in LIFO order, either engine-driven
    (``orchestration``) or as direct wsBus messages to the owning
    services (``choreography``).  No code change is involved — loading
    this document is enough.
    """
    document = PolicyDocument("scm-saga")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="purchase-saga-compensate-on-budget-exhausted",
            triggers=("errorBudgetExhausted",),
            scope=PolicyScope(service_type="Retailer"),
            actions=(
                CompensateInstanceAction(
                    scope=scope,
                    mode=mode,
                    process="scm-purchase-saga",
                    reason="error budget exhausted",
                ),
            ),
            priority=5,
            adaptation_type="correction",
        )
    )
    return _round_trip(document)


def traffic_policy_document(
    cache_operation: str = "getCatalog", rate_per_second: float = 20.0, burst: int = 4
) -> PolicyDocument:
    """Traffic shaping for the Retailer tier — the gentler overload story.

    Three policies on the ``traffic.configure`` trigger convention
    (scanned at load time by the bus's
    :class:`~repro.traffic.TrafficService`):

    - ``retailer-exactly-once`` stamps every Retailer request with an
      idempotency key, so retry/replay/broadcast redelivery is provably
      exactly-once at the service;
    - ``retailer-catalog-cache`` caches ``getCatalog`` responses
      (cache-aside with TTL), invalidated when the SLO engine reports
      budget trouble or a ``catalogChanged`` domain event flows by;
    - ``retailer-load-leveling`` smooths Retailer VEP arrivals to a
      sustainable rate with a bounded virtual queue instead of shedding.
    """
    document = PolicyDocument("scm-traffic")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-exactly-once",
            triggers=("traffic.configure",),
            scope=PolicyScope(service_type="Retailer"),
            actions=(IdempotencyAction(),),
            priority=10,
            adaptation_type="prevention",
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-catalog-cache",
            triggers=("traffic.configure",),
            scope=PolicyScope(service_type="Retailer", operation=cache_operation),
            actions=(
                ResponseCacheAction(
                    ttl_seconds=30.0,
                    max_entries=256,
                    invalidate_on=(
                        "sloBurnRateExceeded",
                        "errorBudgetExhausted",
                        "catalogChanged",
                    ),
                ),
            ),
            priority=20,
            adaptation_type="optimization",
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-load-leveling",
            triggers=("traffic.configure",),
            scope=PolicyScope(service_type="Retailer"),
            actions=(
                LoadLevelingAction(
                    rate_per_second=rate_per_second,
                    burst=burst,
                    max_queue=64,
                    max_wait_seconds=2.0,
                ),
            ),
            priority=30,
            adaptation_type="prevention",
        )
    )
    return _round_trip(document)


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
    """Fleet tuning (and optional placement pins) for a federated bus.

    One policy on the ``federation.configure`` trigger convention (scanned
    at load time by the fleet's
    :class:`~repro.federation.FederationService`) carries the
    :class:`~repro.policy.FederationAction` knobs: heartbeat cadence and
    suspicion threshold, gossip interval/fanout, leadership lease length,
    and the consistent-hash ring's virtual-node count.  When
    ``pin_vep_pattern``/``pin_bus`` are given a second policy pins the
    matching VEPs to a named bus, overriding hash placement while that
    bus is alive.
    """
    document = PolicyDocument("scm-federation")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="fleet-federation-tuning",
            triggers=("federation.configure",),
            scope=PolicyScope(),
            actions=(
                FederationAction(
                    heartbeat_interval_seconds=heartbeat_interval_seconds,
                    suspicion_multiplier=suspicion_multiplier,
                    gossip_interval_seconds=gossip_interval_seconds,
                    gossip_fanout=gossip_fanout,
                    lease_seconds=lease_seconds,
                    virtual_nodes=virtual_nodes,
                ),
            ),
            priority=10,
            adaptation_type="prevention",
        )
    )
    if pin_vep_pattern is not None and pin_bus is not None:
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="fleet-vep-pinning",
                triggers=("federation.configure",),
                scope=PolicyScope(),
                actions=(
                    ShardRoutingAction(bus=pin_bus, vep_pattern=pin_vep_pattern),
                ),
                priority=20,
                adaptation_type="prevention",
            )
        )
    return _round_trip(document)


def tracing_policy_document(
    sample_rate: float = 1.0,
    always_sample_faults: bool = True,
    always_sample_slo_violations: bool = True,
) -> PolicyDocument:
    """Head-based trace sampling for a production-scale run.

    One policy on the ``observability.tracing`` trigger convention
    (scanned at load time by
    :class:`~repro.observability.sampling.TracingService`) carries the
    :class:`~repro.policy.TracingAction` knobs: the sample rate, and
    whether faulted / SLO-violating traces are always promoted to the
    exporters regardless of the head decision.
    """
    document = PolicyDocument("scm-tracing")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="fleet-trace-sampling",
            triggers=("observability.tracing",),
            scope=PolicyScope(),
            actions=(
                TracingAction(
                    sample_rate=sample_rate,
                    always_sample_faults=always_sample_faults,
                    always_sample_slo_violations=always_sample_slo_violations,
                ),
            ),
            priority=10,
            adaptation_type="prevention",
        )
    )
    return _round_trip(document)


def broadcast_policy_document(max_targets: int = 0) -> PolicyDocument:
    """Concurrent invocation of equivalent Retailers, first response wins."""
    document = PolicyDocument("scm-retailer-broadcast")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="retailer-concurrent-invocation",
            triggers=("fault.Timeout", "fault.ServiceUnavailable", "fault.ServiceFailure"),
            scope=PolicyScope(service_type="Retailer"),
            actions=(ConcurrentInvokeAction(max_targets=max_targets),),
            priority=10,
            adaptation_type="correction",
        )
    )
    return _round_trip(document)
