"""The WS-Policy4MASC golden corpus.

Every policy document the repository ships or documents, plus one
hand-built document holding every action class with every field set to a
non-default value. ``tests/golden/policy_xml/<name>.xml`` holds each
document's serialised text as recorded on the commit *before* the
action codec became field-driven (PR 13); ``test_policy_golden.py``
compares byte for byte. Re-record (only when the wire format is meant to
change) with ``PYTHONPATH=src python tests/policy_corpus.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.casestudies.scm import policies as scm
from repro.casestudies.stocktrading import policies as trading
from repro.experiments import shed_only_policy_document
from repro.policy import (
    AdaptationPolicy,
    AdaptiveTimeoutAction,
    AddActivityAction,
    BulkheadAction,
    BurnRateAlertAction,
    BusinessValue,
    CircuitBreakerAction,
    CompensateInstanceAction,
    ConcurrentInvokeAction,
    DelayProcessAction,
    ExtendTimeoutAction,
    FederationAction,
    IdempotencyAction,
    InvokeSpec,
    LoadLevelingAction,
    LoadSheddingAction,
    PolicyDocument,
    PolicyScope,
    PreferBestAction,
    QuarantineAction,
    RemoveActivityAction,
    ReplaceActivityAction,
    ResponseCacheAction,
    RetryAction,
    SelectionStrategyAction,
    ShardRoutingAction,
    SkipAction,
    SloAction,
    SubstituteAction,
    SuspendProcessAction,
    TerminateProcessAction,
    TracingAction,
    parse_policy_document,
    serialize_policy_document,
)
from repro.policy.actions import ResumeProcessAction

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "policy_xml"

XML_FENCE = re.compile(r"^```xml\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def wrap_fragment(fragment: str, name: str) -> str:
    """A doc fence holds bare policies; give it the ``wsp:Policy`` root."""
    return (
        f'<wsp:Policy Name="{name}"'
        ' xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy"'
        ' xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc">'
        + re.sub(r"<!--.*?-->", "", fragment, flags=re.DOTALL)
        + "</wsp:Policy>"
    )


def every_field_document() -> PolicyDocument:
    """Every action class, every field away from its default."""
    spec = InvokeSpec(
        name="rate",
        operation="getRating",
        service_type="CreditRating",
        address="http://trading/rating",
        inputs={"customer": "$customer_id", "depth": "3"},
        outputs={"rating": "score", "agency": "source"},
        timeout_seconds=12.5,
    )
    abstract_spec = InvokeSpec(
        name="log", operation="append", service_type="Logging", timeout_seconds=None
    )
    actions = (
        AddActivityAction(
            anchor="placeOrder",
            position="before",
            invokes=(spec, abstract_spec),
            block_name="rating-block",
            bindings={"threshold": "700", "origin": "$trade_country"},
        ),
        RemoveActivityAction(target="audit", block_end="archive"),
        ReplaceActivityAction(
            target="settle",
            invokes=(spec,),
            block_name="settle-v2",
            bindings={"mode": "fast"},
        ),
        SuspendProcessAction(),
        ResumeProcessAction(),
        TerminateProcessAction(reason="budget exhausted"),
        CompensateInstanceAction(
            scope="order-saga", mode="choreography", process="scm-order", reason="slo burn"
        ),
        DelayProcessAction(delay_seconds=4.5),
        ExtendTimeoutAction(extra_seconds=7.25),
        RetryAction(
            max_retries=5,
            delay_seconds=0.5,
            backoff_multiplier=2.0,
            max_delay_seconds=8.0,
            jitter_fraction=0.25,
        ),
        SubstituteAction(strategy="backup", backup_address="http://scm/retailerZ"),
        ConcurrentInvokeAction(max_targets=3),
        QuarantineAction(duration_seconds=45.0),
        PreferBestAction(metric="reliability", window=25),
        SkipAction(reason="not critical"),
        CircuitBreakerAction(
            failure_rate_threshold=0.75,
            window=40,
            min_calls=8,
            consecutive_failures=4,
            open_seconds=12.0,
            half_open_probes=2,
        ),
        BulkheadAction(max_concurrent=6, max_queue=9, applies_to="vep"),
        AdaptiveTimeoutAction(
            aggregate="p99",
            multiplier=2.5,
            min_seconds=0.5,
            max_seconds=9.0,
            window=30,
            min_samples=7,
        ),
        LoadSheddingAction(max_inflight=128, max_retry_queue_depth=17),
        IdempotencyAction(),
        ResponseCacheAction(
            ttl_seconds=12.0, max_entries=99, invalidate_on=("catalog*", "sloBurnRateExceeded")
        ),
        LoadLevelingAction(rate_per_second=25.5, burst=6, max_queue=11, max_wait_seconds=1.5),
        FederationAction(
            heartbeat_interval_seconds=0.25,
            suspicion_multiplier=4.0,
            gossip_interval_seconds=1.5,
            gossip_fanout=2,
            lease_seconds=2.5,
            virtual_nodes=16,
        ),
        ShardRoutingAction(bus="bus-3", vep_pattern="orders-*"),
        SloAction(
            name="checkout",
            availability_target=99.9,
            latency_target_seconds=0.75,
            latency_percentile="p95",
            window_seconds=600.0,
        ),
        BurnRateAlertAction(
            fast_window_seconds=20.0,
            slow_window_seconds=90.0,
            fast_burn_threshold=10.0,
            slow_burn_threshold=3.0,
            evaluation_interval_seconds=2.5,
            min_requests=4,
        ),
        TracingAction(
            sample_rate=0.125, always_sample_faults=False, always_sample_slo_violations=False
        ),
        SelectionStrategyAction(strategy="primary"),
    )
    document = PolicyDocument("every-field")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="everything",
            triggers=("fault.*", "resilience.configure"),
            actions=actions,
            scope=PolicyScope(
                service_type="Retailer",
                endpoint="http://scm/retailer*",
                operation="submitOrder",
                process="scm-order",
                activity="placeOrder",
            ),
            condition="fault_code != 'Client'",
            state_before="normal",
            state_after="recovering",
            business_value=BusinessValue(amount=-2.5, currency="USD", reason="recovery"),
            priority=7,
            adaptation_type="prevention",
        )
    )
    return document


def every_default_document() -> PolicyDocument:
    """Every action class built from its required arguments only."""
    spec = InvokeSpec(name="call", operation="op", address="http://svc")
    actions = (
        AddActivityAction(anchor="a", invokes=(spec,)),
        RemoveActivityAction(target="a"),
        ReplaceActivityAction(target="a", invokes=(spec,)),
        SuspendProcessAction(),
        ResumeProcessAction(),
        TerminateProcessAction(),
        CompensateInstanceAction(),
        DelayProcessAction(),
        ExtendTimeoutAction(),
        RetryAction(),
        SubstituteAction(),
        ConcurrentInvokeAction(),
        QuarantineAction(),
        PreferBestAction(),
        SkipAction(),
        CircuitBreakerAction(),
        BulkheadAction(),
        AdaptiveTimeoutAction(),
        LoadSheddingAction(),
        IdempotencyAction(),
        ResponseCacheAction(),
        LoadLevelingAction(),
        FederationAction(),
        ShardRoutingAction(bus="bus-0"),
        SloAction(),
        BurnRateAlertAction(),
        TracingAction(),
        SelectionStrategyAction(),
    )
    document = PolicyDocument("every-default")
    document.adaptation_policies.append(
        AdaptationPolicy(name="defaults", triggers=("fault.*",), actions=actions)
    )
    return document


def corpus() -> dict[str, PolicyDocument]:
    """``name -> source document`` for every golden file."""
    documents = {
        "scm-retailer-recovery": scm.retailer_recovery_policy_document(),
        "scm-retailer-recovery-jittered": scm.retailer_recovery_policy_document(
            max_retries=4,
            retry_delay_seconds=0.5,
            substitute_strategy="round_robin",
            backoff_multiplier=2.0,
            max_delay_seconds=6.0,
            jitter_fraction=0.2,
        ),
        "scm-logging-skip": scm.logging_skip_policy_document(),
        "scm-resilience": scm.resilience_policy_document(),
        "scm-slo": scm.slo_policy_document(),
        "scm-slo-latency": scm.slo_policy_document(
            latency_target_seconds=0.8, latency_percentile="p95"
        ),
        "scm-saga": scm.saga_policy_document(),
        "scm-traffic": scm.traffic_policy_document(),
        "scm-federation": scm.federation_policy_document(),
        "scm-tracing": scm.tracing_policy_document(),
        "scm-tracing-sampled": scm.tracing_policy_document(sample_rate=0.1),
        "scm-broadcast": scm.broadcast_policy_document(),
        "scm-broadcast-two": scm.broadcast_policy_document(max_targets=2),
        "trading-currency-conversion": trading.currency_conversion_policy_document(),
        "trading-pest-analysis": trading.pest_analysis_policy_document(),
        "trading-credit-rating": trading.credit_rating_policy_document(),
        "trading-compliance-removal": trading.compliance_removal_policy_document(),
        "overload-shed-only": shed_only_policy_document(),
        # Every call shape the experiments and the benchmark use, and
        # every builder parameter away from its default at least once.
        "scm-retailer-recovery-fast": scm.retailer_recovery_policy_document(
            max_retries=1, retry_delay_seconds=0.25
        ),
        "scm-slo-storm": scm.slo_policy_document(
            window_seconds=60.0,
            fast_window_seconds=8.0,
            slow_window_seconds=16.0,
            fast_burn_threshold=4.0,
            slow_burn_threshold=1.5,
            evaluation_interval_seconds=1.0,
            min_requests=3,
        ),
        "scm-federation-storm": scm.federation_policy_document(
            heartbeat_interval_seconds=0.5,
            suspicion_multiplier=3.0,
            gossip_interval_seconds=1.0,
            gossip_fanout=1,
            lease_seconds=3.0,
        ),
        "scm-federation-pinned": scm.federation_policy_document(
            heartbeat_interval_seconds=0.25,
            suspicion_multiplier=4.0,
            gossip_interval_seconds=1.5,
            gossip_fanout=2,
            lease_seconds=2.5,
            virtual_nodes=16,
            pin_vep_pattern="orders-*",
            pin_bus="bus-2",
        ),
        "scm-traffic-ladder": scm.traffic_policy_document(
            cache_operation="submitOrder", rate_per_second=100_000.0, burst=64
        ),
        "scm-resilience-tight": scm.resilience_policy_document(
            consecutive_failures=7, vep_max_concurrent=9
        ),
        "scm-saga-choreography": scm.saga_policy_document(
            mode="choreography", scope="purchase-saga"
        ),
        "scm-tracing-unpromoted": scm.tracing_policy_document(
            sample_rate=0.25, always_sample_faults=False, always_sample_slo_violations=False
        ),
        "trading-compliance-removal-100": trading.compliance_removal_policy_document(100.0),
        "overload-shed-only-8": shed_only_policy_document(max_inflight=8),
        "every-field": every_field_document(),
        "every-default": every_default_document(),
    }
    for doc in sorted((ROOT / "docs").glob("*.md")):
        fences = XML_FENCE.findall(doc.read_text(encoding="utf-8"))
        for index, fence in enumerate(fences):
            name = f"docs-{doc.stem}-{index}"
            documents[name] = parse_policy_document(wrap_fragment(fence, name))
    return documents


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, document in corpus().items():
        (GOLDEN_DIR / f"{name}.xml").write_text(
            serialize_policy_document(document), encoding="utf-8"
        )
        print(name)
