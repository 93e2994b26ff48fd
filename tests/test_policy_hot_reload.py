"""Hot reload: policy-configured services follow the repository.

"When a WS-Policy4MASC document changes, these changes are automatically
enforced ... with no need to restart any software component." The five
tiers configured by a load-time scan (resilience, traffic, SLOs, trace
sampling, federation) must pick up documents loaded *after* the bus or
fleet was built, and go inert again when they are unloaded.
"""

from __future__ import annotations

from repro.casestudies.scm import (
    federation_policy_document,
    resilience_policy_document,
    slo_policy_document,
    tracing_policy_document,
    traffic_policy_document,
)
from repro.federation import BusFleet
from repro.observability import MetricsRegistry, Tracer
from repro.policy import PolicyRepository
from repro.resilience.breaker import BreakerState
from repro.wsbus import WsBus
from repro.xmlutils import Element

RETAILER = "http://scm/retailerA"


def test_services_follow_documents_loaded_and_unloaded_after_construction(env, network):
    repository = PolicyRepository()
    tracer = Tracer(clock=lambda: env.now)
    fleet = BusFleet(
        env, network, shards=2, repository=repository, tracer=tracer, metrics=MetricsRegistry()
    )
    bus = fleet.buses["bus-0"]
    services = (bus.resilience, bus.traffic, bus.slo, fleet.federation)
    assert not any(service.active for service in services)
    assert bus.tracing.action is None

    documents = [
        resilience_policy_document(),
        traffic_policy_document(),
        slo_policy_document(),
        tracing_policy_document(sample_rate=0.25),
        federation_policy_document(),
    ]
    for document in documents:
        repository.load(document)

    for other in fleet.buses.values():
        assert other.resilience.active and other.traffic.active and other.slo.active
        assert other.tracing.action.sample_rate == 0.25
    assert fleet.federation.active
    assert bus.resilience.breaker_for(RETAILER) is not None
    assert bus.traffic.cache_for("Retailer", "getCatalog") is not None
    assert bus.slo._process is not None  # the evaluator started with the reload

    for document in documents:
        repository.unload(document.name)

    assert not any(service.active for service in services)
    assert bus.tracing.action is None
    assert bus.resilience.breaker_for(RETAILER) is None
    assert bus.traffic.cache_for("Retailer", "getCatalog") is None


def test_unchanged_configuration_keeps_live_state_across_a_reload(env, network):
    repository = PolicyRepository()
    bus = WsBus(env, network, repository=repository)
    repository.load(resilience_policy_document(consecutive_failures=2))
    repository.load(traffic_policy_document())

    breaker = bus.resilience.breaker_for(RETAILER)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    cache = bus.traffic.cache_for("Retailer", "getCatalog")
    cache.put("key", Element("catalog"))

    # An unrelated document arrives, and the same configuration is re-loaded.
    repository.load(slo_policy_document())
    repository.load(resilience_policy_document(consecutive_failures=2))
    repository.load(traffic_policy_document())

    assert bus.resilience.breaker_for(RETAILER) is breaker
    assert breaker.state is BreakerState.OPEN
    assert bus.traffic.cache_for("Retailer", "getCatalog") is cache
    assert cache.stats()["entries"] == 1

    # A changed threshold reaches the live breaker without resetting it.
    repository.load(resilience_policy_document(consecutive_failures=7))
    assert bus.resilience.breaker_for(RETAILER) is breaker
    assert breaker.config.consecutive_failures == 7
    assert breaker.state is BreakerState.OPEN


def test_explicit_refresh_still_works_without_a_notification(env, network):
    repository = PolicyRepository()
    bus = WsBus(env, network, repository=repository)
    # Bypass load(): mutate the store, then ask for the scan by hand.
    repository._documents["scm-traffic"] = traffic_policy_document()
    assert not bus.traffic.active
    bus.traffic.refresh_from_policies()
    assert bus.traffic.active
