"""Hot reload: policy-configured services follow the repository.

"When a WS-Policy4MASC document changes, these changes are automatically
enforced ... with no need to restart any software component." The five
tiers configured by a load-time scan (resilience, traffic, SLOs, trace
sampling, federation) must pick up documents loaded *after* the bus or
fleet was built, and go inert again when they are unloaded.
"""

from __future__ import annotations

from conftest import run_process
from repro.casestudies.scm import (
    RETAILER_CONTRACT,
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
from repro.soap import SoapEnvelope
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
    # The per-VEP machinery: one request through the VEP (nobody answers at
    # the member, which is beside the point) advances the leveler's arrival
    # clock and passes the VEP bulkhead.
    vep = bus.create_vep("retailers", RETAILER_CONTRACT, members=[RETAILER])
    request = SoapEnvelope.request(vep.address, "urn:op:getCatalog", Element("getCatalog"))
    run_process(env, network.endpoint(vep.address).handler(request))
    leveler = bus.traffic._levelers["retailers"]
    bulkhead = bus.resilience._vep_bulkheads["retailers"]
    arrival_clock = leveler._tat
    assert leveler.stats()["immediate"] == 1 and arrival_clock > 0.0
    assert bulkhead.stats()["admitted"] == 1

    # An unrelated document arrives, and the same configuration is re-loaded.
    repository.load(slo_policy_document())
    repository.load(resilience_policy_document(consecutive_failures=2))
    repository.load(traffic_policy_document())

    assert bus.resilience.breaker_for(RETAILER) is breaker
    assert breaker.state is BreakerState.OPEN
    assert bus.traffic.cache_for("Retailer", "getCatalog") is cache
    assert cache.stats()["entries"] == 1
    assert bus.traffic._levelers["retailers"] is leveler
    assert leveler._tat == arrival_clock and leveler.stats()["immediate"] == 1
    assert bus.resilience._vep_bulkheads["retailers"] is bulkhead

    # A changed threshold reaches the live breaker without resetting it,
    # and changed limits reach the live VEP bulkhead and leveler.
    repository.load(resilience_policy_document(consecutive_failures=7, vep_max_concurrent=9))
    repository.load(traffic_policy_document(rate_per_second=5.0))
    assert bus.resilience.breaker_for(RETAILER) is breaker
    assert breaker.config.consecutive_failures == 7
    assert breaker.state is BreakerState.OPEN
    assert bus.resilience._vep_bulkheads["retailers"] is bulkhead
    assert bulkhead.max_concurrent == 9 and bulkhead.stats()["admitted"] == 1
    assert bus.traffic._levelers["retailers"] is leveler
    assert leveler.config.rate_per_second == 5.0 and leveler._tat == arrival_clock

    # The VEP bulkhead goes with its rule even while other resilience rules stay.
    trimmed = resilience_policy_document(consecutive_failures=7)
    trimmed.adaptation_policies[:] = [
        policy for policy in trimmed.adaptation_policies if policy.name != "retailer-vep-bulkhead"
    ]
    repository.load(trimmed)
    assert bus.resilience.active
    assert "retailers" not in bus.resilience._vep_bulkheads
    assert "vep:retailers" not in bus.stats_summary()["resilience"]["bulkheads"]


def test_explicit_refresh_still_works_without_a_notification(env, network):
    repository = PolicyRepository()
    bus = WsBus(env, network, repository=repository)
    # Bypass load(): mutate the store, then ask for the scan by hand.
    repository._documents["scm-traffic"] = traffic_policy_document()
    assert not bus.traffic.active
    bus.traffic.refresh_from_policies()
    assert bus.traffic.active


def test_federation_intervals_follow_a_reload_on_the_running_fleet(env, network):
    """Regression: ``BusFleet`` read the federation tuning once, at
    construction, so a ``Federation`` document loaded later changed
    ``FederationService.config()`` and nothing else."""
    repository = PolicyRepository()
    fleet = BusFleet(env, network, shards=2, repository=repository)
    rounds, beats = [], []
    run_round, heartbeat = fleet.gossip.run_round, fleet.membership.heartbeat
    fleet.gossip.run_round = lambda alive: rounds.append(env.now) or run_round(alive)
    fleet.membership.heartbeat = lambda name: (
        beats.append(env.now) if name == "bus-0" else None
    ) or heartbeat(name)

    env.run(until=4.9)
    assert rounds == [2.0, 4.0]  # the built-in 2 s
    repository.load(
        federation_policy_document(
            heartbeat_interval_seconds=0.25,
            suspicion_multiplier=4.0,
            gossip_interval_seconds=0.5,
            gossip_fanout=2,
            lease_seconds=1.5,
            virtual_nodes=8,
        )
    )
    assert fleet.gossip.fanout == 2
    assert fleet.membership.suspicion_after == 1.0
    assert fleet.ring.virtual_nodes == 32  # placement is construction-time
    env.run(until=7.2)
    # The sleep under way ends when it was due; the next one is the new length.
    assert rounds == [2.0, 4.0, 6.0, 6.5, 7.0]
    assert [later - earlier for earlier, later in zip(beats[-4:], beats[-3:])] == [0.25] * 3
    assert fleet.election.lease.expires_at - env.now <= 1.5
    assert fleet.membership.alive() == ["bus-0", "bus-1"]

    repository.unload("scm-federation")
    assert fleet.gossip.interval_seconds == 2.0 and fleet.gossip.fanout == 1
    assert fleet.membership.heartbeat_interval == 0.5
    assert fleet.election.lease_seconds == 3.0
