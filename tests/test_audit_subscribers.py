"""Every audit list is a subscriber of its producer's router.

A recorder subscribed to the same routers must see exactly what the
lists hold, in order: a later reader (an invariant monitor, a decision
record) can subscribe instead of reading the lists. And the ``ledger``
kind must reach none of the readers of ``changed``.
"""

from dataclasses import replace

import pytest

from decision_corpus import _stateful_recovery_document
from mediation_corpus import FLEET_STORM
from repro.experiments import fault_storm, run
from repro.federation import BusFleet
from repro.federation.election import LeaderElection
from repro.federation.service import FederationService
from repro.observability import MetricsRegistry
from repro.observability.sampling import TracingService
from repro.observability.slo import SloService
from repro.policy import AdaptationPolicy, BusinessValue, PolicyRepository, PolicyScope
from repro.policy.actions import RetryAction
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.service import ResilienceService
from repro.simulation import Environment
from repro.traffic.service import TrafficService
from repro.transport import Network
from repro.wsbus import WsBus
from repro.wsbus.adaptation import AdaptationManager

#: Each audited producer -> the kinds its recorder reads (None: every kind).
AUDITED = {
    AdaptationManager: ("recovery", "adaptation"),
    SloService: (None,),
    PolicyRepository: ("ledger",),
    LeaderElection: (None,),
    CircuitBreaker: (None,),
}


@pytest.fixture
def recorded(monkeypatch):
    """``[(producer, kind, published args), ...]`` in publication order, from
    a recorder subscribed to every audited producer as it is built."""
    facts: list[tuple[object, str | None, tuple]] = []
    for cls, kinds in AUDITED.items():

        def __init__(self, *args, _init=cls.__init__, _kinds=kinds, **kwargs):
            _init(self, *args, **kwargs)
            for kind in _kinds:
                self.router.subscribe(
                    lambda *fact, _key=(self, kind): facts.append((*_key, fact)),
                    None if kind is None else (kind,),
                )

        monkeypatch.setattr(cls, "__init__", __init__)
    return facts


def _published(facts, producers, kind=None) -> list:
    """The single argument of each fact ``producers`` published as ``kind``."""
    return [
        args[0]
        for producer, read, args in facts
        if read == kind and any(producer is each for each in producers)
    ]


def _same(published: list, audit: list) -> bool:
    return len(published) == len(audit) and all(a is b for a, b in zip(published, audit))


def _storm_with_every_record():
    """Seed 7's storm; the stateful document adds pre/post-states and ledger entries."""
    scenario = fault_storm(7, resilience=True, slo=True)
    return replace(scenario, policies=scenario.policies + (_stateful_recovery_document(),))


def test_a_recorder_sees_exactly_what_the_audit_lists_hold(recorded):
    held = dict.fromkeys(
        ("outcomes", "event_adaptations", "transitions", "slo.events", "ledger", "changes"), 0
    )
    for scenario in (
        _storm_with_every_record(),
        fault_storm(5, resilience=True, slo=True),  # trips a breaker
        FLEET_STORM,  # crashes bus-1
    ):
        recorded.clear()
        mediator = run(scenario).bus
        buses = list(getattr(mediator, "buses", {"": mediator}).values())
        for bus in buses:
            manager = bus.adaptation
            assert _same(_published(recorded, [manager], "recovery"), manager.outcomes)
            assert _same(
                _published(recorded, [manager], "adaptation"), manager.event_adaptations
            )
            breakers = list(bus.resilience._breakers.values())
            assert _same(_published(recorded, breakers), bus.resilience.transitions)
            assert [
                (event.name, event.time, event.endpoint)
                for event in _published(recorded, [bus.slo])
            ] == [(event["name"], event["time"], event["endpoint"]) for event in bus.slo.events]
            held["outcomes"] += len(manager.outcomes)
            held["event_adaptations"] += len(manager.event_adaptations)
            held["transitions"] += len(bus.resilience.transitions)
            held["slo.events"] += len(bus.slo.events)
        repository = mediator.repository
        assert _same(_published(recorded, [repository], "ledger"), repository.ledger)
        held["ledger"] += len(repository.ledger)
        if hasattr(mediator, "election"):
            changes = mediator.election.changes
            assert [args for producer, _, args in recorded if producer is mediator.election] == [
                (previous, new) for _, previous, new in changes
            ]
            held["changes"] += len(changes)
    assert all(held.values()), held  # no comparison above was of two empty lists


#: Every reader of the repository's ``changed`` kind, and the recomposition
#: that a tier's refresh ends in.
CHANGED_READERS = (
    (ResilienceService, "refresh_from_policies"),
    (SloService, "_on_repository_change"),
    (TracingService, "refresh_from_policies"),
    (FederationService, "refresh_from_policies"),
    (TrafficService, "refresh_from_policies"),
    (BusFleet, "_retune"),
    (WsBus, "_compose"),
)


def test_a_ledger_entry_refreshes_no_tier_and_recomposes_no_chain(monkeypatch):
    from repro.casestudies.scm import (
        resilience_policy_document,
        slo_policy_document,
        traffic_policy_document,
    )

    calls = dict.fromkeys(CHANGED_READERS, 0)
    for key in CHANGED_READERS:
        cls, name = key

        def counted(self, *args, _key=key, _original=getattr(cls, name)):
            calls[_key] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    repository = PolicyRepository()
    for document in (
        resilience_policy_document(), traffic_policy_document(), slo_policy_document()
    ):
        repository.load(document)
    env = Environment()
    BusFleet(env, Network(env), shards=2, repository=repository, metrics=MetricsRegistry())
    valued = AdaptationPolicy(
        name="valued",
        triggers=("fault.*",),
        scope=PolicyScope(service_type="Retailer"),
        actions=(RetryAction(max_retries=1),),
        business_value=BusinessValue(-2.5, "AUD", "a retry"),
    )
    before = dict(calls)
    repository.applied(valued, "Retailer|http://scm/retailerA", env.now)
    assert [entry.policy_name for entry in repository.ledger] == ["valued"]
    assert calls == before
    repository.load(slo_policy_document())  # a reload reaches every reader
    assert all(calls[key] > before[key] for key in CHANGED_READERS), calls
