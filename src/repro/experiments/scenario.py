"""One way to run an experiment: a frozen :class:`Scenario` and :func:`run`.

Every SCM run the evaluation makes — a Table 1 direct or VEP
configuration, a Figure 5 point, the fault, overload and fleet storms —
is a :class:`Scenario` value: the seed, the injected faults, the
Retailers' processing, the policy documents themselves, the bus or fleet
shape, the VEPs and the client mix. :func:`run` builds it on a
fresh seeded deployment, drives the workload and returns a
:class:`RunResult` of plain data. A scenario is frozen and picklable, so
:func:`~repro.experiments.run_cells` ships it to a worker process as it
is; the named constructors below are the runs the paper and the
ablations make, and ``dataclasses.replace`` varies any field of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    STORM_FAULTS,
    TABLE1_FAULTS,
    build_scm_deployment,
    federation_policy_document,
    resilience_policy_document,
    retailer_recovery_policy_document,
    shed_only_policy_document,
    slo_policy_document,
    traffic_policy_document,
)
from repro.faultinjection import ApplicationFault, BusCrash, BusCrashInjector, EndpointFault
from repro.federation import BusFleet
from repro.metrics import describe, reliability_report
from repro.observability import MetricsRegistry
from repro.policy import PolicyDocument, PolicyRepository
from repro.services import ProcessingModel
from repro.workload import RequestPlan, WorkloadResult, WorkloadRunner
from repro.wsbus import WsBus

__all__ = [
    "RunResult",
    "Scenario",
    "catalog_plan",
    "fault_storm",
    "figure5_point",
    "fleet_storm",
    "order_plan",
    "overload_storm",
    "run",
    "table1_direct",
    "table1_vep",
]


def catalog_plan(target, timeout=5.0, think=2.0, padding=0):
    return RequestPlan(
        target=target,
        operation="getCatalog",
        payload_factory=lambda c, i: RETAILER_CONTRACT.operation("getCatalog").input.build_interned(),
        timeout=timeout,
        think_time_seconds=think,
        padding_bytes=padding,
    )


def order_plan(target, timeout=10.0, think=0.0, padding=0):
    return RequestPlan(
        target=target,
        operation="submitOrder",
        payload_factory=lambda c, i: RETAILER_CONTRACT.operation("submitOrder").input.build(
            orderId=f"o-{c}-{i}", items="TVx1,DVDx1", customerId=f"cust-{c}"
        ),
        timeout=timeout,
        think_time_seconds=think,
        padding_bytes=padding,
    )


_PLANS = {"getCatalog": catalog_plan, "submitOrder": order_plan}

#: Concurrent mediations each fleet bus admits: the resource a fleet shards.
FLEET_MEDIATION_CAPACITY = 6

#: A direct run whose Retailer has a downtime log reads availability off
#: it over this long a window after the workload, so rare-outage
#: Retailers like C are not all-or-nothing.
AVAILABILITY_WINDOW_SECONDS = 50_000.0

#: The availability target the error budget of :attr:`RunResult.error_budget_burn` is
#: taken at, in percent.
AVAILABILITY_TARGET = 99.0


@dataclass(frozen=True)
class Scenario:
    """One seeded SCM run as data; ``docs/architecture.md`` tabulates the fields."""

    seed: int
    #: The injected faults, started in this order once the bus is built:
    #: ``TABLE1_FAULTS`` and ``STORM_FAULTS`` are the SCM mixes, and a
    #: :class:`~repro.faultinjection.BusCrash` needs a fleet.
    faults: tuple[EndpointFault | ApplicationFault | BusCrash, ...] = ()
    #: Slow every Retailer to this many seconds per request (10% jitter);
    #: None keeps each vendor's own processing model.
    processing_seconds: float | None = None
    #: Policy documents loaded, in this order, into the run's repository.
    policies: tuple[PolicyDocument, ...] = ()
    #: VEPs fronting the Retailers; 0 sends every request straight to the
    #: one Retailer ``retailers`` names.
    veps: int = 1
    #: None: one :class:`~repro.wsbus.WsBus`; N: a
    #: :class:`~repro.federation.BusFleet` of N shards carrying ``veps``
    #: partition VEPs.
    shards: int | None = None
    #: The Retailers every VEP fronts (or the one a direct run calls).
    retailers: str = "ABCD"
    selection: str = "round_robin"
    member_timeout: float = 5.0
    #: The client-side deployment of Figure 5: clients reach the bus over
    #: loopback and the bus crosses the LAN.
    colocated: bool = False
    #: A bare bus, as the paper's Table 1 and Figure 5 runs have: no
    #: metrics registry, and random streams from the bus's own default
    #: source rather than the deployment's seeded one.
    bare: bool = False
    operation: str = "getCatalog"
    padding: int = 0
    #: Concurrent clients per VEP (per Retailer in a direct run).
    clients: int = 4
    #: Requests each client makes.
    requests: int = 250
    #: The client's per-request timeout.
    timeout: float = 5.0
    #: Seconds a client waits between its requests.
    think: float = 2.0
    #: Simulated seconds (> 0) between two ``on_tick`` calls of :func:`run`.
    tick_seconds: float = 10.0

    def __post_init__(self) -> None:
        if not self.tick_seconds > 0:
            raise ValueError(f"tick_seconds must be positive: {self.tick_seconds}")
        if self.veps == 0 and (len(self.retailers) != 1 or self.shards is not None):
            raise ValueError("a direct run (veps=0) calls exactly one Retailer, with no fleet")
        crashes = any(isinstance(fault, BusCrash) for fault in self.faults)
        if self.shards is None and (self.veps > 1 or crashes):
            raise ValueError("several VEPs or a bus crash need a fleet: set shards")


@dataclass
class RunResult:
    """What one :func:`run` measured, as plain data.

    While the result stays in the process that ran it, ``bus`` is the live
    :class:`~repro.wsbus.WsBus` or :class:`~repro.federation.BusFleet` and
    ``workload`` the client-side :class:`~repro.workload.WorkloadResult`
    (every request's record); :func:`~repro.experiments.run_cells` strips
    both.
    """

    scenario: Scenario
    total_requests: int
    delivered: int
    failures_per_1000: float
    #: Injector-observed for a direct run whose Retailer has a downtime
    #: log (the Table 1 mix), else the share of requests answered.
    availability: float
    #: RTT statistics over *all* requests, failures included — a request
    #: that burns the client timeout before failing still cost that time.
    rtt_stats: dict[str, float]
    #: Successful requests per simulated second over the workload.
    throughput: float
    #: ``metrics.snapshot()`` of the run's registry (empty without a bus).
    metrics: dict
    #: ``stats_summary()`` of the bus or fleet (empty without one).
    stats: dict
    #: ``(time, endpoint, from, to)`` per breaker transition, every bus.
    breaker_transitions: list[tuple[float, str, str, str]]
    #: Requests the load-shedding gate refused, every bus.
    shed: int
    #: SLO events emitted across every bus's engine.
    slo_events: int
    #: The service container's idempotency-store statistics.
    idempotency: dict
    #: When the scenario's bus crash fired (None: no crash).
    crash_time: float | None = None
    bus: WsBus | BusFleet | None = field(default=None, compare=False, repr=False)
    workload: WorkloadResult | None = field(default=None, compare=False, repr=False)

    @property
    def reliability(self) -> float:
        return self.delivered / self.total_requests if self.total_requests else 0.0

    @property
    def p99_rtt(self) -> float:
        return self.rtt_stats.get("p99", float("inf"))

    @property
    def error_budget_burn(self) -> float:
        """How many error budgets at :data:`AVAILABILITY_TARGET` the run
        burned: 1.0 exhausts it exactly, 50.0 overspends it fiftyfold."""
        return (1.0 - self.reliability) / (1.0 - AVAILABILITY_TARGET / 100.0)

    @property
    def slo(self) -> dict | None:
        """The bus's SLO summary when the SLO engine was active."""
        return self.stats.get("slo")

    @property
    def traffic(self) -> dict | None:
        """The bus's traffic-tier summary when the tier was active."""
        return self.stats.get("traffic")

    @property
    def leader(self) -> str | None:
        return self.stats.get("leader")

    @property
    def epoch(self) -> int:
        return self.stats.get("epoch", 0)

    @property
    def placement(self) -> dict[str, str]:
        """``{vep name: owning bus}`` of a fleet at the end of the run."""
        return self.stats.get("placement", {})

    def _counter(self, name: str) -> int:
        return self.metrics.get("counters", {}).get(name, 0)

    @property
    def throttled(self) -> int:
        return self._counter("wsbus.traffic.throttled")

    @property
    def leveled(self) -> int:
        return self._counter("wsbus.traffic.leveled")

    @property
    def cache_hits(self) -> int:
        return self._counter("wsbus.traffic.cache.hits")

    @property
    def leader_changes(self) -> int:
        return self._counter("federation.leader.changes")

    @property
    def forwarded_events(self) -> int:
        """MASC/SLO events followers forwarded to the leader's manager."""
        return self._counter("federation.events.forwarded")

    @property
    def gossip_records(self) -> int:
        """QoS observations merged by gossip anti-entropy across the fleet."""
        return self._counter("federation.gossip.records")


def run(scenario: Scenario, *, tracer=None, on_tick=None, flight_recorder=None) -> RunResult:
    """Build ``scenario`` on a fresh seeded deployment and drive it.

    ``tracer`` records the run's spans (its clock is rebound to this
    run's simulation). ``on_tick`` receives the bus or fleet every
    ``scenario.tick_seconds`` simulated seconds alongside the workload —
    the hook behind ``python -m repro top``. ``flight_recorder`` (already
    registered on the tracer by the caller) additionally receives every
    SLO event.
    """
    deployment = build_scm_deployment(seed=scenario.seed, log_events=False)
    env, network = deployment.env, deployment.network
    if scenario.processing_seconds is not None:
        for retailer in deployment.retailers.values():
            retailer.processing = ProcessingModel(
                base_seconds=scenario.processing_seconds,
                per_kb_seconds=0.0,
                jitter_fraction=0.1,
            )
    if tracer is not None:
        tracer.rebind_clock(env)
    members = [deployment.retailers[name].address for name in scenario.retailers]
    if scenario.veps == 0:
        mediator, buses, targets = None, [], members
    else:
        mediator, buses, targets = _mediate(
            scenario, deployment, members, tracer, flight_recorder
        )
    plan = _PLANS[scenario.operation]
    plans = [
        plan(target, timeout=scenario.timeout, think=scenario.think, padding=scenario.padding)
        for target in targets
    ]
    crash = None
    for fault in scenario.faults:
        if isinstance(fault, BusCrash):
            crash = BusCrashInjector(env, mediator, fault.bus, fault.at)
        else:
            deployment.faults.inject(fault)
    if on_tick is not None:
        env.process(_ticker(env, scenario.tick_seconds, on_tick, mediator), name="storm-ticker")
    runner = WorkloadRunner(env, network)
    if scenario.shards is None:
        workload = runner.run(
            plans[0], clients=scenario.clients, requests_per_client=scenario.requests
        )
    else:
        workload = runner.run_many(
            plans, clients_per_plan=scenario.clients, requests_per_client=scenario.requests
        )
    records = workload.records
    report = reliability_report("scenario", records)
    availability = report.availability
    if mediator is None and members[0] in deployment.faults.logs:
        env.run(until=env.now + AVAILABILITY_WINDOW_SECONDS)
        deployment.faults.finalize()
        availability = deployment.faults.logs[members[0]].availability(env.now)
    return RunResult(
        scenario=scenario,
        total_requests=len(records),
        delivered=len(workload.successes),
        failures_per_1000=report.failures_per_1000,
        availability=availability,
        rtt_stats=describe([record.duration for record in records]),
        throughput=workload.throughput(),
        metrics={} if mediator is None else mediator.metrics.snapshot(),
        stats={} if mediator is None else mediator.stats_summary(),
        breaker_transitions=[
            transition for bus in buses for transition in bus.resilience.transition_log()
        ],
        shed=sum(
            bus.resilience.shedder.shed_total
            for bus in buses
            if bus.resilience.shedder is not None
        ),
        slo_events=sum(len(bus.slo.events) for bus in buses),
        idempotency=deployment.container.idempotency.stats(),
        crash_time=None if crash is None else crash.crash_time,
        bus=mediator,
        workload=workload,
    )


def _mediate(scenario: Scenario, deployment, members: list[str], tracer, flight_recorder):
    """(bus or fleet, its buses, VEP addresses): the one place a bus is built."""
    repository = PolicyRepository()
    for document in scenario.policies:
        repository.load(document)
    options = dict(
        repository=repository,
        registry=deployment.registry,
        member_timeout=scenario.member_timeout,
        colocated_with_clients=scenario.colocated,
        tracer=tracer,
    )
    if not scenario.bare:
        options.update(random_source=deployment.random_source, metrics=MetricsRegistry())
    if scenario.shards is None:
        mediator = WsBus(deployment.env, deployment.network, **options)
        buses = [mediator]
        names = ["retailers"]
    else:
        mediator = BusFleet(
            deployment.env,
            deployment.network,
            shards=scenario.shards,
            mediation_capacity=FLEET_MEDIATION_CAPACITY,
            **options,
        )
        buses = list(mediator.buses.values())
        names = [f"retailers-p{index}" for index in range(scenario.veps)]
    if flight_recorder is not None:
        for bus in buses:
            bus.slo.router.subscribe(flight_recorder.record_event)
    targets = [
        mediator.create_vep(
            name, RETAILER_CONTRACT, members=members, selection_strategy=scenario.selection
        ).address
        for name in names
    ]
    return mediator, buses, targets


def _ticker(env, interval: float, on_tick, mediator):
    while True:
        yield interval
        on_tick(mediator)


# -- the runs the evaluation makes ----------------------------------------------------


def table1_direct(retailer: str, seed: int, **fields) -> Scenario:
    """Table 1: direct point-to-point calls of one Retailer under the fault mix."""
    return replace(
        Scenario(seed, faults=TABLE1_FAULTS, veps=0, retailers=retailer, timeout=5.0), **fields
    )


def table1_vep(seed: int, **fields) -> Scenario:
    """Table 1: all four Retailers behind one bare VEP, same fault mix.

    The paper's recovery policy — three retries two seconds apart, then
    failover — is the one document loaded.
    """
    return replace(
        Scenario(
            seed,
            faults=TABLE1_FAULTS,
            policies=(retailer_recovery_policy_document(),),
            bare=True,
            timeout=60.0,
        ),
        **fields,
    )


def fault_storm(seed: int, resilience: bool, slo: bool = False, **fields) -> Scenario:
    """All four Retailers behind one VEP under the fault storm.

    Both arms share the same recovery policies (retry with jitter, then
    substitute); ``resilience`` loads the resilience document on top, so
    the ablation isolates the breaker/bulkhead/adaptive-timeout/shedding
    contribution. ``slo`` also loads the SCM SLO document, closing the
    loop from burn-rate events to a selection-strategy switch.
    """
    policies = (
        retailer_recovery_policy_document(
            max_retries=1, retry_delay_seconds=0.5, jitter_fraction=0.5, max_delay_seconds=2.0
        ),
    )
    if resilience:
        policies += (resilience_policy_document(),)
    if slo:
        policies += (slo_policy_document(),)
    return replace(
        Scenario(
            seed,
            faults=STORM_FAULTS,
            policies=policies,
            clients=6,
            requests=60,
            timeout=8.0,
            think=0.5,
        ),
        **fields,
    )


def overload_storm(seed: int, traffic: bool, **fields) -> Scenario:
    """A flash crowd against one slow Retailer VEP: shed-only vs shaped.

    No fault injection — the overload *is* the fault: every Retailer is
    slowed to 250 ms and 32 clients with a 50 ms think time far exceed
    the fleet's service rate. Both arms load the same unscoped shedding
    gate; ``traffic`` adds the traffic document (response cache + load
    leveling + idempotency keys), so the shed-only arm runs the
    pre-traffic mediation path byte for byte.
    """
    policies = (
        retailer_recovery_policy_document(max_retries=1, retry_delay_seconds=0.25),
        shed_only_policy_document(),
    )
    if traffic:
        policies += (traffic_policy_document(),)
    return replace(
        Scenario(
            seed,
            processing_seconds=0.25,
            policies=policies,
            clients=32,
            requests=120,
            timeout=4.0,
            think=0.05,
        ),
        **fields,
    )


def figure5_point(through_bus: bool, **fields) -> Scenario:
    """One Figure 5 point: Retailer C, no faults, direct or through a bare,
    client-colocated VEP — pure mediation overhead at one request size."""
    return replace(
        Scenario(
            21,
            veps=1 if through_bus else 0,
            retailers="C",
            selection="primary",
            member_timeout=30.0,
            colocated=True,
            bare=True,
            clients=2,
            requests=150,
            timeout=30.0,
            think=0.0,
        ),
        **fields,
    )


def fleet_storm(seed: int, shards: int, slo: bool = False, **fields) -> Scenario:
    """Six partition VEPs over ``shards`` capacity-bounded buses.

    Every partition VEP fronts all four Retailers with
    ``best_response_time`` selection, so the run exercises placement,
    gossip (each bus mediates only its own partitions, yet selection needs
    fleet-wide observations) and leadership. Retailers are slowed to 80 ms
    so a bus's mediation slots are held long enough for one bus to queue.
    ``slo`` loads the Retailer SLO objective with storm-scaled windows: a
    few seconds of failed deliveries burn the budget.
    """
    policies = (
        retailer_recovery_policy_document(max_retries=1, retry_delay_seconds=0.25),
        federation_policy_document(
            heartbeat_interval_seconds=0.5,
            suspicion_multiplier=3.0,
            gossip_interval_seconds=1.0,
            gossip_fanout=1,
            lease_seconds=3.0,
        ),
    )
    if slo:
        policies += (
            slo_policy_document(
                window_seconds=60.0,
                fast_window_seconds=8.0,
                slow_window_seconds=16.0,
                fast_burn_threshold=4.0,
                slow_burn_threshold=1.5,
                evaluation_interval_seconds=1.0,
                min_requests=3,
            ),
        )
    return replace(
        Scenario(
            seed,
            processing_seconds=0.08,
            policies=policies,
            veps=6,
            shards=shards,
            selection="best_response_time",
            clients=4,
            requests=30,
            timeout=8.0,
            think=0.05,
        ),
        **fields,
    )
