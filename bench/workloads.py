"""The seven benchmark workloads, composed from the program's public API.

Every workload splits one repetition into ``build`` (set-up: deployment,
policy XML parsed and loaded, bus/VEPs/engine created — everything up to
the instant before the first request) and ``drive`` (the timed phase:
first client request to last reply). All load is closed loop: each
simulated client waits for its reply, then thinks — how the paper's
JMeter clients behaved.

Inputs are generated here from the seed; the program only ever receives
the generated deployment seed, request bodies and order list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from catalogue import LADDER_RUNGS
from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    build_scm_deployment,
    federation_policy_document,
    resilience_policy_document,
    retailer_recovery_policy_document,
    slo_policy_document,
    tracing_policy_document,
    traffic_policy_document,
)
from repro.casestudies.stocktrading import (
    build_trading_deployment,
    compliance_removal_policy_document,
    credit_rating_policy_document,
    currency_conversion_policy_document,
    pest_analysis_policy_document,
)
from repro.experiments import (
    catalog_plan,
    regenerate_table1,
    shed_only_policy_document,
)
from repro.experiments.reports import PAPER_TABLE1
from repro.faultinjection import BusCrashInjector
from repro.federation import BusFleet
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer
from repro.orchestration.instance import InstanceStatus
from repro.persistence import CheckpointingService, CheckpointStore
from repro.policy import PolicyRepository, serialize_policy_document
from repro.services import ProcessingModel
from repro.simulation import Environment
from repro.workload import RequestPlan, WorkloadRunner
from repro.wsbus import WsBus

__all__ = ["LadderRung", "Outcome", "WORKLOADS", "Workload", "events_processed"]


@dataclass
class Outcome:
    """What one timed phase produced, in simulated terms."""

    ops: int
    delivered: int
    #: Simulated round trip of every op, failures included, in seconds.
    rtts: list[float]
    sim_seconds: float
    #: Ops that never reached a terminal outcome: the program lost them.
    lost: int = 0


def _outcome_of(result, expected_ops: int) -> Outcome:
    records = result.records
    return Outcome(
        ops=expected_ops,
        delivered=sum(1 for record in records if record.succeeded),
        rtts=[record.duration for record in records],
        sim_seconds=result.duration,
        lost=expected_ops - len(records),
    )


class Workload:
    """One workload: sizes, a set-up, a timed phase and its shape checks."""

    name = ""
    #: One sentence for BENCHMARK.json: which layers work, which idle.
    why = ""
    #: Full-scale sizes; ``sizes(scale)`` shrinks only the request count.
    full_sizes: dict = {}

    def sizes(self, scale: float) -> dict:
        requests = max(4, round(self.full_sizes["requests"] * scale))
        return dict(self.full_sizes, requests=requests)

    def ops(self, sizes: dict) -> int:
        raise NotImplementedError

    def build(self, seed: int, sizes: dict):
        raise NotImplementedError

    def drive(self, state) -> Outcome:
        raise NotImplementedError

    def check(self, state, outcome: Outcome) -> list[str]:
        """Shape checks; returns one message per violated expectation."""
        return []

    def counters(self, state, outcome: Outcome) -> dict:
        """Raw counts read from the program's public reporting surfaces."""
        return {}


# -- SCM messaging workloads ---------------------------------------------------------


@dataclass
class _ScmState:
    deployment: object
    bus: object
    runner: WorkloadRunner
    plans: list
    sizes: dict
    metrics: object = None
    fleet: object = None
    tracer: object = None
    exporter: object = None
    injector: object = None


class _ScmWorkload(Workload):
    """Shared drive/ops for the single-bus SCM workloads."""

    def ops(self, sizes: dict) -> int:
        return sizes["clients"] * sizes["requests"]

    def drive(self, state: _ScmState) -> Outcome:
        sizes = state.sizes
        if len(state.plans) == 1:
            result = state.runner.run(
                state.plans[0],
                clients=sizes["clients"],
                requests_per_client=sizes["requests"],
            )
        else:
            result = state.runner.run_many(
                state.plans,
                clients_per_plan=sizes["clients_per_plan"],
                requests_per_client=sizes["requests"],
            )
        return _outcome_of(result, self.ops(sizes))

    def counters(self, state: _ScmState, outcome: Outcome) -> dict:
        return {"bus": state.bus.stats_summary()}


def _retailer_bus(deployment, repository, metrics):
    """The storm set-up: one bus, all four Retailers behind a round-robin VEP."""
    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=repository,
        registry=deployment.registry,
        random_source=deployment.random_source,
        member_timeout=5.0,
        metrics=metrics,
    )
    vep = bus.create_vep(
        "retailers",
        RETAILER_CONTRACT,
        members=deployment.retailer_addresses,
        selection_strategy="round_robin",
    )
    return bus, vep


def _slow_retailers(deployment, seconds: float) -> None:
    for retailer in deployment.retailers.values():
        retailer.processing = ProcessingModel(
            base_seconds=seconds, per_kb_seconds=0.0, jitter_fraction=0.1
        )


def _figure5_bus(deployment, repository, metrics=None, tracer=None, random_source=None):
    """The Figure 5 set-up: client-colocated bus, one-member primary VEP."""
    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=repository,
        registry=deployment.registry,
        random_source=random_source,
        member_timeout=30.0,
        colocated_with_clients=True,
        tracer=tracer,
        metrics=metrics,
    )
    vep = bus.create_vep(
        "retailers",
        RETAILER_CONTRACT,
        members=[deployment.retailers["C"].address],
        selection_strategy="primary",
    )
    return bus, vep


class CleanSmall(_ScmWorkload):
    name = "clean_small"
    why = (
        "Smallest message on the bare forwarding path: kernel, transport, services "
        "and the vep/bus hot path dominate; every policy-activated tier idles."
    )
    full_sizes = {"clients": 2, "requests": 3500, "padding": 0}

    def build(self, seed: int, sizes: dict) -> _ScmState:
        deployment = build_scm_deployment(seed=seed, log_events=False)
        bus, vep = _figure5_bus(deployment, PolicyRepository())
        plan = catalog_plan(vep.address, timeout=30.0, think=0.0, padding=sizes["padding"])
        runner = WorkloadRunner(deployment.env, deployment.network)
        return _ScmState(deployment, bus, runner, [plan], sizes)

    def check(self, state, outcome):
        return _expect_no_failures(outcome)


def _expect_no_failures(outcome: Outcome) -> list[str]:
    if outcome.delivered != outcome.ops:
        return [f"clean path failed {outcome.ops - outcome.delivered} of {outcome.ops} ops"]
    return []


_PRODUCTS = ("TV", "DVD")


def _order_bodies(seed: int, clients: int, requests: int) -> list[list[tuple[str, str, str]]]:
    """Per client, per request: (orderId, items, customerId), all distinct."""
    rng = random.Random(seed)
    bodies = []
    for client in range(clients):
        rows = []
        for index in range(requests):
            # Always two lines: the retailer fulfils line by line, so a
            # varying line count would make the round trip bimodal.
            items = ",".join(f"{product}x{rng.randint(1, 3)}" for product in _PRODUCTS)
            rows.append((f"o-{seed}-{client}-{index}", items, f"cust-{rng.randrange(10_000)}"))
        bodies.append(rows)
    return bodies


def _order_plan(target, bodies, timeout, think, padding) -> RequestPlan:
    build = RETAILER_CONTRACT.operation("submitOrder").input.build

    def payload(client: int, index: int):
        order_id, items, customer = bodies[client][index]
        return build(orderId=order_id, items=items, customerId=customer)

    return RequestPlan(
        target=target,
        operation="submitOrder",
        payload_factory=payload,
        timeout=timeout,
        think_time_seconds=think,
        padding_bytes=padding,
    )


class CleanLarge(_ScmWorkload):
    name = "clean_large"
    why = (
        "Same bare path with a unique 32 KiB body per request: defeats size/body "
        "memoisation and interning, so soap+xmlutils serialisation dominates."
    )
    full_sizes = {"clients": 2, "requests": 800, "padding": 32 * 1024}

    def build(self, seed: int, sizes: dict) -> _ScmState:
        deployment = build_scm_deployment(seed=seed, log_events=False)
        bus, vep = _figure5_bus(deployment, PolicyRepository())
        bodies = _order_bodies(seed, sizes["clients"], sizes["requests"])
        plan = _order_plan(vep.address, bodies, timeout=30.0, think=0.0, padding=sizes["padding"])
        runner = WorkloadRunner(deployment.env, deployment.network)
        return _ScmState(deployment, bus, runner, [plan], sizes)

    def check(self, state, outcome):
        return _expect_no_failures(outcome)


def _storm_recovery_document():
    return retailer_recovery_policy_document(
        max_retries=1, retry_delay_seconds=0.5, jitter_fraction=0.5, max_delay_seconds=2.0
    )


class StormResilient(_ScmWorkload):
    name = "storm_resilient"
    why = (
        "Fault storm behind a 4-member VEP with retry/substitute and the resilience "
        "tier: wsbus recovery, resilience, policy and faultinjection work; traffic, "
        "federation and observability idle."
    )
    full_sizes = {"clients": 6, "requests": 700, "think": 0.5, "timeout": 8.0}

    def build(self, seed: int, sizes: dict) -> _ScmState:
        deployment = build_scm_deployment(seed=seed, log_events=False)
        deployment.inject_fault_storm()
        repository = PolicyRepository()
        repository.load(_storm_recovery_document())
        repository.load(resilience_policy_document())
        metrics = MetricsRegistry()
        bus, vep = _retailer_bus(deployment, repository, metrics)
        plan = catalog_plan(vep.address, timeout=sizes["timeout"], think=sizes["think"])
        runner = WorkloadRunner(deployment.env, deployment.network)
        return _ScmState(deployment, bus, runner, [plan], sizes, metrics=metrics)

    def check(self, state, outcome):
        problems = []
        stats = vars(state.bus.veps["retailers"].stats)
        if outcome.ops >= 600 and not stats.get("recovered"):
            problems.append("fault storm triggered no recovery")
        if outcome.ops >= 600 and not state.bus.resilience.transition_log():
            problems.append("fault storm tripped no circuit breaker")
        return problems


class OverloadShaped(_ScmWorkload):
    name = "overload_shaped"
    why = (
        "Flash crowd on slow retailers under cache+leveling+idempotency: traffic does "
        "most of the work; cached reads skip selection/transport/services, keyed "
        "writes beside them do not."
    )
    full_sizes = {
        "read_clients": 24,
        "write_clients": 8,
        "requests": 150,
        "think": 0.05,
        "timeout": 4.0,
        "max_inflight": 16,
        "processing_seconds": 0.25,
    }

    def ops(self, sizes: dict) -> int:
        return (sizes["read_clients"] + sizes["write_clients"]) * sizes["requests"]

    def build(self, seed: int, sizes: dict) -> _ScmState:
        deployment = build_scm_deployment(seed=seed, log_events=False)
        _slow_retailers(deployment, sizes["processing_seconds"])
        repository = PolicyRepository()
        repository.load(
            retailer_recovery_policy_document(max_retries=1, retry_delay_seconds=0.25)
        )
        repository.load(shed_only_policy_document(max_inflight=sizes["max_inflight"]))
        repository.load(traffic_policy_document())
        metrics = MetricsRegistry()
        bus, vep = _retailer_bus(deployment, repository, metrics)
        # run_many gives every plan the same client count, so the 3:1
        # read:write mix is three read plans beside one write plan.
        per_plan = sizes["write_clients"]
        read_plans = sizes["read_clients"] // per_plan
        bodies = _order_bodies(seed, per_plan, sizes["requests"])
        plans = [
            catalog_plan(vep.address, timeout=sizes["timeout"], think=sizes["think"])
            for _ in range(read_plans)
        ]
        plans.append(
            _order_plan(vep.address, bodies, sizes["timeout"], sizes["think"], padding=0)
        )
        runner = WorkloadRunner(deployment.env, deployment.network)
        state = _ScmState(deployment, bus, runner, plans, sizes, metrics=metrics)
        state.sizes = dict(sizes, clients_per_plan=per_plan)
        return state

    def check(self, state, outcome):
        problems = []
        counters = state.metrics.snapshot().get("counters", {})
        if not counters.get("wsbus.traffic.cache.hits", 0):
            problems.append("response cache never hit")
        idempotency = state.deployment.container.idempotency.stats()
        if idempotency["evicted"]:
            problems.append("idempotency records evicted: at-most-once not guaranteed")
        for name, retailer in sorted(state.deployment.retailers.items()):
            # open_orders is keyed by orderId, so a second execution of one
            # key at this service would leave the counter ahead of the map.
            if retailer.orders_fulfilled != len(retailer.open_orders):
                problems.append(f"retailer {name} executed an order twice")
        return problems

    def counters(self, state, outcome):
        data = super().counters(state, outcome)
        data["idempotency"] = state.deployment.container.idempotency.stats()
        return data


class Fleet4Failover(_ScmWorkload):
    name = "fleet4_failover"
    why = (
        "Four-shard fleet with SLO engine, sampled tracing, a bus crash and an endpoint "
        "outage: federation and observability work, off the request path; traffic "
        "and orchestration idle."
    )
    full_sizes = {
        "shards": 4,
        "partitions": 6,
        "clients_per_plan": 4,
        "requests": 140,
        "think": 0.05,
        "timeout": 8.0,
        "mediation_capacity": 6,
        "processing_seconds": 0.08,
        "sample_rate": 0.1,
    }

    def ops(self, sizes: dict) -> int:
        return sizes["partitions"] * sizes["clients_per_plan"] * sizes["requests"]

    def build(self, seed: int, sizes: dict) -> _ScmState:
        deployment = build_scm_deployment(seed=seed, log_events=False)
        _slow_retailers(deployment, sizes["processing_seconds"])
        tracer = Tracer()
        exporter = InMemoryExporter()
        tracer.add_exporter(exporter)
        tracer.rebind_clock(deployment.env)
        repository = PolicyRepository()
        repository.load(
            retailer_recovery_policy_document(max_retries=1, retry_delay_seconds=0.25)
        )
        repository.load(
            federation_policy_document(
                heartbeat_interval_seconds=0.5,
                suspicion_multiplier=3.0,
                gossip_interval_seconds=1.0,
                gossip_fanout=1,
                lease_seconds=3.0,
            )
        )
        # Storm-scaled windows, as in run_fleet_storm: a few seconds of
        # failed deliveries must burn the budget and emit violations.
        repository.load(
            slo_policy_document(
                window_seconds=60.0,
                fast_window_seconds=8.0,
                slow_window_seconds=16.0,
                fast_burn_threshold=4.0,
                slow_burn_threshold=1.5,
                evaluation_interval_seconds=1.0,
                min_requests=3,
            )
        )
        repository.load(tracing_policy_document(sample_rate=sizes["sample_rate"]))
        metrics = MetricsRegistry()
        fleet = BusFleet(
            deployment.env,
            deployment.network,
            shards=sizes["shards"],
            repository=repository,
            registry=deployment.registry,
            random_source=deployment.random_source,
            member_timeout=5.0,
            mediation_capacity=sizes["mediation_capacity"],
            tracer=tracer,
            metrics=metrics,
        )
        plans = []
        for index in range(sizes["partitions"]):
            vep = fleet.create_vep(
                f"retailers-p{index}",
                RETAILER_CONTRACT,
                members=deployment.retailer_addresses,
                selection_strategy="best_response_time",
            )
            plans.append(
                catalog_plan(vep.address, timeout=sizes["timeout"], think=sizes["think"])
            )
        # The run lasts about requests x 0.17 simulated seconds; the outage
        # opens a tenth of the way in and the leader dies a quarter in, so
        # both land mid-run at every --scale.
        span = sizes["requests"] * 0.17
        injector = BusCrashInjector(deployment.env, fleet, fleet.leader or "bus-0", span * 0.25)
        outage = deployment.network.fault_injection_target(deployment.retailer_addresses[0])

        def outage_window():
            yield deployment.env.timeout(span * 0.1)
            outage.available = False
            yield deployment.env.timeout(span * 0.1)
            outage.available = True

        deployment.env.process(outage_window(), name="bench-outage")
        runner = WorkloadRunner(deployment.env, deployment.network)
        return _ScmState(
            deployment,
            None,
            runner,
            plans,
            sizes,
            metrics=metrics,
            fleet=fleet,
            tracer=tracer,
            exporter=exporter,
            injector=injector,
        )

    def check(self, state, outcome):
        problems = []
        fleet = state.fleet
        if fleet.leader == state.injector.bus_name:
            # A run shorter than suspicion + lease (only at tiny --scale)
            # ends before the failover does; let it settle, then judge.
            state.deployment.env.run(until=state.deployment.env.now + 10.0)
        summary = fleet.stats_summary()
        if state.injector.crash_time is None:
            problems.append("bus crash never fired")
        live = set(summary["buses"])
        if fleet.leader is None or fleet.leader not in live:
            problems.append(f"no live leader (leader={fleet.leader!r})")
        if fleet.leader == state.injector.bus_name:
            problems.append("crashed bus still holds the lease")
        for vep, owner in summary["placement"].items():
            if owner not in live:
                problems.append(f"VEP {vep} placed on dead bus {owner}")
        return problems

    def counters(self, state, outcome):
        fleet = state.fleet
        return {
            "fleet": fleet.stats_summary(),
            "metrics": state.metrics.snapshot(),
            "slo_events": sum(len(bus.slo.events) for bus in fleet.buses.values()),
            "spans_finished": state.tracer.finished_count,
            "spans_exported": len(state.exporter.spans),
        }


# -- process-layer workload ----------------------------------------------------------

#: The six order profiles of EXPERIMENTS.md §2.2 and, for each, exactly
#: which variation activities must (True) / must not (False) execute.
#: Columns: convert-currency, pest-analysis, credit-rating, market-compliance.
ORDER_PROFILES = {
    "national": (dict(amount=50_000.0, country="AU"), (False, False, False, True)),
    "international": (
        dict(amount=20_000.0, country="US", currency="USD"),
        (True, True, False, True),
    ),
    "high_risk": (
        dict(amount=8_000.0, country="BR", currency="USD"),
        (True, True, False, False),
    ),
    "large_personal": (
        dict(amount=250_000.0, profile="personal"),
        (False, False, True, True),
    ),
    "corporate": (dict(amount=2_000.0, profile="corporate"), (False, False, True, False)),
    "small": (dict(amount=500.0), (False, False, False, False)),
}
#: The base national trade is the common case (3 orders in 8), each
#: customised profile 1 in 8; the seed shuffles the order, not the shares,
#: so the median round trip sits inside one profile's cluster.
ORDER_MIX = ["national"] * 3 + sorted(set(ORDER_PROFILES) - {"national"})
VARIATION_ACTIVITIES = ("convert-currency", "pest-analysis", "credit-rating", "market-compliance")


@dataclass
class _TradingState:
    deployment: object
    store: CheckpointStore
    orders: list
    sizes: dict
    instances: list = field(default_factory=list)


class TradingCustomized(Workload):
    name = "trading_customized"
    why = (
        "Process layer: policy-customized trading instances under strict checkpointing; "
        "orchestration, core, policy and persistence dominate; wsbus and its tiers idle."
    )
    full_sizes = {"requests": 200, "wave": 8}

    def ops(self, sizes: dict) -> int:
        return sizes["requests"]

    def build(self, seed: int, sizes: dict) -> _TradingState:
        deployment = build_trading_deployment(seed=seed)
        for document in (
            currency_conversion_policy_document(),
            pest_analysis_policy_document(),
            credit_rating_policy_document(),
            compliance_removal_policy_document(),
        ):
            deployment.masc.load_policies(serialize_policy_document(document))
        store = CheckpointStore(None)
        deployment.engine.add_service(CheckpointingService(store, strict=True))
        rng = random.Random(seed)
        count = sizes["requests"]
        profiles = (ORDER_MIX * (count // len(ORDER_MIX) + 1))[:count]
        rng.shuffle(profiles)
        orders = [(profile, f"investor-{rng.randrange(1000)}") for profile in profiles]
        return _TradingState(deployment, store, orders, sizes)

    def drive(self, state: _TradingState) -> Outcome:
        deployment = state.deployment
        env = deployment.env
        started = env.now
        wave = state.sizes["wave"]
        for offset in range(0, len(state.orders), wave):
            batch = [
                deployment.place_order(investor_id=investor, **ORDER_PROFILES[profile][0])
                for profile, investor in state.orders[offset : offset + wave]
            ]
            state.instances.extend(batch)
            env.run(env.all_of([instance.process for instance in batch]))
        finished = env.now
        created: dict[str, float] = {}
        ended: dict[str, float] = {}
        for event in deployment.masc.tracking.events:
            if event.kind == "instance_created":
                created[event.instance_id] = event.time
            elif event.kind in ("instance_completed", "instance_faulted", "instance_terminated"):
                ended[event.instance_id] = event.time
        instances = state.instances
        return Outcome(
            ops=len(state.orders),
            delivered=sum(1 for i in instances if i.status is InstanceStatus.COMPLETED),
            rtts=[ended[i.id] - created[i.id] for i in instances if i.id in ended],
            sim_seconds=finished - started,
            lost=sum(1 for i in instances if i.id not in ended),
        )

    def check(self, state, outcome):
        problems = []
        for (profile, _investor), instance in zip(state.orders, state.instances):
            if instance.status is not InstanceStatus.COMPLETED:
                problems.append(f"{instance.id} ({profile}) ended {instance.status.value}")
                continue
            expected = ORDER_PROFILES[profile][1]
            actual = tuple(name in instance.executed_activities for name in VARIATION_ACTIVITIES)
            if actual != expected:
                problems.append(
                    f"{instance.id} ({profile}) ran variations {actual}, expected {expected}"
                )
        return problems[:10]

    def counters(self, state, outcome):
        masc = state.deployment.masc
        records = state.store.records()
        kinds: dict[str, int] = {}
        for event in masc.tracking.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return {
            "tracking": kinds,
            "store_records": len(records),
            "store_bytes": sum(len(repr(record)) for record in records),
            "modifications": len(state.store.records(record_type="modification")),
            "adaptation_reports": len(masc.adaptation.reports),
            "decisions": len(masc.decision_maker.decisions),
        }


# -- the paper's headline matrix -----------------------------------------------------


@dataclass
class _Table1State:
    seeds: tuple
    sizes: dict
    rows: dict = field(default_factory=dict)


class Table1Matrix(Workload):
    name = "table1_matrix"
    why = (
        "The paper's Table 1: four direct configurations plus the VEP under the fault "
        "mix; faultinjection and kernel timers dominate, the bus is one cell in five."
    )
    full_sizes = {"seeds": 3, "clients": 4, "requests": 200}

    def ops(self, sizes: dict) -> int:
        return sizes["seeds"] * 5 * sizes["clients"] * sizes["requests"]

    def build(self, seed: int, sizes: dict) -> _Table1State:
        rng = random.Random(seed)
        seeds = tuple(rng.randrange(1, 1_000_000) for _ in range(sizes["seeds"]))
        return _Table1State(seeds, sizes)

    def drive(self, state: _Table1State) -> Outcome:
        sizes = state.sizes
        # regenerate_table1 returns only the table rows; the per-request
        # records are collected by observing WorkloadRunner.run from here.
        results = []
        original = WorkloadRunner.run

        def observed(runner, *args, **kwargs):
            result = original(runner, *args, **kwargs)
            results.append(result)
            return result

        WorkloadRunner.run = observed
        try:
            state.rows = regenerate_table1(
                seeds=state.seeds,
                clients=sizes["clients"],
                requests=sizes["requests"],
                jobs=1,
            )
        finally:
            WorkloadRunner.run = original
        records = [record for result in results for record in result.records]
        ops = self.ops(sizes)
        return Outcome(
            ops=ops,
            delivered=sum(1 for record in records if record.succeeded),
            rtts=[record.duration for record in records],
            sim_seconds=sum(result.duration for result in results),
            lost=ops - len(records),
        )

    def check(self, state, outcome):
        rows = state.rows
        vep = rows["VEP"][0]
        if outcome.ops < 5000:
            return []  # too few requests per cell for the ordering to be stable
        return [
            f"VEP failures/1000 {vep:.1f} not below direct {key} {rows[key][0]:.1f}"
            for key in "ABCD"
            if not vep < rows[key][0]
        ]

    def counters(self, state, outcome):
        errors = [abs(state.rows[key][0] - PAPER_TABLE1[key][0]) for key in PAPER_TABLE1]
        return {"table1_mean_abs_err_per_1000": sum(errors) / len(errors)}


# -- the tier ladder (per-layer pass only) -------------------------------------------


class LadderRung(_ScmWorkload):
    """The clean_small load with one more tier loaded per rung.

    Rungs are cumulative, so the difference between adjacent rungs is
    that tier's happy-path tax: nothing fails, nothing is cached, shed or
    levelled into waiting, yet the tier's code runs on every message.
    """

    full_sizes = {"clients": 2, "requests": 350, "padding": 0}

    def __init__(self, rung: str) -> None:
        self.rung = rung
        self.name = f"ladder.{rung}"
        self.level = LADDER_RUNGS.index(rung)

    def build(self, seed: int, sizes: dict) -> _ScmState:
        deployment = build_scm_deployment(seed=seed, log_events=False)
        level = self.level
        repository = PolicyRepository()
        if level >= 2:
            repository.load(resilience_policy_document())
        if level >= 3:
            # Cache scoped to submitOrder and a leveling rate the load never
            # reaches: getCatalog is stamped and levelled, not short-circuited.
            repository.load(
                traffic_policy_document(
                    cache_operation="submitOrder", rate_per_second=100_000.0, burst=64
                )
            )
        metrics = MetricsRegistry() if level >= 4 else None
        if level >= 4:
            repository.load(slo_policy_document())
        tracer = None
        if level >= 5:
            tracer = Tracer()
            tracer.add_exporter(InMemoryExporter())
            tracer.rebind_clock(deployment.env)
            rate = 0.1 if level == 5 else 1.0
            repository.load(tracing_policy_document(sample_rate=rate))
        target = deployment.retailers["C"].address
        bus = fleet = None
        if level == 7:
            repository.load(federation_policy_document())
            fleet = BusFleet(
                deployment.env,
                deployment.network,
                shards=4,
                repository=repository,
                registry=deployment.registry,
                random_source=deployment.random_source,
                member_timeout=30.0,
                colocated_with_clients=True,
                tracer=tracer,
                metrics=metrics,
            )
            vep = fleet.create_vep(
                "retailers", RETAILER_CONTRACT, members=[target], selection_strategy="primary"
            )
            target = vep.address
        elif level >= 1:
            bus, vep = _figure5_bus(
                deployment,
                repository,
                metrics=metrics,
                tracer=tracer,
                random_source=deployment.random_source if level >= 2 else None,
            )
            target = vep.address
        plan = catalog_plan(target, timeout=30.0, think=0.0, padding=sizes["padding"])
        runner = WorkloadRunner(deployment.env, deployment.network)
        return _ScmState(
            deployment, bus, runner, [plan], sizes, metrics=metrics, fleet=fleet, tracer=tracer
        )

    def check(self, state, outcome):
        return _expect_no_failures(outcome)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        CleanSmall(),
        CleanLarge(),
        StormResilient(),
        OverloadShaped(),
        Fleet4Failover(),
        TradingCustomized(),
        Table1Matrix(),
    )
}


def events_processed() -> int:
    """Kernel events processed by every environment of this interpreter."""
    return Environment.total_events_processed
