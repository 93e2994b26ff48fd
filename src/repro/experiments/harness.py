"""Deployment + workload harnesses for the SCM experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    build_scm_deployment,
    logging_skip_policy_document,
    resilience_policy_document,
    retailer_recovery_policy_document,
    slo_policy_document,
    traffic_policy_document,
)
from repro.metrics import describe, reliability_report
from repro.observability import MetricsRegistry
from repro.policy import (
    AdaptationPolicy,
    LoadSheddingAction,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
)
from repro.services import ProcessingModel
from repro.workload import RequestPlan, WorkloadRunner
from repro.wsbus import WsBus

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


@dataclass
class Table1Row:
    configuration: str
    failures_per_1000: float
    availability: float


def run_direct_configuration(
    retailer: str, seed: int, clients: int = 4, requests: int = 250
) -> Table1Row:
    """Direct point-to-point invocations of a single Retailer under the
    Table 1 fault mix."""
    deployment = build_scm_deployment(seed=seed, log_events=False)
    deployment.inject_table1_mix()
    runner = WorkloadRunner(deployment.env, deployment.network)
    result = runner.run(
        catalog_plan(deployment.retailers[retailer].address),
        clients=clients,
        requests_per_client=requests,
    )
    # Reliability comes from the request sample; availability is observed
    # over a much longer window (the injector keeps cycling after the
    # workload ends) so rare-outage retailers like C are not all-or-nothing.
    deployment.env.run(until=deployment.env.now + 50_000.0)
    deployment.availability_injector.finalize()
    log = deployment.availability_injector.logs[deployment.retailers[retailer].address]
    report = reliability_report(f"direct {retailer}", result.records)
    return Table1Row(
        configuration=f"Only Retailer {retailer} used by the client",
        failures_per_1000=report.failures_per_1000,
        availability=log.availability(deployment.env.now),
    )


def run_vep_configuration(
    seed: int,
    clients: int = 4,
    requests: int = 250,
    selection_strategy: str = "round_robin",
    broadcast: bool = False,
    max_retries: int = 3,
    retry_delay: float = 2.0,
    skip_logging_policy: bool = False,
    tracer=None,
):
    """All four Retailers behind one wsBus VEP, same fault mix.

    Returns (Table1Row, bus, workload_result). ``tracer`` (an
    :class:`~repro.observability.Tracer`) records the run's spans.
    """
    deployment = build_scm_deployment(seed=seed, log_events=False)
    deployment.inject_table1_mix()
    if tracer is not None:
        tracer.rebind_clock(deployment.env)
    repository = PolicyRepository()
    repository.load(
        retailer_recovery_policy_document(
            max_retries=max_retries, retry_delay_seconds=retry_delay
        )
    )
    if skip_logging_policy:
        repository.load(logging_skip_policy_document())
    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=repository,
        registry=deployment.registry,
        member_timeout=5.0,
        tracer=tracer,
    )
    vep = bus.create_vep(
        "retailers",
        RETAILER_CONTRACT,
        members=deployment.retailer_addresses,
        selection_strategy=selection_strategy,
        broadcast=broadcast,
    )
    runner = WorkloadRunner(deployment.env, deployment.network)
    result = runner.run(
        catalog_plan(vep.address, timeout=60.0),
        clients=clients,
        requests_per_client=requests,
    )
    report = reliability_report("wsBus VEP", result.records)
    row = Table1Row(
        configuration="All 4 Retailer services exposed as 1 wsBus VEP",
        failures_per_1000=report.failures_per_1000,
        availability=report.availability,
    )
    return row, bus, result


@dataclass
class StormResult:
    """Outcome of one fault-storm run (resilience on or off)."""

    resilience: bool
    total_requests: int
    delivered: int
    reliability: float
    failures_per_1000: float
    #: RTT statistics over *all* requests, failures included — a request
    #: that burns the full client timeout before failing still cost that
    #: time, so excluding it would flatter the arm with more failures.
    rtt_stats: dict[str, float]
    breaker_transitions: list[tuple[float, str, str, str]]
    metrics: dict
    bus: WsBus
    #: ``bus.slo.summary()`` when the SLO engine was active, else None.
    slo: dict | None = None

    @property
    def p99_rtt(self) -> float:
        return self.rtt_stats.get("p99", float("inf"))


def run_fault_storm(
    seed: int,
    resilience: bool,
    clients: int = 6,
    requests: int = 60,
    client_timeout: float = 8.0,
    tracer=None,
    slo: bool = False,
    extra_policies=(),
    on_tick=None,
    tick_interval: float = 10.0,
    flight_recorder=None,
) -> StormResult:
    """All four Retailers behind one VEP under the fault storm.

    The only difference between the two arms is whether the resilience
    policy document is loaded: with ``resilience=False`` the bus's
    :class:`~repro.resilience.ResilienceService` stays inactive and every
    send follows the pre-resilience code path. Both arms share the same
    recovery policies (retry with jitter, then substitute) so the ablation
    isolates the breaker/bulkhead/adaptive-timeout/shedding contribution.

    With ``slo=True`` the SCM SLO policy document is also loaded, turning
    on the full feedback loop: the bus's
    :class:`~repro.observability.slo.SloService` watches per-endpoint
    availability and emits burn-rate events that the reaction policy turns
    into a selection-strategy switch. ``on_tick`` (a callable receiving the
    bus) runs every ``tick_interval`` simulated seconds alongside the
    workload — the hook behind ``python -m repro top``. A
    ``flight_recorder`` (already registered on the tracer by the caller)
    additionally receives every SLO event via
    :meth:`~repro.observability.ops.FlightRecorder.record_event`.
    """
    deployment = build_scm_deployment(seed=seed, log_events=False)
    deployment.inject_fault_storm()
    if tracer is not None:
        tracer.rebind_clock(deployment.env)
    repository = PolicyRepository()
    repository.load(
        retailer_recovery_policy_document(
            max_retries=1,
            retry_delay_seconds=0.5,
            jitter_fraction=0.5,
            max_delay_seconds=2.0,
        )
    )
    if resilience:
        repository.load(resilience_policy_document())
    if slo:
        repository.load(slo_policy_document())
    # Further policy documents the experiment should run under — e.g. a
    # ``Tracing`` assertion controlling head-based trace sampling.
    for document in extra_policies:
        repository.load(document)
    metrics = MetricsRegistry()
    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=repository,
        registry=deployment.registry,
        random_source=deployment.random_source,
        member_timeout=5.0,
        tracer=tracer,
        metrics=metrics,
    )
    if flight_recorder is not None:
        bus.slo.add_sink(flight_recorder.record_event)
    vep = bus.create_vep(
        "retailers",
        RETAILER_CONTRACT,
        members=deployment.retailer_addresses,
        selection_strategy="round_robin",
    )
    if on_tick is not None:

        def _ticker():
            while True:
                yield deployment.env.timeout(tick_interval)
                on_tick(bus)

        deployment.env.process(_ticker(), name="storm-ticker")
    runner = WorkloadRunner(deployment.env, deployment.network)
    result = runner.run(
        catalog_plan(vep.address, timeout=client_timeout, think=0.5),
        clients=clients,
        requests_per_client=requests,
    )
    report = reliability_report("fault storm", result.records)
    total = len(result.records)
    delivered = len(result.successes)
    return StormResult(
        resilience=resilience,
        total_requests=total,
        delivered=delivered,
        reliability=delivered / total if total else 0.0,
        failures_per_1000=report.failures_per_1000,
        rtt_stats=describe([record.duration for record in result.records]),
        breaker_transitions=bus.resilience.transition_log(),
        metrics=metrics.snapshot(),
        bus=bus,
        slo=bus.slo.summary() if bus.slo.active else None,
    )


@dataclass
class OverloadStormResult:
    """Outcome of one overload-storm run (shed-only vs traffic shaping)."""

    mode: str
    total_requests: int
    delivered: int
    reliability: float
    failures_per_1000: float
    #: RTT statistics over *all* requests, failures included (same
    #: rationale as :class:`StormResult`).
    rtt_stats: dict[str, float]
    #: ``failure_rate / (1 - availability_target/100)`` — how many error
    #: budgets at the availability target this run burned. 1.0 means the
    #: budget is exactly exhausted; 50.0 means a 50x overspend.
    error_budget_burn: float
    shed: int
    throttled: int
    leveled: int
    cache_hits: int
    idempotency: dict
    #: ``bus.traffic.summary()`` when the traffic tier was active, else None.
    traffic: dict | None
    metrics: dict
    bus: WsBus

    @property
    def p99_rtt(self) -> float:
        return self.rtt_stats.get("p99", float("inf"))


def shed_only_policy_document(max_inflight: int = 16) -> PolicyDocument:
    """Just the unscoped load-shedding gate — the blunt overload control.

    The overload ablation's baseline arm: reject everything past
    ``max_inflight`` concurrent mediations with a retryable
    ``ServiceUnavailable``. No breakers, no bulkheads, no adaptive
    timeouts — so the comparison against the traffic-shaping arm
    isolates cache + leveling against shedding alone.
    """
    document = PolicyDocument("overload-shed-only")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="bus-load-shedding",
            triggers=("resilience.configure",),
            scope=PolicyScope(),
            actions=(LoadSheddingAction(max_inflight=max_inflight),),
            priority=10,
            adaptation_type="prevention",
        )
    )
    return document


def run_overload_storm(
    seed: int,
    traffic: bool,
    clients: int = 32,
    requests: int = 120,
    client_timeout: float = 4.0,
    availability_target: float = 99.0,
    max_inflight: int = 16,
    processing_seconds: float = 0.25,
) -> OverloadStormResult:
    """A flash crowd against one slow Retailer VEP: shed-only vs shaped.

    No fault injection — the overload *is* the fault. Every Retailer's
    processing model is slowed to ``processing_seconds`` so a burst of
    ``clients`` concurrent ``getCatalog`` callers (think time 50ms) far
    exceeds the fleet's service rate. Both arms load the same unscoped
    shedding gate (:func:`shed_only_policy_document`); the ``traffic``
    arm additionally loads :func:`traffic_policy_document` — response
    cache + load leveling + idempotency keys. The ablation switch is
    purely which policies are loaded, so the shed-only arm runs the
    byte-identical pre-traffic mediation path.

    The headline numbers: p99 RTT over all requests and
    ``error_budget_burn`` — the failure rate expressed in multiples of
    the error budget at ``availability_target``.
    """
    deployment = build_scm_deployment(seed=seed, log_events=False)
    for retailer in deployment.retailers.values():
        retailer.processing = ProcessingModel(
            base_seconds=processing_seconds,
            per_kb_seconds=0.0,
            jitter_fraction=0.1,
        )
    repository = PolicyRepository()
    repository.load(
        retailer_recovery_policy_document(max_retries=1, retry_delay_seconds=0.25)
    )
    repository.load(shed_only_policy_document(max_inflight=max_inflight))
    if traffic:
        repository.load(traffic_policy_document())
    metrics = MetricsRegistry()
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
    runner = WorkloadRunner(deployment.env, deployment.network)
    result = runner.run(
        catalog_plan(vep.address, timeout=client_timeout, think=0.05),
        clients=clients,
        requests_per_client=requests,
    )
    report = reliability_report("overload storm", result.records)
    total = len(result.records)
    delivered = len(result.successes)
    reliability = delivered / total if total else 0.0
    budget = 1.0 - availability_target / 100.0
    shedder = bus.resilience.shedder
    snapshot = metrics.snapshot()
    counters = snapshot.get("counters", {})
    return OverloadStormResult(
        mode="traffic" if traffic else "shed",
        total_requests=total,
        delivered=delivered,
        reliability=reliability,
        failures_per_1000=report.failures_per_1000,
        rtt_stats=describe([record.duration for record in result.records]),
        error_budget_burn=(1.0 - reliability) / budget if budget > 0 else float("inf"),
        shed=shedder.shed_total if shedder is not None else 0,
        throttled=counters.get("wsbus.traffic.throttled", 0),
        leveled=counters.get("wsbus.traffic.leveled", 0),
        cache_hits=counters.get("wsbus.traffic.cache.hits", 0),
        idempotency=deployment.container.idempotency.stats(),
        traffic=bus.traffic.summary() if bus.traffic.active else None,
        metrics=snapshot,
        bus=bus,
    )


def run_rtt_point(
    operation: str,
    padding: int,
    through_bus: bool,
    seed: int = 21,
    clients: int = 2,
    requests: int = 150,
    tracer=None,
):
    """One Figure 5 data point: mean RTT at one request size.

    No fault injection — Figure 5 measures pure mediation overhead.
    """
    deployment = build_scm_deployment(seed=seed, log_events=False)
    target = deployment.retailers["C"].address
    if through_bus:
        if tracer is not None:
            tracer.rebind_clock(deployment.env)
        # Client-side deployment, as in the paper's Figure 5 setup: the
        # client reaches wsBus over loopback and wsBus crosses the LAN.
        bus = WsBus(
            deployment.env,
            deployment.network,
            repository=PolicyRepository(),
            registry=deployment.registry,
            member_timeout=30.0,
            colocated_with_clients=True,
            tracer=tracer,
        )
        vep = bus.create_vep(
            "retailers", RETAILER_CONTRACT, members=[target], selection_strategy="primary"
        )
        target = vep.address
    plan = (
        catalog_plan(target, timeout=30.0, think=0.0, padding=padding)
        if operation == "getCatalog"
        else order_plan(target, timeout=30.0, think=0.0, padding=padding)
    )
    runner = WorkloadRunner(deployment.env, deployment.network)
    result = runner.run(plan, clients=clients, requests_per_client=requests)
    stats = result.rtt_stats()
    return stats["mean"], result


@dataclass
class CrashRecoveryResult:
    """Outcome of one crash-recovery scenario run.

    ``equivalent`` is the acceptance check: the killed-and-rehydrated run
    must end with the same result, the same final variables, and the same
    tracking-event sequence (pre-crash events + post-recovery live events,
    replay markers excluded) as the uninterrupted same-seed run.
    """

    process: str
    seed: int
    crash_after_completions: int
    crash_time: float | None
    checkpoints: int
    journal_records: int
    replayed_activities: int
    reference_status: str
    recovered_status: str
    result_match: bool
    variables_match: bool
    events_match: bool
    divergences: list[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return (
            self.recovered_status == self.reference_status == "completed"
            and self.result_match
            and self.variables_match
            and self.events_match
        )


def _scm_composition(seed: int):
    """A fresh SCM backend plus the purchase composition definition."""
    from repro.casestudies.scm.process import build_scm_process
    from repro.orchestration import TrackingService, WorkflowEngine

    deployment = build_scm_deployment(seed=seed, log_events=False)
    definition = build_scm_process(
        deployment.retailers["C"].address, deployment.logging.address
    )

    def make_engine():
        engine = WorkflowEngine(deployment.env, network=deployment.network)
        engine.add_service(TrackingService())
        return engine

    return deployment.env, make_engine, definition


def _trading_composition(seed: int):
    """A fresh stock-trading backend plus the base trading definition."""
    from repro.casestudies.stocktrading import (
        build_trading_deployment,
        build_trading_process,
    )
    from repro.orchestration import TrackingService, WorkflowEngine

    deployment = build_trading_deployment(seed=seed, start_notifications=False)
    masc = deployment.masc
    definition = build_trading_process(
        fund_manager_address=deployment.fund_manager.address,
        analysis_address=deployment.analysis_services[0].address,
        compliance_address=deployment.compliance.address,
        market_address=deployment.market.address,
    )

    def make_engine():
        engine = WorkflowEngine(masc.env, network=masc.network, registry=masc.registry)
        engine.add_service(TrackingService())
        return engine

    return masc.env, make_engine, definition


def _scm_saga_composition(seed: int):
    """The SCM purchase saga, aborting after payment so it unwinds."""
    from repro.casestudies.scm.process import build_scm_saga_process
    from repro.orchestration import TrackingService, WorkflowEngine

    deployment = build_scm_deployment(seed=seed, log_events=False)
    definition = build_scm_saga_process(
        deployment.retailers["C"].address, deployment.logging.address, abort=True
    )

    def make_engine():
        engine = WorkflowEngine(deployment.env, network=deployment.network)
        engine.add_service(TrackingService())
        return engine

    return deployment.env, make_engine, definition


def _trading_saga_composition(seed: int):
    """The trading unwind-position saga, aborting after the trade."""
    from repro.casestudies.stocktrading import (
        build_trading_deployment,
        build_trading_saga_process,
    )
    from repro.orchestration import TrackingService, WorkflowEngine

    deployment = build_trading_deployment(seed=seed, start_notifications=False)
    masc = deployment.masc
    definition = build_trading_saga_process(
        fund_manager_address=deployment.fund_manager.address,
        analysis_address=deployment.analysis_services[0].address,
        market_address=deployment.market.address,
        payment_address=deployment.payment.address,
        abort=True,
    )

    def make_engine():
        engine = WorkflowEngine(masc.env, network=masc.network, registry=masc.registry)
        engine.add_service(TrackingService())
        return engine

    return masc.env, make_engine, definition


_CRASH_COMPOSITIONS = {
    "scm": _scm_composition,
    "trading": _trading_composition,
    "scm-saga": _scm_saga_composition,
    "trading-saga": _trading_saga_composition,
}


def count_crash_boundaries(process: str, seed: int = 0) -> int:
    """Activity-completion boundaries a clean run passes.

    Every value in ``range(1, count + 1)`` is a distinct kill point for
    :func:`run_crash_recovery`'s ``crash_after_completions`` — for the saga
    compositions that includes each *compensation* activity's boundary.
    """
    from repro.orchestration import RuntimeService

    builder = _CRASH_COMPOSITIONS.get(process)
    if builder is None:
        raise ValueError(f"unknown crash-recovery process {process!r}")
    env, make_engine, definition = builder(seed)
    engine = make_engine()
    engine.register_definition(definition)

    class _Counter(RuntimeService):
        def __init__(self) -> None:
            self.count = 0

        def activity_completed(self, instance, activity) -> None:
            self.count += 1

    counter = _Counter()
    engine.add_service(counter)
    instance = engine.start(definition.name)
    env.run(instance.process)
    return counter.count


def run_crash_recovery(
    process: str = "scm",
    seed: int = 0,
    crash_after_completions: int = 2,
    store_path=None,
) -> CrashRecoveryResult:
    """Kill the engine mid-flight and prove checkpoint recovery is exact.

    Two same-seed deployments run the same composition. The reference run
    is uninterrupted. In the crash run a
    :class:`~repro.faultinjection.ProcessCrashInjector` kills the engine
    after ``crash_after_completions`` activity completions; the instance is
    then rehydrated from the checkpoint store into a *fresh* engine on the
    same simulation and driven to completion. Because the crash freezes the
    instance at an activity boundary and replay fast-forwards completed
    work, the recovered run must be byte-identical to the reference.
    """
    from repro.faultinjection import ProcessCrashInjector
    from repro.orchestration import TrackingService
    from repro.persistence import CheckpointStore, CheckpointingService, encode_value

    builder = _CRASH_COMPOSITIONS.get(process)
    if builder is None:
        raise ValueError(f"unknown crash-recovery process {process!r}")

    # Reference (uninterrupted) run on its own same-seed deployment.
    ref_env, make_ref_engine, ref_definition = builder(seed)
    ref_engine = make_ref_engine()
    ref_engine.register_definition(ref_definition)
    reference = ref_engine.start(ref_definition.name)
    ref_env.run(reference.process)
    ref_tracking = ref_engine.service_of_type(TrackingService)
    ref_events = [
        (event.kind, event.activity_name)
        for event in ref_tracking.events_for(reference.id)
    ]

    # Crash run: checkpointing on, engine killed mid-flight.
    env, make_engine, definition = builder(seed)
    with CheckpointStore(store_path) as store:
        doomed_engine = make_engine()
        doomed_engine.add_service(CheckpointingService(store, strict=True))
        injector = ProcessCrashInjector(env, crash_after_completions)
        doomed_engine.add_service(injector)
        doomed_engine.register_definition(definition)
        doomed = doomed_engine.start(definition.name)
        env.run(until=injector.crashed_event)
        pre_events = [
            (event.kind, event.activity_name)
            for event in doomed_engine.service_of_type(TrackingService).events_for(doomed.id)
        ]

        # Recovery: rehydrate into a fresh engine on the same simulation. When
        # the crash landed after the last freeze point the instance drained to
        # completion synchronously — the store's final checkpoint records the
        # outcome and a real recovery manager would not rehydrate at all.
        if doomed.status.is_final:
            recovered = doomed
            replayed = 0
            live_tail: list[tuple[str, str | None]] = []
        else:
            recovery_engine = make_engine()
            recovery_engine.add_service(CheckpointingService(store, strict=True))
            recovered = recovery_engine.rehydrate(store, doomed.id)
            env.run(recovered.process)

            post_events = [
                (event.kind, event.activity_name)
                for event in recovery_engine.service_of_type(TrackingService).events_for(
                    recovered.id
                )
            ]
            replayed = sum(1 for kind, _name in post_events if kind == "activity_replayed")
            live_tail = [
                event
                for event in post_events
                if event[0] not in ("activity_replayed", "instance_rehydrated")
            ]

    divergences: list[str] = []
    result_match = encode_value(reference.result) == encode_value(recovered.result)
    if not result_match:
        divergences.append(
            f"result: reference {reference.result!r} != recovered {recovered.result!r}"
        )
    try:
        variables_match = {
            name: encode_value(value) for name, value in reference.variables.items()
        } == {name: encode_value(value) for name, value in recovered.variables.items()}
    except Exception as error:  # noqa: BLE001 - comparison must not crash the report
        variables_match = False
        divergences.append(f"variables not comparable: {error}")
    else:
        if not variables_match:
            differing = sorted(
                name
                for name in set(reference.variables) | set(recovered.variables)
                if encode_value(reference.variables.get(name))
                != encode_value(recovered.variables.get(name))
            )
            divergences.append(f"variables diverged: {differing}")
    events_match = ref_events == pre_events + live_tail
    if not events_match:
        divergences.append(
            f"tracking events diverged: reference {len(ref_events)} events, "
            f"recovered {len(pre_events)} pre-crash + {len(live_tail)} live"
        )

    return CrashRecoveryResult(
        process=process,
        seed=seed,
        crash_after_completions=crash_after_completions,
        crash_time=injector.crash_time,
        checkpoints=len(store.records(record_type="checkpoint")),
        journal_records=len(store.records(record_type="modification")),
        replayed_activities=replayed,
        reference_status=reference.status.value,
        recovered_status=recovered.status.value,
        result_match=result_match,
        variables_match=variables_match,
        events_match=events_match,
        divergences=divergences,
    )
