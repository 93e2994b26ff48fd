"""The crash-recovery harness: kill the engine mid-process, prove recovery exact."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.casestudies.scm import build_scm_deployment
from repro.casestudies.scm.process import build_scm_process, build_scm_saga_process
from repro.casestudies.stocktrading import (
    build_trading_deployment,
    build_trading_process,
    build_trading_saga_process,
)
from repro.faultinjection import ProcessCrashInjector
from repro.orchestration import TrackingService, WorkflowEngine
from repro.persistence import CheckpointingService, CheckpointStore, encode_value

__all__ = [
    "CRASH_PROCESSES",
    "CrashRecoveryResult",
    "count_crash_boundaries",
    "run_crash_recovery",
]


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


def _scm(seed: int):
    deployment = build_scm_deployment(seed=seed, log_events=False)
    # The SCM compositions invoke concrete addresses: no registry.
    return deployment, deployment.env, deployment.network, None


def _trading(seed: int):
    deployment = build_trading_deployment(seed=seed, start_notifications=False)
    masc = deployment.masc
    return deployment, masc.env, masc.network, masc.registry


#: Each crash-recovery process: its deployment (``seed`` -> deployment, env,
#: network, registry) and its definition on that deployment. The sagas
#: abort after payment/the trade, so they unwind through compensation.
CRASH_PROCESSES = {
    "scm": (
        _scm,
        lambda d: build_scm_process(d.retailers["C"].address, d.logging.address),
    ),
    "trading": (
        _trading,
        lambda d: build_trading_process(
            fund_manager_address=d.fund_manager.address,
            analysis_address=d.analysis_services[0].address,
            compliance_address=d.compliance.address,
            market_address=d.market.address,
        ),
    ),
    "scm-saga": (
        _scm,
        lambda d: build_scm_saga_process(
            d.retailers["C"].address, d.logging.address, abort=True
        ),
    ),
    "trading-saga": (
        _trading,
        lambda d: build_trading_saga_process(
            fund_manager_address=d.fund_manager.address,
            analysis_address=d.analysis_services[0].address,
            market_address=d.market.address,
            payment_address=d.payment.address,
            abort=True,
        ),
    ),
}


def _composition(process: str, seed: int):
    """(env, engine factory, definition) on a fresh same-seed deployment."""
    if process not in CRASH_PROCESSES:
        raise ValueError(f"unknown crash-recovery process {process!r}")
    deploy, define = CRASH_PROCESSES[process]
    deployment, env, network, registry = deploy(seed)

    def make_engine():
        engine = WorkflowEngine(env, network=network, registry=registry)
        engine.add_service(TrackingService())
        return engine

    return env, make_engine, define(deployment)


def _reference(process: str, seed: int):
    """The uninterrupted run: (instance, its tracking events, its boundaries)."""
    env, make_engine, definition = _composition(process, seed)
    engine = make_engine()
    engine.register_definition(definition)
    instance = engine.start(definition.name)
    env.run(instance.process)
    events = [
        (event.kind, event.activity_name)
        for event in engine.service_of_type(TrackingService).events_for(instance.id)
    ]
    boundaries = sum(1 for kind, _name in events if kind == "activity_completed")
    return instance, events, boundaries


def count_crash_boundaries(process: str, seed: int = 0) -> int:
    """Activity-completion boundaries a clean run passes.

    Every value in ``range(1, count + 1)`` is a distinct kill point for
    :func:`run_crash_recovery`'s ``crash_after_completions`` — for the saga
    compositions that includes each *compensation* activity's boundary.
    """
    return _reference(process, seed)[2]


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
    A kill point past the last boundary raises :exc:`ValueError`.
    """
    reference, ref_events, boundaries = _reference(process, seed)
    if crash_after_completions > boundaries:
        raise ValueError(
            f"{process!r} at seed {seed} passes {boundaries} activity boundaries; "
            f"cannot crash after {crash_after_completions}"
        )

    # Crash run: checkpointing on, engine killed mid-flight.
    env, make_engine, definition = _composition(process, seed)
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
