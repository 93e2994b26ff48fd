"""Command-line interface: reproduce the paper's experiments.

Usage::

    python -m repro table1 [--seeds 11 23 47] [--requests 250] [--jobs 4] [--trace spans.jsonl]
    python -m repro figure5 [--requests 150] [--jobs 4] [--trace spans.jsonl]
    python -m repro storm [--seed 7] [--requests 60] [--jobs 2] [--trace PATH] [--slo] [--report PATH]
    python -m repro storm --crash-engine [--seed 7] [--sagas] [--journal DIR]
    python -m repro storm --traffic [--seed 7] [--report report.json]
    python -m repro storm --fleet 4 [--seed 7] [--report report.json]
    python -m repro replay JOURNAL [--instance ID] [--at SEQ] [--diff OTHER] [--verify]
    python -m repro trace SPANS [SPANS ...] [--slowest N] [--tree ID] [--critical-path] [--attribution] [--report PATH]
    python -m repro top [--seed 7] [--interval 10]
    python -m repro scenarios
    python -m repro quickcheck

``--jobs N`` runs the independent experiment cells on a pool of up to N
worker processes, opened for the run and closed at its end, one task per
cell (see ``docs/performance.md``); results are byte-identical to a
sequential run because every cell is independently seeded and the merge
order is fixed by cell key.
``--trace PATH`` records every middleware span of the bus-mediated runs
to a JSONL file (one span per line; see ``docs/observability.md``) and
forces ``--jobs 1`` — spans are recorded in-process, so sharded workers
could not share one exporter. For ``storm`` it additionally writes a
flight-recorder dump (``PATH.flight.json``) and a Prometheus metrics
snapshot (``PATH.prom``) next to the span file.
``storm --slo`` loads the SCM SLO policy document and closes the feedback
loop: burn-rate events drive a selection-strategy switch (see
``docs/slo.md``).
``storm --traffic`` swaps the fault storm for the overload (flash-crowd)
ablation: shed-only admission control vs the policy-driven traffic tier
(response cache + load leveling + idempotency keys, see
``docs/traffic.md``).
``storm --fleet N`` swaps the fault storm for the federation ablation:
the same partitioned Retailer workload through one capacity-bounded bus
vs an N-shard :class:`~repro.federation.BusFleet` (consistent-hash VEP
placement, gossip QoS, leader-elected adaptation — see
``docs/federation.md``).
Each of the three ablations is two :class:`~repro.experiments.Scenario`
arms run through :func:`~repro.experiments.run_cells`, one table, an
optional ``--report PATH`` (both arms as JSON) and, for ``--traffic`` and
``--fleet``, an exit status that gates on the treated arm winning. A flag
the chosen ``storm`` mode does not read (``STORM_FLAGS``) exits 2 with one
line naming it.
``top`` runs a short SLO-enabled storm and renders the live per-endpoint
operations table every ``--interval`` simulated seconds.
``storm --crash-engine`` swaps the resilience ablation for the durability
scenario: it kills the workflow engine mid-process, rehydrates the
checkpointed instance in a fresh engine, and verifies the recovered run
finishes identically to an uninterrupted one (see ``docs/persistence.md``).
``--sagas`` extends the crash matrix to the compensation case studies
(the SCM cancel-order saga and the trading unwind-position saga) and
sweeps *every* activity boundary — including each compensation step — so
crashes landing mid-compensation are recovered too (see ``docs/sagas.md``).
``--journal DIR`` keeps each crash run's event journal as a JSONL file in
``DIR`` and verifies every stored checkpoint byte-matches its
journal-derived snapshot.
``replay`` is the journal debugger: list a journal's domain events, print
the reconstructed activity tree and variables at any sequence number
(``--at SEQ``), diff two same-seed journals (``--diff OTHER``), or check
checkpoint/journal byte-identity (``--verify``).
``trace`` is the trace analyzer: it merges any mix of ``--trace`` JSONL
files and flight-recorder dumps from one run, lists the slowest traces,
renders one trace's span tree (``--tree ID``), extracts the critical
path (``--critical-path``) and attributes every simulated second of it
to a phase — queue-wait / mediation / network / service-execution /
adaptation (``--attribution``; the phases must sum to the critical-path
duration, enforced with a non-zero exit otherwise). See
``docs/tracing.md``.
``quickcheck`` runs a fast, low-volume version of everything — a smoke
test that the full stack works on this machine in a few seconds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from repro.experiments import (
    Cell,
    fault_storm,
    fleet_storm,
    overload_storm,
    regenerate_figure5,
    regenerate_table1,
    render_figure5,
    render_table1,
    run,
    run_cells,
)

__all__ = ["main"]


def _make_tracer(args: argparse.Namespace):
    """(tracer, exporter) for ``--trace PATH``, or (None, None)."""
    if not getattr(args, "trace", None):
        return None, None
    from repro.observability import JsonlExporter, Tracer

    tracer = Tracer()
    exporter = tracer.add_exporter(JsonlExporter(args.trace))
    return tracer, exporter


def _close_tracer(tracer, exporter, path) -> None:
    if tracer is None:
        return
    tracer.close()
    print(f"\nwrote {exporter.exported} spans to {path}")


def _effective_jobs(args: argparse.Namespace, tracer) -> int:
    """The worker count for a run; tracing forces 1 (spans are in-process)."""
    jobs = max(1, getattr(args, "jobs", 1))
    if tracer is not None and jobs > 1:
        print("--trace records spans in-process; forcing --jobs 1", file=sys.stderr)
        return 1
    return jobs


def _cmd_table1(args: argparse.Namespace) -> int:
    tracer, exporter = _make_tracer(args)
    rows = regenerate_table1(
        seeds=tuple(args.seeds),
        clients=args.clients,
        requests=args.requests,
        tracer=tracer,
        jobs=_effective_jobs(args, tracer),
    )
    print(render_table1(rows))
    _close_tracer(tracer, exporter, args.trace)
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    tracer, exporter = _make_tracer(args)
    series = regenerate_figure5(
        requests=args.requests,
        tracer=tracer,
        jobs=_effective_jobs(args, tracer),
    )
    print(render_figure5(series))
    _close_tracer(tracer, exporter, args.trace)
    return 0


#: The flags (argparse destinations) each ``storm`` mode reads besides
#: ``--seed``; any other storm flag on the command line exits 2.
STORM_FLAGS = {
    "resilience": {"clients", "requests", "slo", "trace", "report", "jobs"},
    "traffic": {"traffic", "clients", "requests", "report", "jobs"},
    "fleet": {"fleet", "clients", "requests", "trace", "report", "jobs"},
    "crash_engine": {"crash_engine", "sagas", "journal"},
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _cmd_storm(args: argparse.Namespace) -> int:
    given = set(vars(args)) - {"command", "handler", "seed"}
    mode = next((m for m in ("crash_engine", "traffic", "fleet") if m in given), "resilience")
    unread = sorted(given - STORM_FLAGS[mode])
    if unread:
        selector = "" if mode == "resilience" else f" {_flag(mode)}"
        print(f"storm{selector}: {_flag(unread[0])} does not apply", file=sys.stderr)
        return 2
    if mode == "crash_engine":
        return _run_crash_storm(args)
    if mode == "fleet" and args.fleet < 2:
        print("--fleet needs at least 2 shards to compare against one bus", file=sys.stderr)
        return 2
    return _run_ablation(_ABLATIONS[mode], args)


@dataclass(frozen=True)
class _Ablation:
    """One two-arm ``storm`` ablation: its arms, table, report and bar."""

    title: str
    #: ``(args, **mix)`` -> ``[(label, Scenario)] * 2``, ``mix`` holding the
    #: ``--clients``/``--requests`` given; ``--trace`` follows the second arm.
    arms: Callable
    #: The first column's header (it holds the arm's label), then
    #: ``(header, cell(result))`` per further column.
    label_header: str
    columns: tuple
    #: ``(baseline, treated)``: printed after the table.
    details: Callable
    #: The treated arm's scenario -> the report's leading fields.
    report: Callable
    #: ``(label, result)`` -> one arm of the report.
    report_arm: Callable
    #: ``(path, recorder, treated)``: write and announce the flight dump.
    artifacts: Callable | None = None
    #: ``(baseline, treated)`` -> why the treated arm missed the bar, or None.
    gate: Callable | None = None


def _run_ablation(ablation: _Ablation, args: argparse.Namespace) -> int:
    """Two arms -> run_cells -> one table -> optional report -> exit gate."""
    import json

    from repro.metrics import Table

    mix = {name: getattr(args, name) for name in ("clients", "requests") if name in args}
    arms = ablation.arms(args, **mix)
    tracer, exporter = _make_tracer(args)
    jobs = _effective_jobs(args, tracer)
    recorder = None
    if tracer is None:
        cells = [Cell((index,), run, {"scenario": arm}) for index, (_, arm) in enumerate(arms)]
        merged = run_cells(cells, jobs=jobs)
        results = list(merged.values())
    else:
        # Spans, the flight recorder and the traced arm's live bus belong
        # to this process: run both arms inline, tracing the second.
        from repro.observability import FlightRecorder

        recorder = tracer.add_exporter(FlightRecorder(tracer=tracer))
        (_, baseline), (_, treated) = arms
        results = [run(baseline), run(treated, tracer=tracer, flight_recorder=recorder)]
    labels = [label for label, _ in arms]
    table = Table(
        [ablation.label_header] + [header for header, _ in ablation.columns],
        title=ablation.title,
    )
    for label, result in zip(labels, results):
        table.add_row([label] + [cell(result) for _, cell in ablation.columns])
    print(table.render())
    ablation.details(*results)
    if "report" in args:
        payload = {
            **ablation.report(arms[1][1]),
            "arms": [ablation.report_arm(*arm) for arm in zip(labels, results)],
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote ablation report to {args.report}")
    if recorder is not None:
        ablation.artifacts(args.trace, recorder, results[1])
        _close_tracer(tracer, exporter, args.trace)
    # The acceptance bar, enforced here too so CI can gate on the exit code.
    missed = ablation.gate(*results) if ablation.gate is not None else None
    if missed:
        print(missed, file=sys.stderr)
        return 1
    return 0


_DELIVERED = ("Delivered", lambda r: f"{r.delivered}/{r.total_requests}")
_RELIABILITY = ("Reliability", lambda r: f"{r.reliability:.4f}")


def _rtt(quantile: str, digits: int):
    return f"{quantile} RTT", lambda r: f"{r.rtt_stats.get(quantile, 0.0):.{digits}f}s"


def _outcome(result) -> dict:
    """The report fields every arm carries."""
    return {
        "total_requests": result.total_requests,
        "delivered": result.delivered,
        "reliability": result.reliability,
    }


def _resilience_details(_off, on) -> None:
    if on.breaker_transitions:
        print("\nBreaker transition log (resilience on):")
        for time, endpoint, from_state, to_state in on.breaker_transitions:
            print(f"  t={time:9.3f}s  {endpoint}  {from_state} -> {to_state}")
    shed = {
        name: value
        for name, value in on.metrics["counters"].items()
        if "resilience" in name or name.endswith(".shed")
    }
    if shed:
        print("\nResilience counters (on):")
        for name, value in sorted(shed.items()):
            print(f"  {name}: {value}")
    if on.slo is not None:
        print("\nSLO events (resilience on):")
        for event in on.slo["events"]:
            print(
                f"  t={event['time']:9.3f}s  {event['name']}  {event['endpoint']}"
                f"  fast_burn={event['fast_burn']:.1f}x"
            )


def _resilience_artifacts(path, recorder, on) -> None:
    flight_path = f"{path}.flight.json"
    recorder.dump(flight_path, reason="storm-complete")
    prom_path = f"{path}.prom"
    with open(prom_path, "w", encoding="utf-8") as handle:
        handle.write(on.bus.metrics.render_prometheus())
    print(f"\nwrote flight-recorder dump to {flight_path}")
    print(f"wrote Prometheus snapshot to {prom_path}")


def _traffic_details(_shed, shaped) -> None:
    if shaped.traffic is not None:
        print("\nTraffic tier (shaped arm):")
        for name, value in sorted(shaped.traffic.items()):
            print(f"  {name}: {value}")
        print(f"  idempotency (service container): {shaped.idempotency}")


def _fleet_details(_single, fleet) -> None:
    print("\nVEP placement (fleet arm):")
    for name, owner in sorted(fleet.placement.items()):
        print(f"  {name}: {owner}")


def _fleet_artifacts(path, recorder, _fleet) -> None:
    flight_path = f"{path}.flight.json"
    recorder.dump(flight_path, reason="fleet-storm-complete")
    print(f"wrote flight-recorder dump to {flight_path}")


def _report_header(scenario) -> dict:
    return {
        "seed": scenario.seed,
        "clients": scenario.clients,
        "requests_per_client": scenario.requests,
    }


_ABLATIONS = {
    "resilience": _Ablation(
        title="Fault storm — resilience ablation",
        arms=lambda args, **mix: [
            ("off", fault_storm(args.seed, resilience=False, **mix)),
            ("on", fault_storm(args.seed, resilience=True, slo="slo" in args, **mix)),
        ],
        label_header="Resilience",
        columns=(
            _DELIVERED,
            _RELIABILITY,
            _rtt("p50", 3),
            _rtt("p99", 3),
            ("Breaker transitions", lambda r: len(r.breaker_transitions)),
        ),
        details=_resilience_details,
        report=_report_header,
        report_arm=lambda label, r: {
            "resilience": label,
            **_outcome(r),
            "failures_per_1000": r.failures_per_1000,
            "rtt_stats": r.rtt_stats,
            "breaker_transitions": len(r.breaker_transitions),
        },
        artifacts=_resilience_artifacts,
    ),
    "traffic": _Ablation(
        title="Overload storm — shed-only vs traffic shaping",
        arms=lambda args, **mix: [
            ("shed", overload_storm(args.seed, traffic=False, **mix)),
            ("traffic", overload_storm(args.seed, traffic=True, **mix)),
        ],
        label_header="Arm",
        columns=(
            _DELIVERED,
            _RELIABILITY,
            _rtt("p50", 4),
            _rtt("p99", 4),
            ("Budget burn", lambda r: f"{r.error_budget_burn:.1f}x"),
            ("Shed", lambda r: r.shed),
            ("Cache hits", lambda r: r.cache_hits),
            ("Leveled", lambda r: r.leveled),
        ),
        details=_traffic_details,
        report=_report_header,
        report_arm=lambda label, r: {
            "mode": label,
            **_outcome(r),
            "failures_per_1000": r.failures_per_1000,
            "rtt_stats": r.rtt_stats,
            "error_budget_burn": r.error_budget_burn,
            "shed": r.shed,
            "throttled": r.throttled,
            "leveled": r.leveled,
            "cache_hits": r.cache_hits,
            "idempotency": r.idempotency,
        },
        gate=lambda shed, shaped: None
        if shaped.p99_rtt < shed.p99_rtt and shaped.error_budget_burn < shed.error_budget_burn
        else "traffic shaping failed to beat shed-only",
    ),
    "fleet": _Ablation(
        title="Fleet storm — one bus vs a sharded fleet",
        arms=lambda args, **mix: [
            ("1 bus", fleet_storm(args.seed, 1, **mix)),
            (f"{args.fleet} buses", fleet_storm(args.seed, args.fleet, **mix)),
        ],
        label_header="Arm",
        columns=(
            _DELIVERED,
            _RELIABILITY,
            ("Throughput", lambda r: f"{r.throughput:.1f}/s"),
            _rtt("p50", 4),
            _rtt("p99", 4),
            ("Gossip merges", lambda r: r.gossip_records),
            ("Leader", lambda r: r.leader or "-"),
        ),
        details=_fleet_details,
        report=lambda scenario: {
            "seed": scenario.seed,
            "shards": scenario.shards,
            "partitions": scenario.veps,
            "clients_per_partition": scenario.clients,
            "requests_per_client": scenario.requests,
        },
        report_arm=lambda _label, r: {
            "shards": r.scenario.shards,
            **_outcome(r),
            "throughput": r.throughput,
            "rtt_stats": r.rtt_stats,
            "leader": r.leader,
            "epoch": r.epoch,
            "leader_changes": r.leader_changes,
            "forwarded_events": r.forwarded_events,
            "gossip_records": r.gossip_records,
            "placement": r.placement,
        },
        artifacts=_fleet_artifacts,
        gate=lambda single, fleet: None
        if fleet.throughput > single.throughput and fleet.p99_rtt <= single.p99_rtt
        else "the sharded fleet failed to beat the single bus",
    ),
}


def _cmd_top(args: argparse.Namespace) -> int:
    """A short SLO-enabled storm, rendered as live operations-table frames."""
    from repro.observability import render_top

    if not args.interval > 0:
        print("--interval must be a positive number of simulated seconds", file=sys.stderr)
        return 2

    def tick(bus) -> None:
        print(render_top(bus, window_seconds=args.window))
        print()

    scenario = fault_storm(
        args.seed,
        resilience=True,
        slo=True,
        clients=args.clients,
        requests=args.requests,
        tick_seconds=args.interval,
    )
    result = run(scenario, on_tick=tick)
    print(render_top(result.bus, window_seconds=args.window))
    if result.slo is not None and result.slo["events"]:
        print("\nSLO events:")
        for event in result.slo["events"]:
            print(f"  t={event['time']:9.3f}s  {event['name']}  {event['endpoint']}")
    return 0


def _run_crash_storm(args: argparse.Namespace) -> int:
    """Kill the engine mid-flight and prove checkpointed instances recover."""
    from pathlib import Path

    from repro.experiments import count_crash_boundaries, run_crash_recovery
    from repro.metrics import Table
    from repro.persistence import CheckpointStore, verify_journal

    journal_dir = Path(args.journal) if getattr(args, "journal", None) else None
    if journal_dir is not None:
        journal_dir.mkdir(parents=True, exist_ok=True)

    if "sagas" in args:
        # The saga compositions abort after payment/trade, so the boundary
        # sweep covers every compensation step as a kill point too.
        matrix = {
            process: range(1, count_crash_boundaries(process, seed=args.seed) + 1)
            for process in ("scm-saga", "trading-saga")
        }
        title = "Fault storm — saga crash recovery (every boundary)"
    else:
        matrix = {process: (1, 2, 3) for process in ("scm", "trading")}
        title = "Fault storm — engine crash recovery"

    table = Table(
        [
            "Process",
            "Crash after",
            "Checkpoints",
            "Replayed",
            "Recovered",
            "Equivalent",
            "Journal",
        ],
        title=title,
    )
    failures: list[str] = []
    for process, crash_points in matrix.items():
        for crash_after in crash_points:
            store_path = None
            if journal_dir is not None:
                store_path = journal_dir / f"{process}-crash{crash_after}.jsonl"
                store_path.unlink(missing_ok=True)
            result = run_crash_recovery(
                process=process,
                seed=args.seed,
                crash_after_completions=crash_after,
                store_path=store_path,
            )
            journal_status = "-"
            if store_path is not None:
                divergences = verify_journal(CheckpointStore(store_path))
                journal_status = "ok" if not divergences else f"{len(divergences)} diverged"
                if divergences:
                    failures.append(
                        f"{process} (crash after {crash_after}): journal-derived "
                        f"snapshot diverges from {len(divergences)} checkpoint field(s)"
                    )
            table.add_row(
                [
                    process,
                    crash_after,
                    result.checkpoints,
                    result.replayed_activities,
                    result.recovered_status,
                    result.equivalent,
                    journal_status,
                ]
            )
            if not result.equivalent:
                failures.append(
                    f"{process} (crash after {crash_after}): "
                    f"{', '.join(result.divergences) or 'status mismatch'}"
                )
    print(table.render())
    if journal_dir is not None:
        print(f"\nwrote event journals to {journal_dir}/")
    if failures:
        print("\nRecovery divergences:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\nAll crashed instances rehydrated and finished identically.")
    return 0


def _render_activity_tree(root, executed, active) -> str:
    """The activity tree with per-node execution markers."""
    lines: list[str] = []

    def walk(activity, depth: int) -> None:
        if activity.name in active:
            marker = ">"
        elif activity.name in executed:
            marker = "*"
        else:
            marker = " "
        kind = type(activity).__name__
        lines.append(f"  {marker} {'  ' * depth}{activity.name} [{kind}]")
        for child in activity.children():
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def _pick_instance(store, requested: str | None) -> str | None:
    """Resolve ``--instance``; on ambiguity list the choices and bail."""
    instance_ids = store.instance_ids()
    if requested is not None:
        if requested not in instance_ids:
            print(f"no records for instance {requested!r}", file=sys.stderr)
            print(f"instances in journal: {', '.join(instance_ids)}", file=sys.stderr)
            return None
        return requested
    if len(instance_ids) == 1:
        return instance_ids[0]
    print("journal holds several instances; pick one with --instance:", file=sys.stderr)
    for instance_id in instance_ids:
        print(f"  {instance_id}", file=sys.stderr)
    return None


def _summarize_event(record: dict) -> str:
    data = record.get("data", {})
    for key in ("activity", "step", "name", "status"):
        if key in data:
            detail = data[key]
            if key == "name" and "value" in data:
                return f"{detail} = {data['value']!r}"
            return str(detail)
    return ""


def _cmd_replay(args: argparse.Namespace) -> int:
    """Step through an event journal: list, reconstruct, diff, verify."""
    from repro.persistence import JournalError

    try:
        return _replay(args)
    except JournalError as error:
        print(f"{args.journal}: {error}", file=sys.stderr)
        return 2


def _replay(args: argparse.Namespace) -> int:
    from repro.persistence import (
        CHECKPOINT,
        EVENT,
        CheckpointStore,
        derive_snapshot,
        verify_journal,
    )

    store = CheckpointStore(args.journal)
    if not store.records():
        print(f"no records in {args.journal}", file=sys.stderr)
        return 1

    if args.verify:
        divergences = verify_journal(store)
        if divergences:
            print(f"{len(divergences)} divergence(s) between journal and checkpoints:")
            for entry in divergences:
                print(
                    f"  {entry['instance_id']} seq={entry['seq']} "
                    f"field={entry['field']}: {entry['detail']}"
                )
            return 1
        checkpoints = len(store.records(record_type=CHECKPOINT))
        print(
            f"ok: {checkpoints} checkpoint(s) byte-identical to their "
            f"journal-derived snapshots"
        )
        return 0

    if args.diff is not None:
        other = CheckpointStore(args.diff)

        def stream(source):
            return [
                {key: value for key, value in record.items() if key != "seq"}
                for record in source.records(record_type=EVENT)
            ]

        def short(record) -> str:
            text = repr(record)
            return text if len(text) <= 240 else f"{text[:240]}... ({len(text)} chars)"

        ours, theirs = stream(store), stream(other)
        for index, (left, right) in enumerate(zip(ours, theirs)):
            if left != right:
                print(f"journals diverge at event {index}:")
                print(f"  {args.journal}: {short(left)}")
                print(f"  {args.diff}: {short(right)}")
                return 1
        if len(ours) != len(theirs):
            longer = args.journal if len(ours) > len(theirs) else args.diff
            print(
                f"journals agree for {min(len(ours), len(theirs))} event(s); "
                f"{longer} continues for {abs(len(ours) - len(theirs))} more"
            )
            return 1
        print(f"journals identical: {len(ours)} event(s)")
        return 0

    instance_id = _pick_instance(store, args.instance)
    if instance_id is None:
        return 1

    if args.at is not None:
        state = derive_snapshot(store, instance_id, upto_seq=args.at)
        print(f"instance {instance_id} ({state.definition}) at seq {args.at}")
        print(f"  time={state.time}  status={state.status}  events={state.events_applied}")
        if state.tainted:
            print("  WARNING: journal truncated before this point; state is unsound")
        print("\nActivity tree ('>' active, '*' executed):")
        print(_render_activity_tree(state.root(), state.executed, state.active))
        print("\nVariables:")
        for name in sorted(state.variables):
            print(f"  {name} = {state.variables[name]!r}")
        if state.compensations:
            print("\nPending compensations (LIFO):")
            for step in reversed(state.compensations):
                print(f"  {step}")
        if state.result is not None:
            print(f"\nResult: {state.result!r}")
        if state.fault is not None:
            print(f"Fault: {state.fault!r}")
        return 0

    print(f"instance {instance_id}: journal events")
    for record in store.records(instance_id=instance_id):
        kind = record.get("type")
        if kind == EVENT:
            print(
                f"  seq={record['seq']:>4}  t={record['time']:>9.3f}  "
                f"{record['event']:<26} {_summarize_event(record)}"
            )
        elif kind == CHECKPOINT:
            print(
                f"  seq={record['seq']:>4}  t={record['time']:>9.3f}  "
                f"[checkpoint] status={record['status']}"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Analyze exported spans: slowest traces, tree, critical path, phases."""
    import json
    import math

    from repro.metrics import Table
    from repro.observability import (
        assemble_trace,
        attribute_latency,
        critical_path,
        group_traces,
        load_spans,
        render_trace_tree,
        slowest_traces,
        trace_report,
    )
    from repro.observability.analysis import PHASES

    try:
        spans = load_spans(args.spans)
    except OSError as error:
        print(f"cannot read spans: {error}", file=sys.stderr)
        return 1
    if not spans:
        print("no spans found in the given files", file=sys.stderr)
        return 1
    grouped = group_traces(spans)
    print(f"{len(spans)} span(s) across {len(grouped)} trace(s)")

    if args.tree is not None:
        bucket = grouped.get(args.tree)
        if bucket is None:
            print(f"no trace {args.tree!r} in the given files", file=sys.stderr)
            return 1
        print()
        print(render_trace_tree(bucket))

    summaries = slowest_traces(spans, limit=args.slowest)
    table = Table(
        ["trace", "root span", "start", "duration (s)", "spans", "status"],
        title=f"Slowest {len(summaries)} trace(s)",
    )
    for summary in summaries:
        table.add_row(
            [
                summary.trace_id,
                summary.root_name,
                f"{summary.start:.3f}",
                f"{summary.duration:.6f}",
                str(summary.span_count),
                summary.status,
            ]
        )
    print()
    print(table.render())

    target_id = args.tree if args.tree is not None else summaries[0].trace_id
    tree = assemble_trace(grouped[target_id])

    if args.critical_path:
        print(f"\ncritical path of {target_id} ({tree.duration:.6f}s):")
        for span in critical_path(tree):
            start = span.start_time
            end = span.end_time if span.end_time is not None else start
            print(
                f"  {span.name:<28} {end - start:>10.6f}s  "
                f"[{start:.3f} .. {end:.3f}]  {span.span_id}"
            )

    if args.attribution:
        # The invariant the acceptance gate rides on: phase self-times
        # tile the root span exactly, for *every* trace in the files.
        for trace_id, bucket in sorted(grouped.items()):
            candidate = assemble_trace(bucket)
            total = math.fsum(attribute_latency(candidate).values())
            if not math.isclose(total, candidate.duration, rel_tol=1e-9, abs_tol=1e-9):
                print(
                    f"attribution for {trace_id} sums to {total!r}, "
                    f"root duration is {candidate.duration!r}",
                    file=sys.stderr,
                )
                return 1
        attribution = attribute_latency(tree)
        total = math.fsum(attribution.values())
        print(f"\nlatency attribution for {target_id}:")
        breakdown = Table(["phase", "seconds", "share"])
        for phase in PHASES:
            seconds = attribution.get(phase, 0.0)
            share = seconds / total if total else 0.0
            breakdown.add_row([phase, f"{seconds:.6f}", f"{share:6.1%}"])
        print(breakdown.render())
        print(
            f"phases sum to {total:.6f}s == root span duration "
            f"{tree.duration:.6f}s (checked for all {len(grouped)} trace(s))"
        )

    if args.report is not None:
        payload = trace_report(spans, limit=args.slowest)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote trace report to {args.report}")
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    from repro.casestudies.stocktrading import (
        ORDER_PROFILES,
        build_trading_deployment,
        customization_policy_documents,
    )
    from repro.metrics import Table
    from repro.policy import serialize_policy_document

    deployment = build_trading_deployment(seed=5)
    for document in customization_policy_documents():
        deployment.masc.load_policies(serialize_policy_document(document))

    labels = {
        "national": "baseline national (50k AUD)",
        "international": "international (20k USD)",
        "high-risk": "high-risk country (BR)",
        "large-personal": "large personal trade (250k)",
        "corporate": "corporate trade (2k)",
        "small": "small trade (500)",
    }
    table = Table(
        ["Scenario", "Status", "CC", "PEST", "CreditRating", "Compliance"],
        title="Section 2.2 — customization scenario matrix",
    )
    for profile, kwargs in ORDER_PROFILES.items():
        instance = deployment.run_order(**kwargs)
        executed = instance.executed_activities
        table.add_row(
            [
                labels[profile],
                instance.status.value,
                "convert-currency" in executed,
                "pest-analysis" in executed,
                "credit-rating" in executed,
                "market-compliance" in executed,
            ]
        )
    print(table.render())
    print(f"\nBusiness-value ledger: {deployment.masc.repository.business_totals()}")
    return 0


def _cmd_quickcheck(_args: argparse.Namespace) -> int:
    print("1/3 Table 1 (reduced volume)...")
    rows = regenerate_table1(seeds=(11,), clients=2, requests=100)
    print(render_table1(rows))
    vep_failures = rows["VEP"][0]
    direct_worst = max(rows[k][0] for k in "ABCD")
    print(f"\n    VEP {vep_failures:.0f} vs worst direct {direct_worst:.0f} failures/1000")

    print("\n2/3 Figure 5 (reduced sweep)...")
    series = regenerate_figure5(sizes_kb=(1, 16, 64), requests=60)
    print(render_figure5(series, sizes_kb=(1, 16, 64)))

    print("\n3/3 Customization scenarios...")
    result = _cmd_scenarios(_args)
    print("\nquickcheck OK" if result == 0 else "quickcheck FAILED")
    return result


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the MASC/wsBus (Middleware 2006) experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="Table 1: reliability & availability")
    table1.add_argument("--seeds", nargs="+", type=int, default=[11, 23, 47])
    table1.add_argument("--clients", type=int, default=4)
    table1.add_argument("--requests", type=int, default=250, help="requests per client")
    table1.add_argument(
        "--trace", metavar="PATH",
        help="dump spans of the VEP runs to a JSONL file "
        "(spans are in-process: forces --jobs 1)",
    )
    table1.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard (config, seed) cells over N worker processes",
    )
    table1.set_defaults(handler=_cmd_table1)

    figure5 = subparsers.add_parser("figure5", help="Figure 5: RTT vs request size")
    figure5.add_argument("--requests", type=int, default=150, help="requests per point")
    figure5.add_argument(
        "--trace", metavar="PATH",
        help="dump spans of the wsBus runs to a JSONL file "
        "(spans are in-process: forces --jobs 1)",
    )
    figure5.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard (operation, size, path) cells over N worker processes",
    )
    figure5.set_defaults(handler=_cmd_figure5)

    # Only the flags given reach the handler (SUPPRESS), so it can reject
    # each one the chosen mode does not read.
    storm = subparsers.add_parser(
        "storm",
        help="Resilience ablation under a fault storm",
        argument_default=argparse.SUPPRESS,
    )
    storm.add_argument("--seed", type=int, default=7)
    storm.add_argument(
        "--crash-engine",
        action="store_true",
        help="run the engine crash/rehydration scenario instead of the ablation",
    )
    storm.add_argument(
        "--clients", type=int,
        help="concurrent clients (default: 6; 32 with --traffic; per "
        "partition, 4, with --fleet)",
    )
    storm.add_argument(
        "--requests", type=int,
        help="requests per client (default: 60; 120 with --traffic; 30 with --fleet)",
    )
    storm.add_argument(
        "--traffic",
        action="store_true",
        help="run the overload (flash-crowd) ablation instead: shed-only vs "
        "the traffic-shaping tier (response cache + load leveling + "
        "idempotency keys)",
    )
    storm.add_argument(
        "--fleet", type=int, metavar="N",
        help="run the federation ablation instead: the same partitioned "
        "workload through one capacity-bounded bus vs an N-shard fleet "
        "(consistent-hash VEP placement, gossip QoS, leader-elected "
        "adaptation)",
    )
    storm.add_argument(
        "--report", metavar="PATH",
        help="write the ablation numbers (both arms) as JSON to PATH",
    )
    storm.add_argument(
        "--sagas",
        action="store_true",
        help="with --crash-engine: crash the saga case studies at every "
        "activity boundary, including each compensation step",
    )
    storm.add_argument(
        "--journal", metavar="DIR",
        help="with --crash-engine: keep each run's event journal as JSONL in "
        "DIR and verify checkpoint/journal byte-identity",
    )
    storm.add_argument(
        "--slo",
        action="store_true",
        help="load the SCM SLO policies: burn-rate events drive adaptation "
        "(selection-strategy switch + tightened breakers) on the resilience-on arm",
    )
    storm.add_argument(
        "--trace", metavar="PATH",
        help="dump spans of the resilience-on run to a JSONL file, plus a "
        "flight-recorder dump (PATH.flight.json) and a Prometheus snapshot "
        "(PATH.prom); spans are recorded in-process, so this forces --jobs 1",
    )
    storm.add_argument(
        "--jobs", type=int, metavar="N",
        help="run the two ablation arms in separate worker processes "
        "(ignored — forced to 1 — when --trace is given)",
    )
    storm.set_defaults(handler=_cmd_storm)

    replay = subparsers.add_parser(
        "replay", help="step through an event journal written by --journal"
    )
    replay.add_argument("journal", help="journal JSONL file (a CheckpointStore log)")
    replay.add_argument(
        "--instance", metavar="ID",
        help="instance to inspect (required when the journal holds several)",
    )
    replay.add_argument(
        "--at", type=int, metavar="SEQ",
        help="reconstruct and print the activity tree and variables at this "
        "sequence number (inclusive)",
    )
    replay.add_argument(
        "--diff", metavar="OTHER",
        help="compare this journal's event stream against another journal",
    )
    replay.add_argument(
        "--verify", action="store_true",
        help="check every stored checkpoint byte-matches its journal-derived "
        "snapshot; exit 1 on any divergence",
    )
    replay.set_defaults(handler=_cmd_replay)

    trace = subparsers.add_parser(
        "trace",
        help="analyze span exports: slowest traces, critical path, attribution",
    )
    trace.add_argument(
        "spans", nargs="+", metavar="SPANS",
        help="span files from one run: --trace JSONL exports and/or "
        "flight-recorder dumps, merged and de-duplicated",
    )
    trace.add_argument(
        "--slowest", type=int, default=10, metavar="N",
        help="how many traces to list, slowest first (default 10)",
    )
    trace.add_argument(
        "--tree", metavar="ID",
        help="render this trace's span tree and target it for --critical-path/"
        "--attribution (default: the slowest trace)",
    )
    trace.add_argument(
        "--critical-path", action="store_true",
        help="print the targeted trace's critical path, root to leaf",
    )
    trace.add_argument(
        "--attribution", action="store_true",
        help="attribute the targeted trace's latency to phases (queue-wait / "
        "mediation / network / service-execution / adaptation); exits 1 if "
        "any trace's phases fail to sum to its root duration",
    )
    trace.add_argument(
        "--report", metavar="PATH",
        help="write the full machine-readable trace report as JSON",
    )
    trace.set_defaults(handler=_cmd_trace)

    top = subparsers.add_parser(
        "top",
        help="live per-VEP/per-endpoint operations table of an SLO-enabled storm",
    )
    top.add_argument("--seed", type=int, default=7)
    top.add_argument("--clients", type=int, default=6)
    top.add_argument("--requests", type=int, default=60, help="requests per client")
    top.add_argument(
        "--interval", type=float, default=10.0,
        help="simulated seconds between table frames",
    )
    top.add_argument(
        "--window", type=float, default=60.0,
        help="sliding window (simulated seconds) for the Req/Avail/Burn columns",
    )
    top.set_defaults(handler=_cmd_top)

    scenarios = subparsers.add_parser(
        "scenarios", help="Section 2.2 customization scenario matrix"
    )
    scenarios.set_defaults(handler=_cmd_scenarios)

    quickcheck = subparsers.add_parser(
        "quickcheck", help="Fast smoke run of all experiments"
    )
    quickcheck.set_defaults(handler=_cmd_quickcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
