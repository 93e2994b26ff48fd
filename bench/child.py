"""One workload measured inside one fresh interpreter.

``run.py`` starts this file as a child process (``PYTHONHASHSEED=0``,
``PYTHONPATH=src``) in one of three modes and reads the JSON object it
prints as its last line:

- ``setup``: time ``import repro`` -> the instant before the first
  request, once. ``run.py`` starts five of these and takes the median.
- ``timed``: one discarded warm-up repetition, then timed repetitions
  until ``--seconds`` have passed (never fewer than ``SIM_REPS``).
- ``trace``: the per-layer passes — counter read-out, span pass, tier
  ladder, memory.

A run's ``--seed`` is expanded into ``SIM_REPS`` sub-seeds and repetition
*i* runs sub-seed ``i mod SIM_REPS``. Simulated metrics are pooled over
the first ``SIM_REPS`` repetitions (one per sub-seed), which is what
keeps a p99 steady from one ``--seed`` to the next; every later
repetition, and the warm-up, repeats a sub-seed and must reproduce its
event count and simulated results exactly.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Distinct sub-seeds per run; also the minimum number of timed reps.
SIM_REPS = 6
#: Upper bound on timed reps, whatever ``--seconds`` says.
MAX_REPS = 40
#: The ladder's reps per rung and the tracemalloc pass's share of the ops.
LADDER_REPS = 3
TRACEMALLOC_SCALE = 0.25

OUT_DIR = Path(__file__).resolve().parent / "out"


def sub_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(SIM_REPS)]


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def sim_metrics(outcomes) -> dict[str, float]:
    """The four simulated end-to-end metrics, pooled over ``outcomes``."""
    rtts = sorted(rtt for outcome in outcomes for rtt in outcome.rtts)
    ops = sum(outcome.ops for outcome in outcomes)
    delivered = sum(outcome.delivered for outcome in outcomes)
    sim_seconds = sum(outcome.sim_seconds for outcome in outcomes)
    return {
        "sim_delivered_share": delivered / ops,
        "sim_rtt_p50_ms": percentile(rtts, 0.50) * 1000.0,
        "sim_rtt_p99_ms": percentile(rtts, 0.99) * 1000.0,
        "sim_goodput_ops_per_s": delivered / sim_seconds,
    }


class Rep:
    """One repetition: fresh set-up, then the timed phase."""

    def __init__(self, workload, seed: int, sizes: dict, around_drive=None) -> None:
        import workloads

        self.state = workload.build(seed, sizes)
        gc.collect()
        events = workloads.events_processed()
        cpu = time.process_time()
        wall = time.perf_counter()
        if around_drive is None:
            self.outcome = workload.drive(self.state)
        else:
            with around_drive():
                self.outcome = workload.drive(self.state)
        self.wall = time.perf_counter() - wall
        self.cpu = time.process_time() - cpu
        self.events = workloads.events_processed() - events
        self.problems = workload.check(self.state, self.outcome)
        if self.outcome.lost:
            self.problems.append(f"{self.outcome.lost} ops never reached a terminal outcome")
        #: Everything that must repeat exactly for the same sub-seed.
        self.fingerprint = (self.events, repr(sorted(sim_metrics([self.outcome]).items())))


def run_setup(workload, seed: int, sizes: dict) -> dict:
    workload.build(sub_seeds(seed)[0], sizes)
    return {"setup_s": time.perf_counter() - _STARTED}


def run_timed(workload, seed: int, sizes: dict, seconds: float) -> dict:
    seeds = sub_seeds(seed)
    deadline = time.perf_counter() + seconds
    problems: list[str] = []
    warmup = Rep(workload, seeds[0], sizes)
    fingerprints = {0: warmup.fingerprint}
    del warmup
    reps = []
    pooled = []
    while len(reps) < SIM_REPS or (time.perf_counter() < deadline and len(reps) < MAX_REPS):
        index = len(reps) % SIM_REPS
        rep = Rep(workload, seeds[index], sizes)
        if fingerprints.setdefault(index, rep.fingerprint) != rep.fingerprint:
            problems.append(
                f"rep {len(reps)} of sub-seed {index} is not deterministic: "
                f"{rep.fingerprint} != {fingerprints[index]}"
            )
        problems.extend(rep.problems)
        if len(reps) < SIM_REPS:
            pooled.append(rep.outcome)
        reps.append(
            {"wall_s": rep.wall, "cpu_s": rep.cpu, "ops": rep.outcome.ops, "events": rep.events}
        )
        del rep
    rates = [r["ops"] / r["wall_s"] for r in reps]
    costs = [r["cpu_s"] / r["ops"] * 1e6 for r in reps]
    # The fastest rep, not the median: interference on a shared box only
    # ever slows a rep, and its bursts outlast one, so between runs of
    # identical code the median of reps moves twice as far as the best.
    metrics = {"ops_per_s": max(rates), "cpu_us_per_op": min(costs), **sim_metrics(pooled)}
    quartiles = {
        "ops_per_s": statistics.quantiles(rates, n=4),
        "cpu_us_per_op": statistics.quantiles(costs, n=4),
    }
    return {
        "metrics": metrics,
        "quartiles": quartiles,
        "reps": reps,
        "attempted": sum(r["ops"] for r in reps),
        "lost": sum(outcome.lost for outcome in pooled),
        "problems": sorted(set(problems)),
        "sizes": sizes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- the per-layer passes ------------------------------------------------------------


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _bus_summaries(counters: dict) -> list[dict]:
    if "fleet" in counters:
        return list(counters["fleet"]["buses"].values())
    return [counters["bus"]] if "bus" in counters else []


def counter_metrics(counters: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics read from the program's public reporting surfaces."""
    buses = _bus_summaries(counters)
    veps = [vep for bus in buses for vep in bus["veps"].values()]
    retry = [bus["retry_queue"] for bus in buses]
    resilience = [bus["resilience"] for bus in buses if "resilience" in bus]
    bulkheads = [b for r in resilience for b in r["bulkheads"].values()]
    shedding = [r["shedding"] for r in resilience if r["shedding"]]
    traffic = [bus["traffic"] for bus in buses if "traffic" in bus]
    caches = [c for t in traffic for c in t.get("caches", {}).values()]
    levelers = [lv for t in traffic for lv in t.get("leveling", {}).values()]
    kops = ops / 1000.0
    fleet = counters.get("fleet", {})
    gossip = fleet.get("gossip", {})
    fleet_counters = counters.get("metrics", {}).get("counters", {}) if fleet else {}
    idempotency = counters.get("idempotency", {})
    tracking = counters.get("tracking", {})
    return {
        "wsbus.recoveries_per_kop": _ratio(sum(v["recovered"] for v in veps), kops),
        "wsbus.retry_success_ratio": _ratio(
            sum(r["succeeded"] for r in retry), sum(r["attempted"] for r in retry)
        ),
        "wsbus.dead_letters": float(sum(bus["dead_letters"] for bus in buses)),
        "wsbus.gate_peak_waiting": float(
            max((bus["mediation_gate"]["peak_waiting"] for bus in buses if "mediation_gate" in bus), default=0)
        ),
        "resilience.breaker_transitions": float(sum(r["breaker_transitions"] for r in resilience)),
        "resilience.fail_fast_per_kop": _ratio(sum(r["fail_fast"] for r in resilience), kops),
        "resilience.bulkhead_queued_per_kop": _ratio(sum(b["queued"] for b in bulkheads), kops),
        "resilience.shed_per_kop": _ratio(sum(s["shed"] for s in shedding), kops),
        "traffic.cache_hit_ratio": _ratio(
            sum(c["hits"] for c in caches), sum(c["hits"] + c["misses"] for c in caches)
        ),
        "traffic.leveled_per_kop": _ratio(sum(lv["delayed"] for lv in levelers), kops),
        "traffic.leveling_wait_sim_ms_per_op": _per_op(
            sum(lv["total_delay_seconds"] for lv in levelers) * 1000.0, ops
        ),
        "traffic.idempotency_replays": float(
            idempotency.get("deduped", 0) + idempotency.get("coalesced", 0)
        ),
        "observability.spans_per_op": _per_op(counters.get("spans_finished", 0), ops),
        "observability.slo_events": float(counters.get("slo_events", 0)),
        "federation.gossip_records_per_round": _ratio(
            gossip.get("records_exchanged", 0), gossip.get("rounds", 0)
        ),
        "federation.vep_moves": float(fleet.get("moves", 0)),
        "federation.leader_changes": float(len(fleet.get("election", {}).get("changes", ()))),
        "federation.forwarded_events": float(fleet_counters.get("federation.events.forwarded", 0)),
        "orchestration.activities_per_op": _per_op(tracking.get("activity_completed", 0), ops),
        "orchestration.modifications_per_op": _per_op(counters.get("modifications", 0), ops),
        "core.decisions_per_op": _per_op(counters.get("decisions", 0), ops),
        "core.enactments_per_op": _per_op(counters.get("adaptation_reports", 0), ops),
        "persistence.records_per_op": _per_op(counters.get("store_records", 0), ops),
        "persistence.bytes_per_op": _per_op(counters.get("store_bytes", 0), ops),
        "fidelity.table1_mean_abs_err_per_1000": counters.get("table1_mean_abs_err_per_1000", 0.0),
    }


def tracer_metrics(tracer, ops: int, events: int, setup_policy_seconds: float) -> dict[str, float]:
    """Per-layer metrics measured by the outside-in tracer on the span pass."""
    from tracer import LAYERS

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = _per_op(tracer.self_seconds.get(layer, 0.0) * 1e6, ops)
        metrics[f"{layer}.calls_per_op"] = _per_op(tracer.entries.get(layer, 0), ops)
    calls = tracer.calls
    resumes = sum(tracer.resumes.values())
    serializations = calls("repro.xmlutils.element.serialize_xml")
    kops = ops / 1000.0
    metrics.update(
        {
            "simulation.events_per_op": _per_op(events, ops),
            "simulation.host_us_per_event": _ratio(tracer.self_seconds.get("simulation", 0.0) * 1e6, events),
            "simulation.resumes_per_op": _per_op(resumes, ops),
            "soap.serializations_per_op": _per_op(serializations, ops),
            "soap.size_lookups_per_serialization": _ratio(
                calls("repro.soap.envelope.SoapEnvelope.size_bytes"), serializations
            ),
            "soap.copies_per_op": _per_op(calls("repro.soap.envelope.SoapEnvelope.copy"), ops),
            "soap.bytes_serialized_per_op": _per_op(
                tracer.result_size("repro.xmlutils.element.serialize_xml"), ops
            ),
            "transport.sends_per_op": _per_op(calls("repro.transport.network.Network.send"), ops),
            "transport.refused_per_kop": _ratio(
                tracer.error_count("Network.send", "ConnectionRefused"), kops
            ),
            "transport.timeouts_per_kop": _ratio(
                tracer.error_count("Network.send", "TransportTimeout"), kops
            ),
            "wsbus.send_attempts_per_op": _per_op(
                calls("repro.wsbus.qos.QoSMeasurementService.observe"), ops
            ),
            "wsbus.selections_per_op": _per_op(
                calls("repro.wsbus.selection.SelectionService.select")
                + calls("repro.wsbus.selection.SelectionService.broadcast_targets"),
                ops,
            ),
            "policy.lookups_per_op": _per_op(
                calls("repro.policy.repository.PolicyRepository.adaptation_policies_for")
                + calls("repro.policy.repository.PolicyRepository.monitoring_policies_for"),
                ops,
            ),
            "policy.condition_evals_per_op": _per_op(
                tracer.calls_under("repro.policy.assertions.", (".evaluate", ".holds"))
                + calls("repro.orchestration.expressions.Expression.evaluate"),
                ops,
            ),
            "policy.parse_ms": setup_policy_seconds * 1000.0,
            "observability.slo_records_per_op": _per_op(
                calls("repro.observability.slo.SloService.record"), ops
            ),
            "observability.metric_incs_per_op": _per_op(
                calls("repro.observability.metrics.Counter.inc")
                + calls("repro.observability.metrics.Histogram.observe"),
                ops,
            ),
            "federation.heartbeats": float(
                calls("repro.federation.membership.FleetMembership.heartbeat")
            ),
            "faultinjection.flips": float(
                calls("repro.faultinjection.injectors.DowntimeLog.mark_down")
                + calls("repro.faultinjection.injectors.DowntimeLog.mark_up")
            ),
            "faultinjection.resume_share": _ratio(tracer.resumes.get("faultinjection", 0), resumes),
        }
    )
    return metrics


def _best_cpu_us_per_op(workload, seed: int, sizes: dict, reps: int) -> tuple[float, list]:
    # No warm-up of its own: the interpreter has run the full workload by
    # now, and the best of three absorbs a tier's first execution.
    runs = [Rep(workload, seed, sizes) for _ in range(reps)]
    problems = [problem for rep in runs for problem in rep.problems]
    if problems:
        raise AssertionError(f"{workload.name}: {problems}")
    return min(rep.cpu / rep.outcome.ops * 1e6 for rep in runs), runs


def ladder_metrics(seed: int, scale: float) -> dict[str, float]:
    """cpu per op on every rung, and the Figure 5 overhead from the first two."""
    from catalogue import LADDER_RUNGS
    from workloads import LadderRung

    metrics = {}
    mean_rtt = {}
    for name in LADDER_RUNGS:
        rung = LadderRung(name)
        cpu, runs = _best_cpu_us_per_op(rung, seed, rung.sizes(scale), LADDER_REPS)
        metrics[f"ladder.{name}.cpu_us_per_op"] = cpu
        mean_rtt[name] = statistics.fmean(runs[0].outcome.rtts)
    metrics["fidelity.fig5_overhead_pct"] = (mean_rtt["bare"] / mean_rtt["direct"] - 1.0) * 100.0
    return metrics


def fig5_overhead_large(workload, seed: int, sizes: dict, bus_rtts: list[float]) -> float:
    """clean_large's Figure 5 point: the same bodies sent to Retailer C directly."""
    state = workload.build(seed, sizes)
    plan = state.plans[0]
    direct = type(plan)(
        target=state.deployment.retailers["C"].address,
        operation=plan.operation,
        payload_factory=plan.payload_factory,
        timeout=plan.timeout,
        think_time_seconds=plan.think_time_seconds,
        padding_bytes=plan.padding_bytes,
    )
    state.plans = [direct]
    outcome = workload.drive(state)
    return (statistics.fmean(bus_rtts) / statistics.fmean(outcome.rtts) - 1.0) * 100.0


def jobs2_speedup(workload, seed: int, sizes: dict) -> float:
    """table1_matrix wall at jobs=1 / wall at jobs=2 (pool already warm)."""
    from repro.experiments import regenerate_table1, shutdown_pool

    state = workload.build(seed, sizes)
    kwargs = dict(seeds=state.seeds, clients=sizes["clients"], requests=sizes["requests"])
    try:
        regenerate_table1(jobs=2, **{**kwargs, "requests": 4})  # start the pool
        walls = {}
        for jobs in (1, 2):
            started = time.perf_counter()
            regenerate_table1(jobs=jobs, **kwargs)
            walls[jobs] = time.perf_counter() - started
    finally:
        shutdown_pool()
        for worker in multiprocessing.active_children():
            worker.join(timeout=30)
    return walls[1] / walls[2]


def run_trace(workload, seed: int, sizes: dict, scale: float) -> dict:
    import tracemalloc

    from catalogue import LADDER_RUNGS
    from tracer import LayerTracer

    first = sub_seeds(seed)[0]
    problems: list[str] = []
    Rep(workload, first, sizes)  # warm-up
    reference = Rep(workload, first, sizes)
    ops = reference.outcome.ops
    problems.extend(reference.problems)
    metrics = counter_metrics(workload.counters(reference.state, reference.outcome), ops)

    small = workload.sizes(scale * TRACEMALLOC_SCALE)
    gc.collect()
    tracemalloc.start()
    traced_memory = Rep(workload, first, small)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    metrics["mem.tracemalloc_peak_kb_per_op"] = peak / 1024.0 / traced_memory.outcome.ops
    del traced_memory

    tracer = LayerTracer()
    tracer.install()
    try:
        with tracer.measure():
            workload.build(first, sizes)
        # Set-up's XML work is the policy documents' round trip and load.
        setup_policy_seconds = tracer.self_seconds.get("policy", 0.0) + tracer.self_seconds.get(
            "xmlutils", 0.0
        )
        tracer.reset()
        spanned = Rep(workload, first, sizes, around_drive=tracer.measure)
    finally:
        tracer.uninstall()
    problems.extend(spanned.problems)
    if spanned.fingerprint != reference.fingerprint:
        problems.append(
            f"tracer perturbed the simulation: {spanned.fingerprint} != {reference.fingerprint}"
        )
    tiled = sum(tracer.self_seconds.values())
    if abs(tiled - tracer.wall_seconds) > 0.02 * tracer.wall_seconds:
        problems.append(
            f"layer self times sum to {tiled:.4f}s, traced wall is {tracer.wall_seconds:.4f}s"
        )
    metrics.update(tracer_metrics(tracer, ops, spanned.events, setup_policy_seconds))
    metrics["trace.overhead_ratio"] = spanned.wall / reference.wall
    OUT_DIR.mkdir(exist_ok=True)
    span_count = tracer.write_spans(OUT_DIR / f"spans-{workload.name}.jsonl")

    # Measured on one workload each; everywhere else they read 0.
    for rung in LADDER_RUNGS:
        metrics[f"ladder.{rung}.cpu_us_per_op"] = 0.0
    metrics["fidelity.fig5_overhead_pct"] = 0.0
    metrics["experiments.jobs2_speedup"] = 0.0
    if workload.name == "clean_small":
        metrics.update(ladder_metrics(first, scale))
    elif workload.name == "clean_large":
        metrics["fidelity.fig5_overhead_pct"] = fig5_overhead_large(
            workload, first, sizes, reference.outcome.rtts
        )
    elif workload.name == "table1_matrix":
        metrics["experiments.jobs2_speedup"] = jobs2_speedup(workload, first, sizes)
    return {
        "metrics": metrics,
        "attempted": ops,
        "lost": reference.outcome.lost,
        "problems": sorted(set(problems)),
        "sizes": sizes,
        "spans": span_count,
        "traced_wall_s": tracer.wall_seconds,
        "self_seconds": dict(tracer.self_seconds),
        "missing_names": tracer.missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    sizes = workload.sizes(args.scale)
    if args.mode == "setup":
        result = run_setup(workload, args.seed, sizes)
    elif args.mode == "timed":
        result = run_timed(workload, args.seed, sizes, args.seconds)
    else:
        result = run_trace(workload, args.seed, sizes, args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
