"""The metric catalogue: names, units, directions, bounds, predictions.

``BENCHMARK.json`` repeats the names, units and directions (the driver
reads that file); the self-test checks the two agree. What only this
catalogue holds is, per metric, which side it is on — **host** (what the
Python program costs to run) or **sim** (what the modelled middleware
would deliver, and what a host-speed change must leave unchanged) — and,
per layer metric, the end-to-end metric it should move and where.
"""

from __future__ import annotations

from tracer import LAYERS

__all__ = ["END_TO_END", "LADDER_RUNGS", "PER_LAYER"]

#: name -> (unit, better, bound, side, definition)
END_TO_END = {
    "ops_per_s": (
        "ops/s", "higher", 0.25, "host",
        "ops / wall seconds of the timed phase, fastest rep",
    ),
    "cpu_us_per_op": (
        "us", "lower", 0.25, "host",
        "process_time of the timed phase / ops, fastest rep; the preferred claim metric",
    ),
    "peak_rss_mb": ("MiB", "lower", 0.10, "host", "ru_maxrss of the workload's child at exit"),
    "setup_s": (
        "s", "lower", 0.25, "host",
        "median of 5 fresh interpreters: import repro -> the instant before the first request",
    ),
    "sim_delivered_share": (
        "ratio", "higher", 0.02, "sim",
        "ops that ended in a reply (not a fault, timeout or refusal) / ops attempted",
    ),
    "sim_rtt_p50_ms": (
        "ms", "lower", 0.05, "sim",
        "simulated round trip over all ops, failures included, pooled over the sub-seeds",
    ),
    "sim_rtt_p99_ms": (
        "ms", "lower", 0.20, "sim",
        "as above; every workload pools >= 1,000 ops so >= 10 samples lie beyond p99",
    ),
    "sim_goodput_ops_per_s": (
        "ops/sim-s", "higher", 0.05, "sim",
        "successful ops / simulated duration",
    ),
}

#: Cumulative tier rungs on the clean_small load (see child.ladder).
LADDER_RUNGS = (
    "direct",
    "bare",
    "resilience",
    "traffic_nocache",
    "slo",
    "tracing_sampled",
    "tracing_full",
    "fleet4",
)

_CPU = "cpu_us_per_op, ops_per_s"


def _per_layer() -> dict:
    """name -> (unit, better, should move, on which workload)."""
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = (
            "us", "lower", _CPU, "the workload where the layer's share is largest",
        )
        metrics[f"{layer}.calls_per_op"] = (
            "count", "lower", _CPU, "the workload where the layer's share is largest",
        )
    ops = "ops_per_s"
    cpu = "cpu_us_per_op"
    tail = "sim_rtt_p99_ms"
    metrics.update(
        {
            "simulation.events_per_op": ("count", "lower", ops, "clean_small, table1_matrix"),
            "simulation.host_us_per_event": ("us", "lower", ops, "clean_small, table1_matrix"),
            "simulation.resumes_per_op": ("count", "lower", ops, "clean_small, table1_matrix"),
            "soap.serializations_per_op": ("count", "lower", cpu, "clean_large"),
            "soap.size_lookups_per_serialization": ("ratio", "higher", cpu, "clean_large"),
            "soap.copies_per_op": ("count", "lower", cpu, "clean_large"),
            "soap.bytes_serialized_per_op": ("bytes", "lower", cpu, "clean_large"),
            "transport.sends_per_op": ("count", "lower", f"{tail}, {cpu}", "storm_resilient"),
            "transport.refused_per_kop": ("count", "lower", tail, "storm_resilient, table1_matrix"),
            "transport.timeouts_per_kop": ("count", "lower", tail, "storm_resilient, table1_matrix"),
            "wsbus.send_attempts_per_op": ("count", "lower", f"{tail}, {cpu}", "storm_resilient"),
            "wsbus.recoveries_per_kop": ("count", "lower", "sim_delivered_share", "storm_resilient"),
            "wsbus.retry_success_ratio": ("ratio", "higher", tail, "storm_resilient"),
            "wsbus.selections_per_op": ("count", "lower", cpu, "storm_resilient, fleet4_failover"),
            "wsbus.dead_letters": ("count", "lower", "sim_delivered_share", "storm_resilient"),
            "wsbus.gate_peak_waiting": ("count", "lower", tail, "fleet4_failover"),
            "policy.lookups_per_op": ("count", "lower", cpu, "storm_resilient, trading_customized"),
            "policy.condition_evals_per_op": (
                "count", "lower", cpu, "storm_resilient, trading_customized",
            ),
            "policy.parse_ms": ("ms", "lower", "setup_s", "every workload that loads policies"),
            "resilience.breaker_transitions": ("count", "lower", tail, "storm_resilient"),
            "resilience.fail_fast_per_kop": ("count", "higher", tail, "storm_resilient"),
            "resilience.bulkhead_queued_per_kop": ("count", "lower", tail, "storm_resilient"),
            "resilience.shed_per_kop": ("count", "lower", "sim_delivered_share", "overload_shaped"),
            "traffic.cache_hit_ratio": ("ratio", "higher", "sim_rtt_p50_ms", "overload_shaped"),
            "traffic.leveled_per_kop": ("count", "lower", "sim_goodput_ops_per_s", "overload_shaped"),
            "traffic.leveling_wait_sim_ms_per_op": ("ms", "lower", tail, "overload_shaped"),
            "traffic.idempotency_replays": ("count", "lower", cpu, "overload_shaped"),
            "observability.spans_per_op": ("count", "lower", f"{cpu}, peak_rss_mb", "fleet4_failover"),
            "observability.slo_records_per_op": ("count", "lower", cpu, "fleet4_failover"),
            "observability.slo_events": ("count", "lower", cpu, "fleet4_failover"),
            "observability.metric_incs_per_op": ("count", "lower", cpu, "fleet4_failover"),
            "federation.gossip_records_per_round": ("count", "lower", cpu, "fleet4_failover"),
            "federation.heartbeats": ("count", "lower", cpu, "fleet4_failover"),
            "federation.vep_moves": ("count", "lower", tail, "fleet4_failover"),
            "federation.leader_changes": ("count", "lower", tail, "fleet4_failover"),
            "federation.forwarded_events": ("count", "lower", cpu, "fleet4_failover"),
            "faultinjection.flips": ("count", "lower", ops, "table1_matrix"),
            "faultinjection.resume_share": ("ratio", "lower", ops, "table1_matrix"),
            "orchestration.activities_per_op": ("count", "lower", cpu, "trading_customized"),
            "orchestration.modifications_per_op": ("count", "lower", cpu, "trading_customized"),
            "core.decisions_per_op": ("count", "lower", cpu, "trading_customized"),
            "core.enactments_per_op": ("count", "lower", cpu, "trading_customized"),
            "persistence.records_per_op": ("count", "lower", f"{cpu}, peak_rss_mb", "trading_customized"),
            "persistence.bytes_per_op": ("bytes", "lower", "peak_rss_mb", "trading_customized"),
            "experiments.jobs2_speedup": (
                "ratio", "higher", "ops_per_s of multi-cell CLI runs", "table1_matrix",
            ),
        }
    )
    for rung in LADDER_RUNGS:
        metrics[f"ladder.{rung}.cpu_us_per_op"] = ("us", "lower", cpu, "clean_small")
    metrics.update(
        {
            "fidelity.fig5_overhead_pct": (
                "%", "lower", "none: must not move under a host-speed change",
                "clean_small, clean_large",
            ),
            "fidelity.table1_mean_abs_err_per_1000": (
                "count", "lower", "none: must not move under a host-speed change",
                "table1_matrix",
            ),
            "mem.tracemalloc_peak_kb_per_op": ("KiB", "lower", "peak_rss_mb", "all"),
            "trace.overhead_ratio": ("ratio", "lower", "none", "all"),
        }
    )
    return metrics


PER_LAYER = _per_layer()
