"""Ablation: the resilience subsystem under a fault storm.

Both arms run the identical workload against the identical storm (QoS
degradation on Retailer A, latency spikes plus application faults on B,
flapping on D, C healthy) with the same recovery policies. The only
difference is whether the resilience policy document is loaded — circuit
breakers, bulkheads, adaptive timeouts, and load shedding. With it, slow
members fail fast and get quarantined, so failover lands on the healthy
retailer inside the client's timeout budget; without it, every request
routed to a degraded member burns the full member timeout and often the
whole client budget.

RTT statistics cover *all* requests, failures included — a request that
times out after 8 s still cost 8 s.
"""

from __future__ import annotations

from conftest import fault_storm, run
from repro.metrics import Table

STORM_SEED = 7


def sweep_resilience():
    return {
        "off": run(fault_storm(STORM_SEED, resilience=False)),
        "on": run(fault_storm(STORM_SEED, resilience=True)),
    }


def test_resilience_ablation(benchmark):
    results = benchmark.pedantic(sweep_resilience, rounds=1, iterations=1)
    off, on = results["off"], results["on"]

    table = Table(
        ["Resilience", "Delivered", "Reliability", "p99 RTT (s)", "Breaker transitions"],
        title="Ablation — resilience subsystem under fault storm",
    )
    for label, result in results.items():
        table.add_row(
            [
                label,
                f"{result.delivered}/{result.total_requests}",
                f"{result.reliability:.4f}",
                f"{result.p99_rtt:.3f}",
                len(result.breaker_transitions),
            ]
        )
    print()
    print(table.render())

    # The acceptance bar: strictly higher delivered reliability AND a
    # strictly lower p99 RTT with resilience on, same seed and storm.
    assert on.reliability > off.reliability
    assert on.p99_rtt < off.p99_rtt

    # The resilience-off arm never touches the subsystem.
    assert off.breaker_transitions == []
    assert "wsbus.resilience.breaker.opened" not in off.metrics["counters"]

    # Breaker activity is visible both in the transition log and in the
    # exported metrics, and the two agree.
    assert on.breaker_transitions, "storm should trip at least one breaker"
    opened = sum(1 for *_ignored, to_state in on.breaker_transitions if to_state == "open")
    counters = on.metrics["counters"]
    assert counters["wsbus.resilience.breaker.opened"] == opened
    closed = sum(1 for *_ignored, to_state in on.breaker_transitions if to_state == "closed")
    if closed:
        assert counters["wsbus.resilience.breaker.closed"] == closed
    # Open breakers actually diverted selection away from sick members.
    assert counters.get("wsbus.resilience.breaker.skipped", 0) > 0


def test_resilience_storm_is_deterministic(benchmark):
    """Same seed → byte-identical breaker transition log and results."""

    def run_twice():
        return (
            run(fault_storm(STORM_SEED, resilience=True)),
            run(fault_storm(STORM_SEED, resilience=True)),
        )

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert first.breaker_transitions == second.breaker_transitions
    assert first.reliability == second.reliability
    assert first.rtt_stats == second.rtt_stats
    assert first.metrics["counters"] == second.metrics["counters"]
