"""Ablation: retry policy parameters (count and delay).

The paper's recovery policy fixes "three retries with a delay between retry
cycles of two seconds" before failing over. This ablation sweeps the retry
budget and shows the trade-off the numbers encode: more retries improve
reliability against transient faults up to a point, while inflating the
recovery-path latency.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import run, table1_vep
from repro.casestudies.scm import retailer_recovery_policy_document
from repro.metrics import Table

RETRY_BUDGETS = (0, 1, 3, 6)


def run_with_retries(seed: int, max_retries: int, delay: float):
    """The Table 1 VEP run under a recovery policy with this retry budget."""
    policy = retailer_recovery_policy_document(
        max_retries=max_retries, retry_delay_seconds=delay
    )
    return run(replace(table1_vep(seed, requests=150), policies=(policy,)))


def sweep_retries():
    rows = []
    for max_retries in RETRY_BUDGETS:
        result = run_with_retries(53, max_retries, delay=2.0)
        bus = result.bus
        recovered = sum(1 for outcome in bus.adaptation.outcomes if outcome.recovered)
        retried_ok = bus.retry_queue.redeliveries_succeeded
        rtts = sorted(record.duration for record in result.workload.successes)
        p99 = rtts[int(0.99 * (len(rtts) - 1))]
        rows.append(
            {
                "max_retries": max_retries,
                "failures_per_1000": result.failures_per_1000,
                "recovered": recovered,
                "retry_successes": retried_ok,
                "p99_rtt": p99,
            }
        )
    return rows


def test_retry_budget_ablation(benchmark):
    rows = benchmark.pedantic(sweep_retries, rounds=1, iterations=1)

    table = Table(
        ["Max retries", "Failures/1000", "Recoveries", "via retry", "p99 RTT (s)"],
        title="Ablation — retry budget (delay fixed at 2 s, failover enabled)",
    )
    for row in rows:
        table.add_row(
            [
                row["max_retries"],
                f"{row['failures_per_1000']:.0f}",
                row["recovered"],
                row["retry_successes"],
                f"{row['p99_rtt']:.2f}",
            ]
        )
    print()
    print(table.render())

    by_budget = {row["max_retries"]: row for row in rows}
    # Failover keeps reliability high everywhere; nothing degrades much.
    for row in rows:
        assert row["failures_per_1000"] <= 20
    # Retries only ever help redeliveries succeed when allowed.
    assert by_budget[0]["retry_successes"] == 0
    assert by_budget[3]["retry_successes"] >= 1
    # A bigger retry budget stretches the recovery tail.
    assert by_budget[6]["p99_rtt"] >= by_budget[0]["p99_rtt"]


def test_retry_delay_ablation(benchmark):
    """Longer inter-retry delays survive longer outages per retry budget,
    at the cost of recovery latency."""

    def sweep_delays():
        rows = []
        for delay in (0.5, 2.0, 8.0):
            result = run_with_retries(59, 3, delay=delay)
            successes = result.workload.successes
            recovery_times = [record.duration for record in successes if record.duration > 1.0]
            rows.append(
                {
                    "delay": delay,
                    "failures_per_1000": result.failures_per_1000,
                    "slow_successes": len(recovery_times),
                    "max_rtt": max((record.duration for record in successes), default=0),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep_delays, rounds=1, iterations=1)
    table = Table(
        ["Retry delay (s)", "Failures/1000", "Recovered-slow successes", "Max RTT (s)"],
        title="Ablation — retry delay (3 retries, failover enabled)",
    )
    for row in rows:
        table.add_row(
            [
                row["delay"],
                f"{row['failures_per_1000']:.0f}",
                row["slow_successes"],
                f"{row['max_rtt']:.2f}",
            ]
        )
    print()
    print(table.render())
    # The worst-case RTT grows with the retry delay.
    assert rows[-1]["max_rtt"] > rows[0]["max_rtt"]
    for row in rows:
        assert row["failures_per_1000"] <= 20
