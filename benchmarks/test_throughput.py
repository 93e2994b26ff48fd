"""Throughput, direct vs channeling through wsBus.

Section 3.2 defines throughput ("the average number of successful requests
processed in a sampling period") as the second key performance metric of
the experiment, alongside the RTT plotted in Figure 5.

Shape assertions: throughput scales with concurrent clients for both
modes; mediation costs a modest slice of throughput (consistent with the
~10% RTT overhead); and under the fault mix the VEP *delivers more
successful requests* than a direct client pointed at a flaky retailer.
"""

from __future__ import annotations

from conftest import figure5_point, run, table1_direct, table1_vep
from repro.metrics import Table

CLIENT_COUNTS = (1, 2, 4, 8)


def measure_throughput(through_bus: bool, clients: int, seed: int = 31) -> float:
    """The Figure 5 deployment (Retailer C, colocated bare bus), unpadded requests."""
    return run(figure5_point(through_bus, seed=seed, clients=clients)).throughput


def regenerate_throughput():
    series = {"direct": [], "wsbus": []}
    for clients in CLIENT_COUNTS:
        series["direct"].append(measure_throughput(False, clients))
        series["wsbus"].append(measure_throughput(True, clients))
    return series


def test_throughput_direct_vs_wsbus(benchmark):
    series = benchmark.pedantic(regenerate_throughput, rounds=1, iterations=1)

    table = Table(
        ["Concurrent clients", "Direct (req/s)", "wsBus (req/s)", "Mediation cost"],
        title="Throughput — direct vs channeling through wsBus (no faults)",
    )
    for clients, direct, mediated in zip(CLIENT_COUNTS, series["direct"], series["wsbus"]):
        table.add_row(
            [
                clients,
                f"{direct:.1f}",
                f"{mediated:.1f}",
                f"{(direct - mediated) / direct * 100:+.1f}%",
            ]
        )
    print()
    print(table.render())

    # Throughput grows with client concurrency in both modes.
    assert series["direct"][-1] > series["direct"][0] * 2
    assert series["wsbus"][-1] > series["wsbus"][0] * 2
    # Mediation costs some throughput, but less than half.
    for direct, mediated in zip(series["direct"], series["wsbus"]):
        assert mediated < direct
        assert mediated > direct * 0.5


def test_goodput_under_faults_favors_wsbus(benchmark):
    """Under the Table 1 fault mix, the VEP's recovery converts failures
    into (slower) successes: goodput beats the flaky direct retailer."""

    def run_both():
        return run(table1_direct("A", 37, requests=200)), run(table1_vep(37, requests=200))

    direct_result, vep_result = benchmark.pedantic(run_both, rounds=1, iterations=1)
    direct_successes = direct_result.delivered
    vep_successes = vep_result.delivered
    print(
        f"\nGoodput under faults: direct A {direct_successes}/800 succeeded, "
        f"wsBus VEP {vep_successes}/800 succeeded"
    )
    assert vep_successes > direct_successes
    assert vep_successes >= 0.99 * vep_result.total_requests
