"""Ablation: one bus vs a four-shard federated fleet, same workload.

Both arms run the identical partitioned Retailer storm — six partition
VEPs, each fronting all four Retailers with ``best_response_time``
selection, driven by four clients per partition. Mediation capacity is
bounded *per bus* (the paper's wsBus is a single mediation host), so the
single-bus arm funnels all six partitions through one bus's slots while
the fleet arm spreads them across four buses via consistent hashing.
Gossip anti-entropy keeps QoS-driven selection converging on fleet-wide
observations even though each bus only mediates its own partitions, and
the lease-based leader election keeps exactly one Adaptation Manager in
charge of fleet-wide reactions.

RTT statistics cover *all* requests, failures included. The run is
deterministic: the same seed produces byte-identical results whether the
arms run inline or across worker processes.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.experiments import Cell, fleet_storm, run, run_cells
from repro.metrics import Table

FLEET_SEED = 23
SHARDS = 4


def sweep_fleet(jobs: int):
    cells = [
        Cell((shards,), run, {"scenario": fleet_storm(FLEET_SEED, shards)})
        for shards in (1, SHARDS)
    ]
    return {key[0]: result for key, result in run_cells(cells, jobs=jobs).items()}


def _fingerprint(arms) -> str:
    return json.dumps(
        {shards: asdict(result) for shards, result in sorted(arms.items())},
        sort_keys=True,
        default=str,
    )


def test_federation_ablation(benchmark):
    arms = benchmark.pedantic(sweep_fleet, args=(1,), rounds=1, iterations=1)
    single, fleet = arms[1], arms[SHARDS]

    table = Table(
        [
            "Arm",
            "Delivered",
            "Reliability",
            "Throughput (req/s)",
            "p50 RTT (s)",
            "p99 RTT (s)",
            "Gossip merges",
            "Leader",
        ],
        title="Ablation — partitioned storm: one bus vs federated fleet",
    )
    for shards, result in arms.items():
        table.add_row(
            [
                f"{shards} bus{'es' if shards > 1 else ''}",
                f"{result.delivered}/{result.total_requests}",
                f"{result.reliability:.4f}",
                f"{result.throughput:.1f}",
                f"{result.rtt_stats['p50']:.4f}",
                f"{result.p99_rtt:.4f}",
                result.gossip_records,
                f"{result.leader} (epoch {result.epoch})",
            ]
        )
    print()
    print(table.render())

    # The acceptance bar: sharding the mediation capacity must buy
    # sustained throughput without giving back tail latency.
    assert fleet.throughput > single.throughput
    assert fleet.p99_rtt <= single.p99_rtt
    assert fleet.reliability >= single.reliability

    # The win comes from the federation plane, visibly: partitions spread
    # over multiple buses, gossip carrying QoS evidence between them, and
    # exactly one elected leader per arm.
    assert len(set(fleet.placement.values())) > 1
    assert set(single.placement.values()) == {"bus-0"}
    assert fleet.gossip_records > 0
    assert fleet.leader == "bus-0" and fleet.leader_changes == 1
    assert single.leader == "bus-0" and single.leader_changes == 1

    # Deterministic across the process pool: running the same cells on
    # worker processes reproduces the inline results byte-for-byte.
    assert _fingerprint(arms) == _fingerprint(sweep_fleet(jobs=2))
