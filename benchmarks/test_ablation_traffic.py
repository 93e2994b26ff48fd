"""Ablation: traffic shaping vs shed-only under a flash crowd.

Both arms run the identical overload — 32 concurrent ``getCatalog``
clients hammering a VEP over four Retailers that were all slowed to
~250 ms of processing, far past the fleet's knee. Both arms load the
same unscoped load-shedding gate (max 16 in-flight mediations); the
traffic arm additionally loads the SCM traffic policy document —
response cache on ``getCatalog``, queue-based load leveling with a
token bucket at the VEP, and idempotency keys.

The shed-only arm answers overload the blunt way: reject everything
past the gate with ``ServiceUnavailable``. That holds the fleet up but
torches the error budget. The shaped arm absorbs the same burst by
serving repeats from cache and smoothing the cold misses through the
leveler's bounded queue — same seed, same arrival pattern, near-zero
failures.

RTT statistics cover *all* requests, failures included.
"""

from __future__ import annotations

from conftest import overload_storm, run
from repro.metrics import Table

OVERLOAD_SEED = 11


def sweep_overload():
    return {
        "shed": run(overload_storm(OVERLOAD_SEED, traffic=False)),
        "traffic": run(overload_storm(OVERLOAD_SEED, traffic=True)),
    }


def test_traffic_ablation(benchmark):
    results = benchmark.pedantic(sweep_overload, rounds=1, iterations=1)
    shed, shaped = results["shed"], results["traffic"]

    table = Table(
        [
            "Arm",
            "Delivered",
            "Reliability",
            "p99 RTT (s)",
            "Budget burn",
            "Shed",
            "Cache hits",
            "Leveled",
        ],
        title="Ablation — flash crowd: shed-only vs cache + load leveling",
    )
    for label, result in results.items():
        table.add_row(
            [
                label,
                f"{result.delivered}/{result.total_requests}",
                f"{result.reliability:.4f}",
                f"{result.p99_rtt:.4f}",
                f"{result.error_budget_burn:.1f}x",
                result.shed,
                result.cache_hits,
                result.leveled,
            ]
        )
    print()
    print(table.render())

    # The acceptance bar: the shaped arm holds p99 AND the error budget
    # where shed-only burns it — same seed, same flash crowd.
    assert shaped.p99_rtt < shed.p99_rtt
    assert shaped.error_budget_burn < shed.error_budget_burn
    assert shed.error_budget_burn > 1.0, "shed-only must blow the 99% budget"
    assert shaped.error_budget_burn <= 1.0, "shaping must hold the 99% budget"

    # The win comes from the shaping tier, visibly: repeats served from
    # cache, cold misses smoothed by the leveler, and the shedding gate
    # barely touched.
    assert shaped.cache_hits > 0
    assert shaped.leveled > 0
    assert shaped.shed < shed.shed

    # Idempotency keys were stamped and recorded at the service container.
    assert shaped.idempotency["recorded"] > 0

    # The shed arm never touches the traffic tier: no traffic counters,
    # no idempotency activity, no traffic summary — the pre-traffic
    # mediation path byte-for-byte.
    assert shed.traffic is None
    assert not any(name.startswith("wsbus.traffic") for name in shed.metrics["counters"])
    assert shed.idempotency["recorded"] == 0
    assert shed.idempotency["entries"] == 0


def test_overload_storm_is_deterministic(benchmark):
    """Same seed → identical outcomes for the shaped arm, run twice."""

    def run_twice():
        return (
            run(overload_storm(OVERLOAD_SEED, traffic=True)),
            run(overload_storm(OVERLOAD_SEED, traffic=True)),
        )

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert first.delivered == second.delivered
    assert first.rtt_stats == second.rtt_stats
    assert first.cache_hits == second.cache_hits
    assert first.leveled == second.leveled
    assert first.idempotency == second.idempotency
    assert first.metrics["counters"] == second.metrics["counters"]
