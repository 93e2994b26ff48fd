"""Ablation: preventive adaptation on/off.

The paper's fourth adaptation type ("prevention – to prevent future faults
or extra-functional issues before they occur") evaluated quantitatively:
one SCM retailer develops a worsening response-time trend that eventually
crosses the client timeout. With prevention OFF, clients ride the
degradation into timeout faults that corrective policies must then repair.
With prevention ON, the trend detector quarantines the degrading retailer
while it is still merely slow, so clients never see the degradation peak.
"""

from __future__ import annotations

from conftest import catalog_plan
from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    build_scm_deployment,
    retailer_recovery_policy_document,
)
from repro.core import MASCPolicyDecisionMaker, QoSTrendDetector
from repro.metrics import Table, failures_per_1000
from repro.policy import AdaptationPolicy, PolicyRepository, QuarantineAction
from repro.workload import WorkloadRunner
from repro.wsbus import BusEnforcementPoint, WsBus


def run_degradation_scenario(prevention_enabled: bool, seed: int = 71):
    deployment = build_scm_deployment(seed=seed, log_events=False)
    repository = PolicyRepository()
    repository.load(retailer_recovery_policy_document())  # corrective baseline
    if prevention_enabled:
        from repro.policy import PolicyDocument

        document = PolicyDocument("prevention")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="quarantine-degrading",
                triggers=("qos.trend.degrading",),
                adaptation_type="prevention",
                actions=(QuarantineAction(duration_seconds=400.0),),
            )
        )
        repository.load(document)

    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=repository,
        registry=deployment.registry,
        member_timeout=5.0,
        colocated_with_clients=True,
    )
    vep = bus.create_vep(
        "retailers",
        RETAILER_CONTRACT,
        members=deployment.retailer_addresses,
        selection_strategy="round_robin",
    )
    enforcement = BusEnforcementPoint(bus)
    decision_maker = MASCPolicyDecisionMaker(deployment.env, repository)
    decision_maker.register_enforcement_point(enforcement)
    detector = QoSTrendDetector(
        deployment.env, slope_threshold=0.01, min_samples=8, cooldown_seconds=120.0
    )
    detector.router.subscribe(decision_maker.handle)
    detector.attach_to_invoker(bus.invoker)

    # Retailer A develops a steady degradation: +35 ms per simulated second,
    # crossing the 5 s client timeout after ~140 s.
    endpoint = deployment.network.endpoint(deployment.retailers["A"].address)

    def degrade():
        while True:
            endpoint.added_delay_seconds += 0.035
            yield deployment.env.timeout(1.0)

    deployment.env.process(degrade(), name="slow-leak")

    runner = WorkloadRunner(deployment.env, deployment.network)
    result = runner.run(
        catalog_plan(vep.address, timeout=60.0, think=1.0), clients=4, requests_per_client=150
    )
    slow_requests = sum(1 for record in result.successes if record.duration > 2.0)
    return {
        "failures_per_1000": failures_per_1000(result.records),
        "mean_rtt": result.rtt_stats()["mean"],
        "p95_rtt": result.rtt_stats()["p95"],
        "slow_requests": slow_requests,
        "recoveries": len(bus.adaptation.outcomes),
        "quarantines": len(enforcement.quarantines),
        "trend_alerts": len(detector.reports),
    }


def test_prevention_ablation(benchmark):
    def run_both():
        return {
            "prevention OFF": run_degradation_scenario(False),
            "prevention ON": run_degradation_scenario(True),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = Table(
        [
            "Configuration",
            "Failures/1000",
            "Mean RTT (ms)",
            "p95 RTT (ms)",
            "Slow requests",
            "Corrective recoveries",
            "Quarantines",
        ],
        title="Ablation — preventive adaptation under a degrading retailer",
    )
    for label, data in results.items():
        table.add_row(
            [
                label,
                f"{data['failures_per_1000']:.0f}",
                f"{data['mean_rtt'] * 1000:.0f}",
                f"{data['p95_rtt'] * 1000:.0f}",
                data["slow_requests"],
                data["recoveries"],
                data["quarantines"],
            ]
        )
    print()
    print(table.render())

    off, on = results["prevention OFF"], results["prevention ON"]
    # Prevention actually fired.
    assert on["trend_alerts"] >= 1
    assert on["quarantines"] >= 1
    assert off["quarantines"] == 0
    # It spares clients the degradation tail: fewer slow requests and a
    # lower p95 than the corrective-only configuration.
    assert on["slow_requests"] < off["slow_requests"]
    assert on["p95_rtt"] <= off["p95_rtt"]
    # And it reduces pressure on corrective recovery.
    assert on["recoveries"] <= off["recoveries"]
