"""Determinism regression tests: same seed → identical results.

DESIGN.md promises bit-for-bit reproducibility; these tests hold the
system to it across the layers where nondeterminism could creep in
(dict ordering, event scheduling ties, random streams).
"""

from repro.casestudies.scm import RETAILER_CONTRACT, build_scm_deployment
from repro.casestudies.stocktrading import (
    build_trading_deployment,
    currency_conversion_policy_document,
)
from repro.experiments import run, table1_direct, table1_vep
from repro.policy import serialize_policy_document
from repro.workload import RequestPlan, WorkloadRunner


def _records_signature(records):
    return [
        (r.target, r.operation, round(r.started_at, 9), round(r.finished_at, 9),
         r.outcome.value, r.fault_code.value if r.fault_code else None)
        for r in records
    ]


class TestWorkloadDeterminism:
    def _run(self, seed):
        deployment = build_scm_deployment(seed=seed, log_events=False)
        deployment.inject_table1_mix()
        plan = RequestPlan(
            target=deployment.retailers["A"].address,
            operation="getCatalog",
            payload_factory=lambda c, i: RETAILER_CONTRACT.operation(
                "getCatalog"
            ).input.build(),
            timeout=5.0,
            think_time_seconds=2.0,
        )
        result = WorkloadRunner(deployment.env, deployment.network).run(
            plan, clients=3, requests_per_client=60
        )
        return _records_signature(result.records)

    def test_same_seed_identical_timeline(self):
        assert self._run(5) == self._run(5)

    def test_different_seed_differs(self):
        assert self._run(5) != self._run(6)


class TestExperimentDeterminism:
    def test_direct_configuration_reproducible(self):
        first = run(table1_direct("B", 17, clients=2, requests=40))
        second = run(table1_direct("B", 17, clients=2, requests=40))
        assert first.failures_per_1000 == second.failures_per_1000
        assert first.availability == second.availability

    def test_vep_configuration_reproducible(self):
        first = run(table1_vep(17, clients=2, requests=40))
        second = run(table1_vep(17, clients=2, requests=40))
        assert first.failures_per_1000 == second.failures_per_1000


class TestTradingDeterminism:
    def _run(self, seed):
        deployment = build_trading_deployment(seed=seed)
        deployment.masc.load_policies(
            serialize_policy_document(currency_conversion_policy_document())
        )
        instance = deployment.run_order(amount=20_000.0, country="US", currency="USD")
        return (
            instance.result,
            sorted(instance.executed_activities),
            instance.variables.get("local_amount"),
            round(deployment.env.now, 9),
        )

    def test_trading_run_reproducible(self):
        assert self._run(9) == self._run(9)
