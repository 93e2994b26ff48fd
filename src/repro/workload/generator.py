"""Concurrent simulated clients driving a target endpoint."""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field

from repro.metrics.stats import describe
from repro.services import InvocationRecord, Invoker
from repro.simulation import Environment
from repro.soap import SoapFaultError
from repro.transport import Network
from repro.xmlutils import Element

__all__ = ["RequestPlan", "WorkloadResult", "WorkloadRunner"]


@dataclass(frozen=True)
class RequestPlan:
    """What each request looks like.

    ``payload_factory(client_id, request_index)`` builds the payload;
    ``padding_bytes`` inflates the serialized request (the Figure 5 request-
    size sweeps); ``think_time_seconds`` is the inter-request delay ("the
    delay between requests is set to zero to increase the load").
    """

    target: str
    operation: str
    payload_factory: Callable[[int, int], Element]
    timeout: float | None = 10.0
    padding_bytes: int = 0
    think_time_seconds: float = 0.0


@dataclass
class WorkloadResult:
    """Everything measured during one workload run."""

    records: list[InvocationRecord] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def successes(self) -> list[InvocationRecord]:
        return [record for record in self.records if record.succeeded]

    @property
    def failures(self) -> list[InvocationRecord]:
        return [record for record in self.records if not record.succeeded]

    def rtt_stats(self) -> dict[str, float]:
        """Round-trip time statistics over successful requests."""
        return describe([record.duration for record in self.successes])

    def throughput(self) -> float:
        """Successful requests per second over the whole run."""
        if self.duration <= 0:
            return 0.0
        return len(self.successes) / self.duration


class WorkloadRunner:
    """Runs N concurrent clients, each issuing M requests."""

    def __init__(self, env: Environment, network: Network, caller_prefix: str = "client") -> None:
        self.env = env
        self.network = network
        self.caller_prefix = caller_prefix

    def run(
        self,
        plan: RequestPlan,
        clients: int = 1,
        requests_per_client: int = 100,
    ) -> WorkloadResult:
        """Execute the workload to completion and collect results."""
        result = WorkloadResult(started_at=self.env.now)
        processes = []
        for client_id in range(clients):
            invoker = Invoker(
                self.env,
                self.network,
                caller=f"{self.caller_prefix}-{client_id}",
                default_timeout=plan.timeout,
            )
            invoker.router.subscribe(result.records.append, ("record",))
            processes.append(
                self.env.process(
                    self._client_loop(invoker, plan, client_id, requests_per_client),
                    name=("workload", client_id),
                )
            )
        gate = self.env.all_of(processes)
        self.env.run(gate)
        result.finished_at = self.env.now
        return result

    def run_many(
        self,
        plans: list[RequestPlan],
        clients_per_plan: int = 1,
        requests_per_client: int = 100,
    ) -> WorkloadResult:
        """Drive several plans concurrently (one client pool per plan).

        The fleet scenarios spread clients over partitioned VEPs: every
        plan gets its own ``clients_per_plan`` clients, all running in the
        same simulated window, and the result aggregates every record.
        Client names carry the plan index (``client-p2-1``) so records are
        attributable and runs stay deterministic.
        """
        if not plans:
            raise ValueError("run_many needs at least one plan")
        result = WorkloadResult(started_at=self.env.now)
        processes = []
        for plan_index, plan in enumerate(plans):
            for client_id in range(clients_per_plan):
                invoker = Invoker(
                    self.env,
                    self.network,
                    caller=f"{self.caller_prefix}-p{plan_index}-{client_id}",
                    default_timeout=plan.timeout,
                )
                invoker.router.subscribe(result.records.append, ("record",))
                processes.append(
                    self.env.process(
                        self._client_loop(invoker, plan, client_id, requests_per_client),
                        name=("workload", plan_index, client_id),
                    )
                )
        gate = self.env.all_of(processes)
        self.env.run(gate)
        result.finished_at = self.env.now
        return result

    def _client_loop(
        self, invoker: Invoker, plan: RequestPlan, client_id: int, requests: int
    ) -> Generator:
        for index in range(requests):
            payload = plan.payload_factory(client_id, index)
            try:
                yield from invoker.invoke(
                    plan.target,
                    plan.operation,
                    payload,
                    timeout=plan.timeout,
                    padding=plan.padding_bytes,
                )
            except SoapFaultError:
                pass  # failures are visible through the invocation records
            if plan.think_time_seconds > 0:
                yield plan.think_time_seconds
