"""The SLO engine: observability-driven adaptation.

PR 1 made the middleware *emit* spans and metrics; this module closes the
loop the paper's Monitoring Service exists for — "notify the Adaptation
Manager" when measured QoS crosses policy thresholds — by making the
measurement substrate itself a sensor:

- :class:`SloObjective` pairs an :class:`~repro.policy.actions.SloAction`
  (availability target + optional latency percentile target, i.e. an
  **error budget**) with a
  :class:`~repro.policy.actions.BurnRateAlertAction` (multi-window burn
  thresholds). Objectives are declared as WS-Policy4MASC adaptation
  policies carrying the conventional ``observability.slo`` trigger — the
  same load-time-scan convention as ``resilience.configure``.
- :class:`SloService` feeds per-endpoint request/failure counters and a
  bucketed latency histogram (with exemplars) into the shared
  :class:`~repro.observability.MetricsRegistry`, and evaluates every
  objective on a fixed simulation-clock cadence over sliding windows.
- Violations become :class:`~repro.core.events.MASCEvent`s —
  ``sloBurnRateExceeded``, ``errorBudgetExhausted``, ``sloRecovered`` —
  with ``trace_parent`` set to an open ``slo.violation`` span, so the
  adaptation they provoke (tighten a circuit breaker, switch a VEP's
  selection strategy) nests under the violation in the trace tree, and
  the event context carries the histogram's exemplars so a p99 outlier
  links the violation back to a concrete request trace.

**Burn rate**: the observed failure fraction divided by the error budget.
A burn rate of 1.0 consumes exactly the budget by the end of the SLO
window; 14x on a fast window means the budget would be gone in under two
hours of a 24h window. ``sloBurnRateExceeded`` fires when *both* the
fast- and slow-window burns exceed their thresholds (fast = reaction
speed, slow = blip suppression); ``errorBudgetExhausted`` fires once the
budget consumed over the SLO window reaches 100%; ``sloRecovered`` fires
when a previously burning objective's fast-window burn drops below 1.0.

Everything is deterministic: evaluation ticks ride the simulation clock,
endpoints are visited in sorted order, and events carry no wall-clock
state — the same seed produces the identical event sequence.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.events import MASCEvent
from repro.observability.metrics import NULL_METRICS, labeled_name
from repro.observability.trace_context import TraceContext
from repro.observability.tracing import NULL_TRACER
from repro.policy.actions import BurnRateAlertAction, SloAction

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "SLO_TRIGGER",
    "SloObjective",
    "SloService",
    "SloStatus",
]

#: The trigger naming convention for SLO declaration policies.
SLO_TRIGGER = SloAction.trigger

#: Latency bucket upper bounds (seconds) of the per-endpoint histograms.
DEFAULT_LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Exemplars attached to a violation event's context (most recent first).
_EVENT_EXEMPLARS = 4


@dataclass(frozen=True)
class SloObjective:
    """One declared SLO: the policy that declared it, its scope, and its
    assertions."""

    policy_name: str
    scope: object  # PolicyScope
    slo: SloAction
    alert: BurnRateAlertAction

    @property
    def key(self) -> str:
        return f"{self.policy_name}/{self.slo.name}"

    def describe(self) -> str:
        return f"{self.slo.describe()} [{self.alert.describe()}]"


class SloStatus:
    """Evaluation state of one (objective, endpoint) pair."""

    __slots__ = (
        "state",
        "fast_burn",
        "slow_burn",
        "budget_consumed",
        "latency_observed",
        "latency_violated",
        "events_emitted",
    )

    def __init__(self) -> None:
        self.state = "ok"  # ok | burning | exhausted
        self.fast_burn = 0.0
        self.slow_burn = 0.0
        self.budget_consumed = 0.0
        self.latency_observed: float | None = None
        self.latency_violated = False
        self.events_emitted = 0

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "budget_consumed": self.budget_consumed,
            "latency_observed": self.latency_observed,
            "latency_violated": self.latency_violated,
        }


class _EndpointSeries:
    """Counter deltas per evaluation tick: ``(time, requests, failures)``."""

    __slots__ = ("last_requests", "last_failures", "buckets")

    def __init__(self) -> None:
        self.last_requests = 0
        self.last_failures = 0
        self.buckets: deque[tuple[float, int, int]] = deque()

    def advance(self, now: float, requests: int, failures: int, horizon: float) -> None:
        delta_requests = requests - self.last_requests
        delta_failures = failures - self.last_failures
        self.last_requests = requests
        self.last_failures = failures
        self.buckets.append((now, delta_requests, delta_failures))
        cutoff = now - horizon
        while self.buckets and self.buckets[0][0] <= cutoff:
            self.buckets.popleft()

    def window_totals(self, now: float, window: float) -> tuple[int, int]:
        """``(requests, failures)`` observed within the last ``window``."""
        cutoff = now - window
        requests = failures = 0
        for time, delta_requests, delta_failures in self.buckets:
            if time > cutoff:
                requests += delta_requests
                failures += delta_failures
        return requests, failures


class SloService:
    """Evaluates declared SLOs against the bus's metrics registry.

    Inert (``active`` is False) until ``observability.slo`` policies are
    loaded *and* a real :class:`~repro.observability.MetricsRegistry` is
    attached — the SLO engine consumes metrics, so it cannot run against
    :data:`~repro.observability.NULL_METRICS`. When inactive the bus's
    ``wsbus.send`` stage is composed without the :meth:`record` feed.
    """

    def __init__(self, env, repository, metrics=None, tracer=None) -> None:
        self.env = env
        self.repository = repository
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.objectives: list[SloObjective] = []
        #: Audit log of emitted events (plain data; determinism checks).
        self.events: list[dict] = []
        self._sinks: list[Callable[[MASCEvent], None]] = []
        self._service_types: dict[str, str] = {}
        #: endpoint -> (requests counter, failures counter, latency histogram)
        self._instruments: dict[str, tuple] = {}
        self._series: dict[str, _EndpointSeries] = {}
        self._status: dict[tuple[str, str], SloStatus] = {}
        self._process = None
        #: Called after every refresh: the hosting bus recomposes its chains.
        self.on_refresh = lambda: None
        repository.subscribe(self._on_repository_change)
        self.refresh_from_policies()

    # -- configuration -------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when objectives are declared and a metrics registry exists."""
        return bool(self.objectives) and self.metrics.enabled

    def refresh_from_policies(self) -> None:
        """Re-scan the repository for ``observability.slo`` policies.

        Each policy contributes one objective per ``Slo`` assertion,
        paired with the policy's ``BurnRateAlert`` assertion (or the
        default thresholds when none is declared). The evaluator starts on
        the next :meth:`ensure_started`.
        """
        found = self.repository.configuration(SloAction, BurnRateAlertAction)
        self.objectives = [
            SloObjective(
                policy_name=policy.name,
                scope=policy.scope,
                slo=action,
                alert=next(
                    (a for p, a in found if p is policy and isinstance(a, BurnRateAlertAction)),
                    BurnRateAlertAction(),
                ),
            )
            for policy, action in found
            if isinstance(action, SloAction)
        ]
        self.on_refresh()

    def _on_repository_change(self) -> None:
        """Hot reload: follow the repository, evaluator included."""
        self.refresh_from_policies()
        self.ensure_started()

    def ensure_started(self) -> None:
        """Start the evaluation ticker (idempotent; no-op while inactive)."""
        if self._process is None and self.active:
            self._process = self.env.process(self._run(), name="slo-evaluator")

    def add_sink(self, sink: Callable[[MASCEvent], None]) -> None:
        self._sinks.append(sink)

    def register_endpoint(self, address: str, service_type: str) -> None:
        """Teach the engine which service type an endpoint implements
        (scope matching and event subjects)."""
        self._service_types[address] = service_type

    # -- measurement feed ----------------------------------------------------

    def record(
        self,
        target: str,
        duration: float,
        ok: bool,
        trace_id: str | None = None,
        correlation_id: str | None = None,
        span_id: str | None = None,
    ) -> None:
        """One completed delivery attempt (called from the bus send path)."""
        instruments = self._instruments.get(target)
        if instruments is None:
            instruments = self._instruments[target] = (
                self.metrics.counter(labeled_name("wsbus.endpoint.requests", endpoint=target)),
                self.metrics.counter(labeled_name("wsbus.endpoint.failures", endpoint=target)),
                self.metrics.histogram(
                    labeled_name("wsbus.endpoint.seconds", endpoint=target),
                    window=2048,
                    buckets=DEFAULT_LATENCY_BUCKETS,
                ),
            )
            self._series[target] = _EndpointSeries()
        requests, failures, histogram = instruments
        requests.inc()
        if not ok:
            failures.inc()
        histogram.observe(
            duration, trace_id=trace_id, correlation_id=correlation_id, span_id=span_id
        )

    # -- evaluation ----------------------------------------------------------

    def _run(self):
        # Re-read the objectives every tick: a reload may change the
        # interval, and an unload ends the ticker until the next reload.
        while self.objectives:
            yield self.env.timeout(
                min(o.alert.evaluation_interval_seconds for o in self.objectives)
            )
            self.evaluate()
        self._process = None

    def evaluate(self) -> None:
        """One evaluation tick: advance windows, fire transitions."""
        if not self.objectives:
            return
        now = self.env.now
        horizon = max(
            [o.alert.slow_window_seconds for o in self.objectives]
            + [o.slo.window_seconds for o in self.objectives]
        )
        for target in sorted(self._instruments):
            requests, failures, _histogram = self._instruments[target]
            self._series[target].advance(now, requests.value, failures.value, horizon)
        for objective in self.objectives:
            for target in sorted(self._instruments):
                subject = {
                    "endpoint": target,
                    "service_type": self._service_types.get(target),
                }
                if not objective.scope.matches(**subject):
                    continue
                self._evaluate_pair(objective, target, now)

    def _evaluate_pair(self, objective: SloObjective, target: str, now: float) -> None:
        alert = objective.alert
        slo = objective.slo
        series = self._series[target]
        histogram = self._instruments[target][2]
        status = self._status.setdefault((objective.key, target), SloStatus())
        budget = slo.error_budget

        fast_requests, fast_failures = series.window_totals(now, alert.fast_window_seconds)
        slow_requests, slow_failures = series.window_totals(now, alert.slow_window_seconds)
        slo_requests, slo_failures = series.window_totals(now, slo.window_seconds)
        status.fast_burn = _burn(fast_failures, fast_requests, budget)
        status.slow_burn = _burn(slow_failures, slow_requests, budget)
        status.budget_consumed = _burn(slo_failures, slo_requests, budget)

        status.latency_violated = False
        status.latency_observed = None
        if slo.latency_target_seconds is not None:
            q = float(slo.latency_percentile[1:])
            observed = histogram.percentile(q)
            status.latency_observed = observed
            if observed is not None and observed > slo.latency_target_seconds:
                status.latency_violated = True

        volume_ok = slow_requests >= alert.min_requests
        burning = (
            volume_ok
            and status.fast_burn >= alert.fast_burn_threshold
            and status.slow_burn >= alert.slow_burn_threshold
        )
        exhausted = (
            slo_requests >= alert.min_requests and status.budget_consumed >= 1.0
        )

        if status.state == "ok":
            if burning or status.latency_violated:
                status.state = "burning"
                self._emit("sloBurnRateExceeded", objective, target, status)
            elif exhausted:
                status.state = "exhausted"
                self._emit("errorBudgetExhausted", objective, target, status)
        elif status.state == "burning":
            if exhausted:
                status.state = "exhausted"
                self._emit("errorBudgetExhausted", objective, target, status)
            elif (
                volume_ok
                and status.fast_burn < 1.0
                and not status.latency_violated
                and not burning
            ):
                status.state = "ok"
                self._emit("sloRecovered", objective, target, status)
        # "exhausted" is terminal for the SLO window: the budget is spent;
        # the state resets only once the window slides past the spend.
        elif status.state == "exhausted" and not exhausted and status.fast_burn < 1.0:
            status.state = "ok"
            self._emit("sloRecovered", objective, target, status)

    # -- event emission ------------------------------------------------------

    def _emit(
        self, name: str, objective: SloObjective, target: str, status: SloStatus
    ) -> None:
        status.events_emitted += 1
        histogram = self._instruments[target][2]
        exemplars = histogram.exemplars()[-_EVENT_EXEMPLARS:]
        context = {
            "objective": objective.slo.name,
            "availability_target": objective.slo.availability_target,
            "error_budget": objective.slo.error_budget,
            "fast_burn": status.fast_burn,
            "slow_burn": status.slow_burn,
            "budget_consumed": status.budget_consumed,
            "latency_observed": status.latency_observed,
            "exemplars": exemplars,
        }
        span = None
        if self.tracer.enabled:
            # The exemplar is the bridge from the aggregate violation back
            # to one concrete cross-layer request trace: when the latest
            # exemplar carries a span reference, the violation span joins
            # *that request's trace* — so one trace id runs client →
            # mediation → violation → (leader-forwarded) adaptation.
            parent = None
            if exemplars:
                latest = exemplars[-1]
                if latest.get("trace_id") and latest.get("span_id"):
                    parent = TraceContext(
                        trace_id=latest["trace_id"],
                        span_id=latest["span_id"],
                        correlation_id=latest.get("correlation_id"),
                    )
            span = self.tracer.start_span(
                "slo.violation" if name != "sloRecovered" else "slo.recovered",
                parent=parent,
                attributes={
                    "event": name,
                    "objective": objective.slo.name,
                    "endpoint": target,
                    "fast_burn": round(status.fast_burn, 4),
                    "slow_burn": round(status.slow_burn, 4),
                },
            )
            if exemplars:
                span.set_attribute("exemplar.trace_id", exemplars[-1]["trace_id"])
        event = MASCEvent(
            name=name,
            time=self.env.now,
            service_type=self._service_types.get(target),
            endpoint=target,
            context=context,
            raised_by=objective.policy_name,
            trace_parent=span,
        )
        self.events.append(
            {
                "name": name,
                "time": self.env.now,
                "endpoint": target,
                "objective": objective.slo.name,
                "fast_burn": status.fast_burn,
                "slow_burn": status.slow_burn,
                "budget_consumed": status.budget_consumed,
                "exemplar_trace_ids": [e["trace_id"] for e in exemplars],
            }
        )
        if self.metrics.enabled:
            self.metrics.counter(f"slo.events.{name}").inc()
        for sink in self._sinks:
            sink(event)
        if span is not None:
            span.end(status=name)

    # -- reporting -----------------------------------------------------------

    def status_table(self) -> dict[str, dict[str, dict]]:
        """``{endpoint: {objective: status-dict}}`` in sorted order."""
        table: dict[str, dict[str, dict]] = {}
        for (objective_key, target), status in sorted(self._status.items()):
            table.setdefault(target, {})[objective_key] = status.as_dict()
        return table

    def endpoint_window(self, target: str, window: float) -> tuple[int, int]:
        """``(requests, failures)`` for one endpoint over ``window`` seconds."""
        series = self._series.get(target)
        if series is None:
            return 0, 0
        return series.window_totals(self.env.now, window)

    def summary(self) -> dict:
        """The ``slo`` section of :meth:`~repro.wsbus.bus.WsBus.stats_summary`."""
        return {
            "objectives": [o.describe() for o in self.objectives],
            "status": self.status_table(),
            "events": list(self.events),
        }


def _burn(failures: int, requests: int, budget: float) -> float:
    """Failure fraction over the window, normalized by the error budget."""
    if requests <= 0:
        return 0.0
    return (failures / requests) / budget
