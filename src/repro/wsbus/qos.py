"""QoS Measurement Service.

"Responsible for management data collection and analysis either through
direct computation of QoS metrics... The key QoS metrics measured by this
component are: (a) Reliability (calculated as a ratio of successful
invocations over the number of total invocations in given period of time);
(b) Response Time (the time interval between when a service is requested
and when it is delivered); (c) Availability: the percentage of time that a
service is available during some time interval."

The service consumes :class:`~repro.services.InvocationRecord` streams
(subscribe it to any invoker) and serves aggregate lookups — including the
``qos_lookup`` interface the MASC monitoring service and QoS-threshold
assertions expect, and the best-endpoint query the selection service uses.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter

from repro.services import InvocationRecord

__all__ = ["EndpointQoS", "QoSMeasurementService"]

#: Percentile aggregates of :meth:`EndpointQoS.response_time`.
_QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}
_AGGREGATES = frozenset(_QUANTILES) | {"mean", "min", "max"}

#: Completion order, for merging the observations of several buses. Built
#: in C: sorting a window through it makes no Python call per record.
_order_key = attrgetter("finished_at", "started_at", "target", "caller", "operation")


class _Evidence:
    """The newest ``size`` observations of one endpoint, kept digested.

    ``outcomes`` holds one entry per observation, oldest first: the
    round-trip time of a success, ``None`` for a failure. ``durations`` is
    the ascending list of the successes among them — exactly what
    ``sorted(...)`` over the window would return, so every aggregate read
    from it (the mean included: ``sum`` runs over the same floats in the
    same order) equals the recomputed one bit for bit.
    """

    __slots__ = ("size", "outcomes", "durations")

    def __init__(self, size: int, newest) -> None:
        self.size = size
        self.outcomes = deque(
            (r.duration if r.succeeded else None for r in newest), maxlen=size
        )
        self.durations = sorted(d for d in self.outcomes if d is not None)

    def push(self, duration: float | None) -> None:
        outcomes = self.outcomes
        if len(outcomes) == self.size:
            if not outcomes:
                return  # a zero-length window holds nothing
            evicted = outcomes[0]  # the append below drops it
            if evicted is not None:
                del self.durations[bisect_left(self.durations, evicted)]
        outcomes.append(duration)
        if duration is not None:
            insort(self.durations, duration)


@dataclass
class EndpointQoS:
    """Rolling QoS observations for one endpoint.

    ``records`` is the window itself; :meth:`add` is the only way to grow
    it in place, and assigning a new deque (as a gossip merge does) is the
    only other supported change. Look-ups are served from one
    :class:`_Evidence` per window size that has been asked for, created on
    the first such look-up and kept current by :meth:`add` — an endpoint
    nobody queries maintains nothing.
    """

    address: str
    window: int = 500
    records: deque = field(default_factory=deque)
    total_invocations: int = 0
    total_failures: int = 0
    #: Window size -> evidence over ``_mirrored``; dropped as a whole when
    #: ``records`` is no longer the deque they were built from.
    _evidence: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _mirrored: deque | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.records, deque) or self.records.maxlen != self.window:
            self.records = deque(self.records, maxlen=self.window)

    def add(self, record: InvocationRecord) -> None:
        self.records.append(record)
        self.total_invocations += 1
        succeeded = record.succeeded
        if not succeeded:
            self.total_failures += 1
        if self._evidence:
            duration = record.duration if succeeded else None
            for evidence in self._evidence.values():
                evidence.push(duration)

    # -- metric computations ---------------------------------------------------

    def _recent(self, window: int):
        """The window's records, oldest first, without copying the deque."""
        records = self.records
        if 0 < window < len(records):
            return islice(records, len(records) - window, None)
        return records

    def _evidence_for(self, window: int) -> _Evidence:
        records = self.records
        if self._mirrored is not records:
            self._evidence.clear()
            self._mirrored = records
        size = window if 0 < window < self.window else self.window
        evidence = self._evidence.get(size)
        if evidence is None:
            evidence = self._evidence[size] = _Evidence(size, self._recent(size))
        return evidence

    def sample_count(self, window: int = 0, successful_only: bool = False) -> int:
        """How many observations the window holds (adaptive-timeout input)."""
        if successful_only:
            return len(self._evidence_for(window).durations)
        held = len(self.records)
        return min(window, held) if window > 0 else held

    def reliability(self, window: int = 0) -> float | None:
        """Ratio of successful invocations over total, in the window."""
        evidence = self._evidence_for(window)
        if not evidence.outcomes:
            return None
        return len(evidence.durations) / len(evidence.outcomes)

    def response_time(
        self, window: int = 0, aggregate: str = "mean", *, min_samples: int = 1
    ) -> float | None:
        """Aggregate RTT over the *successful* invocations in the window.

        ``None`` while the window holds fewer than ``min_samples``
        successes (at least one is always needed).
        """
        if aggregate not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {aggregate!r}")
        durations = self._evidence_for(window).durations
        if len(durations) < max(min_samples, 1):
            return None
        if aggregate == "mean":
            return sum(durations) / len(durations)
        if aggregate == "min":
            return durations[0]
        if aggregate == "max":
            return durations[-1]
        last = len(durations) - 1
        return durations[min(last, int(round(_QUANTILES[aggregate] * last)))]

    def availability(self, window: int = 0) -> float | None:
        """Observed availability: uptime fraction estimated from the
        request outcome timeline (MTBF / (MTBF + MTTR)).

        Consecutive failed requests form one outage burst; the burst's
        duration (first failure start to last failure end) approximates
        time-to-recover as seen by callers.
        """
        records = self.records
        if not records:
            return None
        oldest = records[max(0, len(records) - window)] if window > 0 else records[0]
        newest = records[-1]
        horizon = newest.finished_at - oldest.started_at
        if horizon <= 0:
            return 1.0 if newest.succeeded else 0.0
        downtime = 0.0
        burst_start: float | None = None
        burst_end = 0.0
        for record in self._recent(window):
            if not record.succeeded:
                if burst_start is None:
                    burst_start = record.started_at
                burst_end = record.finished_at
            else:
                if burst_start is not None:
                    downtime += burst_end - burst_start
                    burst_start = None
        if burst_start is not None:
            downtime += burst_end - burst_start
        return max(0.0, min(1.0, 1.0 - downtime / horizon))

    def throughput(self, window: int = 0) -> float | None:
        """Successful requests per second, as a caller observed them.

        Semantics:

        - The numerator counts *successful* invocations in the window.
        - The denominator is the delivery span: from the first successful
          invocation's start to the last successful invocation's finish.
          Think-time gaps between successes count as elapsed time (this is
          an observed delivery rate, not a peak service rate), but failed
          requests hanging off the edges of the window — e.g. a trailing
          30-second timeout burn — no longer dilute the rate of the
          successes that actually happened.
        - A single successful invocation is a measurable rate: its own
          duration is the span (one success taking 0.5s is 2 req/s).
        - Returns ``0.0`` when the window holds records but no success,
          and ``None`` only when the window is empty or the successes
          carry no elapsed time to divide by (all instantaneous).
        """
        if not self.records:
            return None
        successes = len(self._evidence_for(window).durations)
        if not successes:
            return 0.0
        first = next(r for r in self._recent(window) if r.succeeded)
        last = next(r for r in reversed(self.records) if r.succeeded)
        span = last.finished_at - first.started_at
        if span <= 0:
            return None
        return successes / span


class QoSMeasurementService:
    """Collects invocation records and serves QoS aggregates."""

    def __init__(self, window: int = 500) -> None:
        self.window = window
        self.endpoints: dict[str, EndpointQoS] = {}

    # -- collection --------------------------------------------------------------

    def observe(self, record: InvocationRecord) -> None:
        """Invoker-observer entry point."""
        endpoint = self.endpoints.get(record.target)
        if endpoint is None:
            endpoint = EndpointQoS(record.target, window=self.window)
            self.endpoints[record.target] = endpoint
        endpoint.add(record)

    def attach_to_invoker(self, invoker) -> None:
        invoker.add_observer(self.observe)

    # -- federation anti-entropy ---------------------------------------------------

    def digest(self, limit: int = 0) -> dict[str, list[InvocationRecord]]:
        """Per-endpoint observation digest for gossip exchange.

        Returns the newest ``limit`` records per endpoint (all windowed
        records when 0), keyed by address in sorted order so two buses
        with the same observations produce identical digests.
        """
        out: dict[str, list[InvocationRecord]] = {}
        for address in sorted(self.endpoints):
            out[address] = list(self.endpoints[address]._recent(limit))
        return out

    def merge_records(self, address: str, records) -> int:
        """Fold remotely observed records into an endpoint's rolling window.

        Records already present in the window are skipped; the merged
        window is re-ordered by completion time so a bus that *received*
        an observation via gossip converges on the same window (and hence
        the same ``best_endpoint`` answers) as the bus that made it.
        Returns how many records were new.
        """
        endpoint = self.endpoints.get(address)
        if endpoint is None:
            endpoint = EndpointQoS(address, window=self.window)
            self.endpoints[address] = endpoint
        window = endpoint.records
        incoming = list(records)
        # A duplicate finished when some resident record did. Only then is the
        # window hashed to find it (InvocationRecord.__hash__ is a Python
        # function); a gossip delta, which holds no resident record, never is.
        finishes = {r.finished_at for r in window}
        known = set(window) if any(r.finished_at in finishes for r in incoming) else ()
        fresh = [r for r in incoming if r not in known]
        if not fresh:
            return 0
        for record in fresh:
            endpoint.total_invocations += 1
            if not record.succeeded:
                endpoint.total_failures += 1
        combined = sorted(chain(window, fresh), key=_order_key)
        endpoint.records = deque(combined, maxlen=endpoint.window)
        return len(fresh)

    # -- queries ------------------------------------------------------------------

    def endpoint(self, address: str) -> EndpointQoS | None:
        return self.endpoints.get(address)

    def lookup(
        self, metric: str, window: int, aggregate: str, endpoint: str | None
    ) -> float | None:
        """The ``qos_lookup`` interface used by QoS threshold assertions."""
        if endpoint is None:
            return None
        qos = self.endpoints.get(endpoint)
        if qos is None:
            return None
        if metric == "response_time":
            return qos.response_time(window, aggregate)
        if metric == "reliability":
            return qos.reliability(window)
        if metric == "availability":
            return qos.availability(window)
        if metric == "throughput":
            return qos.throughput(window)
        raise ValueError(f"unknown QoS metric {metric!r}")

    def best_endpoint(
        self, candidates: list[str], metric: str = "response_time", window: int = 50
    ) -> str | None:
        """The candidate with the best observed metric.

        Lower is better for response time; higher for everything else.
        Candidates without history win over candidates with *bad* history
        only when no measured candidate exists — unknown beats nothing,
        measurement beats optimism.
        """
        measured: list[tuple[float, str]] = []
        unmeasured: list[str] = []
        for address in candidates:
            value = self.lookup(metric, window, "mean", address)
            if value is None:
                unmeasured.append(address)
            else:
                measured.append((value, address))
        if not measured:
            return unmeasured[0] if unmeasured else None
        if metric == "response_time":
            return min(measured)[1]
        return max(measured)[1]
