"""QoS evidence is maintained, not recomputed: equivalence and cost.

``ScanEndpointQoS``/``scan_merge`` below are the look-ups and the gossip
merge as they were computed before the rolling windows existed — copy the
window, scan it, sort it — kept here as the oracle. The maintained
structure must return *the same objects' worth of bits* (``==``, never
``approx``) after any interleaving of ``add``, ``merge_records`` and
look-ups, and must do so without touching the window again.
"""

from __future__ import annotations

import ast
import gc
import sys
from collections import deque
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.federation import QoSGossip
from repro.policy.actions import AdaptiveTimeoutAction
from repro.resilience.timeouts import adaptive_timeout
from repro.services import InvocationOutcome, InvocationRecord
from repro.wsbus import qos as qos_module
from repro.wsbus.qos import EndpointQoS, QoSMeasurementService

ADDRESS = "http://svc/a"
WINDOWS = (0, 1, 5, 50, 500, 501)
AGGREGATES = ("mean", "min", "max", "p50", "p95", "p99")


# ---------------------------------------------------------------------------
# The oracle: every look-up recomputed from a copy of the window
# ---------------------------------------------------------------------------


class ScanEndpointQoS:
    def __init__(self, window: int = 500, records=()) -> None:
        self.window = window
        self.records = deque(records, maxlen=window)
        self.total_invocations = 0
        self.total_failures = 0

    def add(self, record) -> None:
        self.records.append(record)
        self.total_invocations += 1
        if not record.succeeded:
            self.total_failures += 1

    def _recent(self, window):
        records = list(self.records)
        return records[-window:] if window > 0 else records

    def sample_count(self, window=0, successful_only=False):
        records = self._recent(window)
        if successful_only:
            return sum(1 for r in records if r.succeeded)
        return len(records)

    def reliability(self, window=0):
        records = self._recent(window)
        if not records:
            return None
        return sum(1 for r in records if r.succeeded) / len(records)

    def response_time(self, window=0, aggregate="mean"):
        durations = sorted(r.duration for r in self._recent(window) if r.succeeded)
        if not durations:
            return None
        if aggregate == "mean":
            return sum(durations) / len(durations)
        if aggregate == "min":
            return durations[0]
        if aggregate == "max":
            return durations[-1]
        quantile = {"p50": 0.50, "p95": 0.95, "p99": 0.99}[aggregate]
        index = min(len(durations) - 1, int(round(quantile * (len(durations) - 1))))
        return durations[index]

    def availability(self, window=0):
        records = self._recent(window)
        if not records:
            return None
        horizon = records[-1].finished_at - records[0].started_at
        if horizon <= 0:
            return 1.0 if records[-1].succeeded else 0.0
        downtime = 0.0
        burst_start = None
        burst_end = 0.0
        for record in records:
            if not record.succeeded:
                if burst_start is None:
                    burst_start = record.started_at
                burst_end = record.finished_at
            elif burst_start is not None:
                downtime += burst_end - burst_start
                burst_start = None
        if burst_start is not None:
            downtime += burst_end - burst_start
        return max(0.0, min(1.0, 1.0 - downtime / horizon))

    def throughput(self, window=0):
        records = self._recent(window)
        if not records:
            return None
        successes = [r for r in records if r.succeeded]
        if not successes:
            return 0.0
        span = successes[-1].finished_at - successes[0].started_at
        if span <= 0:
            return None
        return len(successes) / span


def scan_merge(endpoint: ScanEndpointQoS, records) -> int:
    known = set(endpoint.records)
    fresh = [r for r in records if r not in known]
    if not fresh:
        return 0
    for record in fresh:
        endpoint.total_invocations += 1
        if not record.succeeded:
            endpoint.total_failures += 1
    combined = sorted(
        list(endpoint.records) + fresh,
        key=lambda r: (r.finished_at, r.started_at, r.target, r.caller, r.operation),
    )
    endpoint.records = deque(combined, maxlen=endpoint.window)
    return len(fresh)


def every_lookup(endpoint) -> dict:
    answers = {}
    for window in WINDOWS:
        answers[window, "count"] = endpoint.sample_count(window)
        answers[window, "successes"] = endpoint.sample_count(window, successful_only=True)
        answers[window, "reliability"] = endpoint.reliability(window)
        answers[window, "availability"] = endpoint.availability(window)
        answers[window, "throughput"] = endpoint.throughput(window)
        for aggregate in AGGREGATES:
            answers[window, aggregate] = endpoint.response_time(window, aggregate)
    return answers


# ---------------------------------------------------------------------------
# Equivalence as a property
# ---------------------------------------------------------------------------

# Few distinct instants and callers, so that ties in completion time, equal
# records and windows that are not in key order all turn up; free-ranging
# durations beside them, so that the mean's summation order is exercised.
_instants = st.integers(0, 12).map(lambda tick: tick * 0.25)
_durations = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0 / 3.0]),
    st.floats(min_value=1e-6, max_value=40.0, allow_nan=False),
)
_records = st.builds(
    lambda started, duration, ok, caller: InvocationRecord(
        caller=caller,
        target=ADDRESS,
        operation="op",
        started_at=started,
        finished_at=started + duration,
        outcome=InvocationOutcome.SUCCESS if ok else InvocationOutcome.FAULT,
    ),
    _instants,
    _durations,
    st.booleans(),
    st.sampled_from(["vep@a", "vep@b"]),
)


class RollingMatchesScan(RuleBasedStateMachine):
    """``add``/``merge_records``/look-ups in any order, against the oracle."""

    window = 500

    @initialize(seed=st.lists(_records, max_size=12))
    def build(self, seed):
        # The endpoint is built from existing records (none, some of the time).
        self.service = QoSMeasurementService(window=self.window)
        self.oracle = ScanEndpointQoS(self.window, seed)
        self.service.endpoints[ADDRESS] = EndpointQoS(ADDRESS, self.window, list(seed))
        self.seen = list(seed)

    @property
    def endpoint(self) -> EndpointQoS:
        return self.service.endpoints[ADDRESS]

    @rule(record=_records)
    def add(self, record):
        self.service.observe(record)
        self.oracle.add(record)
        self.seen.append(record)

    @rule(record=_records, copies=st.integers(2, 400))
    def add_burst(self, record, copies):
        # Walks the window past ``maxlen`` within one example.
        for index in range(copies):
            shifted = InvocationRecord(
                record.caller,
                record.target,
                record.operation,
                record.started_at + index * 0.125,
                record.finished_at + index * 0.125 + (index % 7) * 0.01,
                record.outcome if index % 5 else InvocationOutcome.FAULT,
            )
            self.add(shifted)

    @rule(
        incoming=st.lists(_records, max_size=8),
        overlap=st.integers(0, 600),
        data=st.data(),
    )
    def merge(self, incoming, overlap, data):
        # Remote records mixed with ones already seen (resident or evicted),
        # shuffled: overlapping, out of order, possibly more than a window.
        known = self.seen[-overlap:] if overlap else []
        batch = data.draw(st.permutations(incoming + known))
        assert self.service.merge_records(ADDRESS, batch) == scan_merge(self.oracle, batch)
        self.seen.extend(incoming)

    @rule(window=st.sampled_from(WINDOWS), aggregate=st.sampled_from(AGGREGATES))
    def look_up(self, window, aggregate):
        # A look-up on its own: which windows are tracked when the next
        # ``add`` arrives is part of the state space.
        assert self.endpoint.response_time(window, aggregate) == self.oracle.response_time(
            window, aggregate
        )
        assert self.endpoint.reliability(window) == self.oracle.reliability(window)

    @invariant()
    def same_window_same_answers(self):
        assert list(self.endpoint.records) == list(self.oracle.records)
        assert self.endpoint.total_invocations == self.oracle.total_invocations
        assert self.endpoint.total_failures == self.oracle.total_failures
        assert every_lookup(self.endpoint) == every_lookup(self.oracle)


class SmallWindowMatchesScan(RollingMatchesScan):
    """The same machine on a seven-record window: every step evicts."""

    window = 7


TestRollingMatchesScan = RollingMatchesScan.TestCase
TestRollingMatchesScan.settings = settings(max_examples=25, stateful_step_count=20, deadline=None)
TestSmallWindowMatchesScan = SmallWindowMatchesScan.TestCase
TestSmallWindowMatchesScan.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


def _record(index: int, ok: bool = True, target: str = ADDRESS, caller: str = "vep@a"):
    started = index * 0.5
    return InvocationRecord(
        caller=caller,
        target=target,
        operation="op",
        started_at=started,
        finished_at=started + 0.05 + (index * 37 % 101) / 1000.0,
        outcome=InvocationOutcome.SUCCESS if ok else InvocationOutcome.FAULT,
    )


def _full_endpoint(count: int = 700) -> EndpointQoS:
    endpoint = EndpointQoS(ADDRESS)
    for index in range(count):
        endpoint.add(_record(index, ok=index % 6 != 0))
    return endpoint


def test_a_reassigned_window_leaves_no_stale_evidence():
    endpoint = _full_endpoint()
    assert endpoint.response_time(50, "p95") is not None
    replacement = [_record(index, ok=index % 2 == 0) for index in range(1000, 1040)]
    endpoint.records = deque(replacement, maxlen=endpoint.window)
    oracle = ScanEndpointQoS(endpoint.window, replacement)
    assert every_lookup(endpoint) == every_lookup(oracle)
    endpoint.add(late := _record(2000))
    oracle.add(late)
    assert every_lookup(endpoint) == every_lookup(oracle)


# ---------------------------------------------------------------------------
# Cost as a count
# ---------------------------------------------------------------------------


class _CountingDeque(deque):
    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_warm_lookups_never_touch_the_window(monkeypatch):
    endpoint = _full_endpoint()
    endpoint.records = _CountingDeque(endpoint.records, maxlen=endpoint.window)

    def look_up_everything():
        for window in (0, 50):
            endpoint.sample_count(window)
            endpoint.sample_count(window, successful_only=True)
            endpoint.reliability(window)
            for aggregate in AGGREGATES:
                endpoint.response_time(window, aggregate)

    look_up_everything()  # builds the evidence for both windows
    reads = []
    monkeypatch.setattr(
        InvocationRecord,
        "succeeded",
        property(lambda self: reads.append(1) or self.outcome is InvocationOutcome.SUCCESS),
    )
    _CountingDeque.iterations = 0
    for _ in range(1000 // 18 + 1):
        look_up_everything()
    assert reads == []
    assert _CountingDeque.iterations == 0  # no list, slice or scan of the window


def test_an_unqueried_endpoint_maintains_nothing():
    endpoint = _full_endpoint()
    assert endpoint._evidence == {}
    endpoint.response_time(50, "mean")
    endpoint.response_time(500, "mean")
    endpoint.response_time(0, "mean")
    endpoint.response_time(501, "mean")
    assert sorted(endpoint._evidence) == [50, 500]  # 0, 500 and 501 are one window


def _python_calls(function) -> int:
    """Python-level calls ``function`` makes, without any a collection would add.

    A collection inside the profiled window runs every ``gc.callbacks``
    entry (hypothesis installs one), whose calls would count as the
    function's own, so the collector is emptied and then held off.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def test_adaptive_timeout_costs_the_same_on_any_warm_window():
    config = AdaptiveTimeoutAction(aggregate="p95", window=400, min_samples=5)
    costs = []
    for count in (20, 700):
        service = QoSMeasurementService()
        for index in range(count):
            service.observe(_record(index))
        assert adaptive_timeout(service, ADDRESS, config, 8.0) != 8.0
        costs.append(_python_calls(lambda: adaptive_timeout(service, ADDRESS, config, 8.0)))
    assert costs[0] == costs[1] <= 8


def test_gossip_hashes_each_record_once_and_an_idle_round_hashes_none(env, monkeypatch):
    hashed = []
    original = InvocationRecord.__hash__
    monkeypatch.setattr(
        InvocationRecord, "__hash__", lambda self: hashed.append(self) or original(self)
    )
    gossip = QoSGossip(env, interval_seconds=1.0)
    services = {name: QoSMeasurementService(window=40) for name in ("a", "b", "c")}
    for name, service in services.items():
        gossip.register(name, service)
    observed = 0
    for step in range(6):
        for offset, (name, service) in enumerate(services.items()):
            for index in range(25):
                serial = step * 100 + offset * 30 + index
                service.observe(
                    _record(serial, ok=serial % 4 != 0, target=f"http://svc/{index % 3}",
                            caller=f"vep@{name}")
                )
                observed += 1
        gossip.run_round(sorted(services))
    while gossip.run_round(sorted(services)):
        pass
    # Where it was first observed, and nowhere else: not when it crosses to
    # another agent, not when it is merged into a window.
    assert len(hashed) == observed
    assert len({id(record) for record in hashed}) == observed
    windows = [
        {address: list(endpoint.records) for address, endpoint in service.endpoints.items()}
        for service in services.values()
    ]
    assert windows[0] == windows[1] == windows[2]

    del hashed[:]
    exchanged = gossip.records_exchanged
    assert gossip.run_round(sorted(services)) == 0
    assert hashed == [] and gossip.records_exchanged == exchanged


def test_no_lookup_copies_the_window():
    tree = ast.parse(Path(qos_module.__file__).read_text())
    (endpoint_class,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "EndpointQoS"
    ]
    copies = [
        node.lineno
        for node in ast.walk(endpoint_class)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "sorted", "tuple")
        and any(
            isinstance(arg, ast.Attribute) and arg.attr == "records" for arg in node.args
        )
    ]
    assert copies == []
