"""Tests for the resilience subsystem: breakers, bulkheads, adaptive
timeouts, load shedding, retry jitter, and dead-letter replay."""

import pytest

from conftest import ECHO_CONTRACT, EchoService, SlowEchoService, run_process
from repro.policy import (
    AdaptationPolicy,
    AdaptiveTimeoutAction,
    BulkheadAction,
    CircuitBreakerAction,
    LoadSheddingAction,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    RetryAction,
    SubstituteAction,
    parse_policy_document,
    serialize_policy_document,
)
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer
from repro.resilience import Bulkhead, CircuitBreaker, LoadShedder, adaptive_timeout
from repro.services import InvocationOutcome, InvocationRecord, Invoker
from repro.simulation import RandomSource
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapFaultError
from repro.wsbus import DeadLetterQueue, RetryQueue, WsBus
from repro.wsbus.qos import QoSMeasurementService
from repro.xmlutils import Element


# ---------------------------------------------------------------------------
# Circuit breaker state machine (unit, manual clock)
# ---------------------------------------------------------------------------


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_breaker(clock, **overrides):
    defaults = dict(
        failure_rate_threshold=0.5,
        window=10,
        min_calls=4,
        consecutive_failures=3,
        open_seconds=30.0,
        half_open_probes=1,
    )
    defaults.update(overrides)
    return CircuitBreaker("http://svc/x", CircuitBreakerAction(**defaults), clock)


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures(self):
        breaker = make_breaker(Clock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state.value == "closed"
        breaker.record_failure()
        assert breaker.state.value == "open"
        assert "consecutive" in breaker.transitions[-1].reason

    def test_trips_on_failure_rate(self):
        breaker = make_breaker(Clock(), consecutive_failures=99)
        # 2 failures / 4 calls = 50% >= threshold, min_calls satisfied.
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state.value == "closed"  # only 3 calls so far
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state.value == "open"
        assert "failure rate" in breaker.transitions[-1].reason

    def test_success_resets_consecutive_count(self):
        breaker = make_breaker(Clock(), min_calls=99)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state.value == "closed"

    def test_open_blocks_until_interval_elapses(self):
        clock = Clock()
        breaker = make_breaker(clock, open_seconds=30.0)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow_request()
        assert not breaker.would_allow()
        clock.now = 31.0
        assert breaker.would_allow()

    def test_half_open_probe_budget(self):
        clock = Clock()
        breaker = make_breaker(clock, half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        # would_allow is a non-consuming peek: selection may ask many times.
        assert breaker.would_allow()
        assert breaker.would_allow()
        assert breaker.allow_request()  # consumes the single probe
        assert breaker.state.value == "half_open"
        assert not breaker.allow_request()
        assert not breaker.would_allow()

    def test_probe_success_closes(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state.value == "closed"
        # The poisoned outcome window was cleared: one old failure must not
        # immediately re-trip the freshly closed breaker.
        breaker.record_failure()
        assert breaker.state.value == "closed"

    def test_probe_failure_reopens(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow_request()
        breaker.record_failure()
        assert breaker.state.value == "open"
        # The open interval restarts from the failed probe.
        clock.now = 40.0
        assert not breaker.would_allow()
        clock.now = 62.0
        assert breaker.would_allow()

    def test_lost_probe_outcome_reclaims_via_allow_request(self):
        """Regression: a half-open probe whose outcome never arrives (the
        request was shed, bulkhead-rejected, or lost) used to wedge the
        breaker — the probe budget stayed exhausted forever. The breaker
        now re-opens once the probe is ``open_seconds`` old, restarting
        the normal open → half-open cycle."""
        clock = Clock()
        breaker = make_breaker(clock, open_seconds=30.0, half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow_request()  # the probe whose outcome gets lost
        # Probe budget exhausted; no outcome ever recorded.
        clock.now = 60.0
        assert not breaker.allow_request()
        # open_seconds after the probe admission: reclaimed, back to OPEN.
        clock.now = 61.0
        assert not breaker.allow_request()
        assert breaker.state.value == "open"
        assert breaker.transitions[-1].reason == "half-open probe timed out"
        assert breaker.transitions[-1].from_state == "half_open"
        # The cycle restarts: a fresh probe is admitted and can close it.
        clock.now = 92.0
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state.value == "closed"

    def test_lost_probe_outcome_reclaims_via_would_allow(self):
        """Selection filters a wedged breaker's endpoint out, so the
        breaker may only ever see ``would_allow`` peeks — those must
        reclaim a timed-out probe too, or the endpoint never returns."""
        clock = Clock()
        breaker = make_breaker(clock, open_seconds=30.0, half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow_request()
        clock.now = 61.0
        assert not breaker.would_allow()
        assert breaker.state.value == "open"
        assert breaker.transitions[-1].reason == "half-open probe timed out"
        clock.now = 92.0
        assert breaker.would_allow()

    def test_resolved_probe_is_not_reclaimed(self):
        """A probe that *did* report its outcome transitions normally —
        the reclaim only fires for unresolved probes."""
        clock = Clock()
        breaker = make_breaker(clock, open_seconds=30.0, half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state.value == "closed"
        clock.now = 120.0
        assert breaker.allow_request()
        assert breaker.state.value == "closed"
        assert all(
            t.reason != "half-open probe timed out" for t in breaker.transitions
        )


# ---------------------------------------------------------------------------
# Bulkheads
# ---------------------------------------------------------------------------


class TestBulkhead:
    def test_admits_to_capacity_then_queues_then_rejects(self, env):
        bulkhead = Bulkhead("endpoint:x", env, max_concurrent=2, max_queue=1)
        assert bulkhead.try_acquire() is None
        assert bulkhead.try_acquire() is None
        waiter = bulkhead.try_acquire()
        assert waiter is not None  # queued
        with pytest.raises(SoapFaultError) as excinfo:
            bulkhead.try_acquire()
        assert excinfo.value.fault.code is FaultCode.SERVICE_UNAVAILABLE
        assert bulkhead.rejected == 1

    def test_release_hands_slot_to_oldest_waiter(self, env):
        bulkhead = Bulkhead("endpoint:x", env, max_concurrent=1, max_queue=2)
        assert bulkhead.try_acquire() is None
        waiter = bulkhead.try_acquire()
        assert not waiter.triggered
        bulkhead.release()
        assert waiter.triggered  # slot transferred, in_flight stays 1
        assert bulkhead.in_flight == 1


# ---------------------------------------------------------------------------
# Adaptive timeouts
# ---------------------------------------------------------------------------


def qos_with_samples(durations, target="http://svc/x"):
    qos = QoSMeasurementService()
    for index, duration in enumerate(durations):
        qos.observe(
            InvocationRecord(
                caller="client",
                target=target,
                operation="echo",
                started_at=float(index),
                finished_at=float(index) + duration,
                outcome=InvocationOutcome.SUCCESS,
            )
        )
    return qos


class TestAdaptiveTimeout:
    CONFIG = AdaptiveTimeoutAction(
        aggregate="p95", multiplier=3.0, min_seconds=0.25, max_seconds=30.0,
        window=50, min_samples=5,
    )

    def test_fallback_without_data(self):
        assert adaptive_timeout(QoSMeasurementService(), "http://svc/x", self.CONFIG, 10.0) == 10.0

    def test_fallback_below_min_samples(self):
        qos = qos_with_samples([0.1, 0.1, 0.1])
        assert adaptive_timeout(qos, "http://svc/x", self.CONFIG, 10.0) == 10.0

    def test_derives_from_percentile(self):
        qos = qos_with_samples([0.1] * 19 + [0.2])
        timeout = adaptive_timeout(qos, "http://svc/x", self.CONFIG, 10.0)
        assert 0.25 <= timeout <= 3.0 * 0.2 + 1e-9

    def test_clamped_to_band(self):
        config = AdaptiveTimeoutAction(multiplier=3.0, min_seconds=1.0, max_seconds=2.0)
        qos = qos_with_samples([0.01] * 10)
        assert adaptive_timeout(qos, "http://svc/x", config, 10.0) == 1.0
        qos = qos_with_samples([50.0] * 10)
        assert adaptive_timeout(qos, "http://svc/x", config, 10.0) == 2.0


# ---------------------------------------------------------------------------
# Load shedding
# ---------------------------------------------------------------------------


class FakeQueue:
    def __init__(self, depth):
        self.depth = depth


class TestLoadShedder:
    def test_sheds_past_max_inflight(self):
        shedder = LoadShedder(LoadSheddingAction(max_inflight=2))
        assert shedder.try_admit() is None
        assert shedder.try_admit() is None
        fault = shedder.try_admit()
        assert fault is not None and fault.code is FaultCode.SERVICE_UNAVAILABLE
        assert "retry later" in fault.reason
        shedder.release()
        assert shedder.try_admit() is None
        assert shedder.stats()["shed"] == 1

    def test_sheds_on_retry_queue_depth(self):
        shedder = LoadShedder(
            LoadSheddingAction(max_inflight=100, max_retry_queue_depth=2),
            retry_queue=FakeQueue(depth=3),
        )
        assert shedder.try_admit() is not None
        shedder.retry_queue.depth = 2
        assert shedder.try_admit() is None

    def test_unbalanced_release_is_floored_and_counted(self):
        """Regression: a release without a matching admission used to
        drive ``in_flight`` negative, silently raising the gate's real
        capacity. It is now floored at zero and counted as a bug signal."""
        shedder = LoadShedder(LoadSheddingAction(max_inflight=1))
        shedder.release()
        shedder.release()
        assert shedder.in_flight == 0
        assert shedder.stats()["unbalanced_releases"] == 2
        # Capacity is intact: exactly one admission fits.
        assert shedder.try_admit() is None
        assert shedder.try_admit() is not None


class TestVepAdmissionAccounting:
    def test_failed_bulkhead_wait_still_releases_admission(
        self, env, network, container
    ):
        """Regression: the VEP used to yield on the bulkhead-queue wait
        *outside* the try/finally that releases the admission holds, so a
        failed wait event leaked a shedder slot forever — a slow leak of
        bus capacity under exactly the overloads shedding exists for."""
        container.deploy(EchoService(env, "echo-a", "http://svc/a"))
        repository = PolicyRepository()
        document = PolicyDocument("admission")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="shed-and-vep-bulkhead",
                triggers=("resilience.configure",),
                scope=PolicyScope(),
                actions=(
                    LoadSheddingAction(max_inflight=4),
                    BulkheadAction(max_concurrent=1, max_queue=1, applies_to="vep"),
                ),
                priority=10,
            )
        )
        repository.load(document)
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a"],
            selection_strategy="primary",
        )
        admission = bus.resilience.admission_stage(vep)
        shedder = bus.resilience.shedder
        bulkhead = bus.resilience._vep_bulkheads["echo"]
        # The only slot is taken, so the request queues on the bulkhead ...
        assert bulkhead.try_acquire() is None

        def collapse():
            # ... and its wait event fails instead of granting a slot.
            yield env.timeout(0.1)
            bulkhead._waiters.popleft().fail(RuntimeError("queue collapsed"))

        env.process(collapse())
        request = SoapEnvelope.request(
            vep.address or "http://vep/echo",
            "urn:op:echo",
            ECHO_CONTRACT.operation("echo").input.build(text="x"),
        )

        def driver():
            with pytest.raises(RuntimeError):
                yield from admission(request, vep.handle)

        run_process(env, driver())
        assert shedder.in_flight == 0
        assert shedder.stats()["unbalanced_releases"] == 0

    def test_faulting_mediation_releases_admission(self, env, network, container):
        """Shed-gate accounting stays balanced when every mediation ends
        in a fault (no members → immediate SoapFaultError inside the
        protected section)."""
        repository = PolicyRepository()
        document = PolicyDocument("shed-only")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="bus-load-shedding",
                triggers=("resilience.configure",),
                scope=PolicyScope(),
                actions=(LoadSheddingAction(max_inflight=2),),
                priority=10,
            )
        )
        repository.load(document)
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=[], selection_strategy="primary"
        )
        invoker = Invoker(env, network, caller="client")

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            with pytest.raises(SoapFaultError):
                yield from invoker.invoke(vep.address, "echo", payload, timeout=10.0)

        for _ in range(3):
            run_process(env, client())
        shedder = bus.resilience.shedder
        assert shedder is not None
        assert shedder.stats()["in_flight"] == 0
        assert shedder.stats()["unbalanced_releases"] == 0
        assert shedder.stats()["admitted"] == 3


# ---------------------------------------------------------------------------
# Policy XML round-trip of the resilience vocabulary
# ---------------------------------------------------------------------------


def test_resilience_actions_roundtrip_xml():
    document = PolicyDocument("resilience-xml")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="all-resilience-actions",
            triggers=("resilience.configure",),
            scope=PolicyScope(endpoint="http://svc/*"),
            actions=(
                CircuitBreakerAction(
                    failure_rate_threshold=0.4, window=30, min_calls=6,
                    consecutive_failures=4, open_seconds=12.5, half_open_probes=2,
                ),
                BulkheadAction(max_concurrent=5, max_queue=7, applies_to="vep"),
                AdaptiveTimeoutAction(
                    aggregate="p99", multiplier=2.5, min_seconds=0.5,
                    max_seconds=20.0, window=40, min_samples=8,
                ),
                LoadSheddingAction(max_inflight=99, max_retry_queue_depth=12),
            ),
            priority=5,
            adaptation_type="prevention",
        )
    )
    parsed = parse_policy_document(serialize_policy_document(document))
    assert parsed.adaptation_policies[0].actions == document.adaptation_policies[0].actions
    assert parsed.adaptation_policies[0].scope == document.adaptation_policies[0].scope


# ---------------------------------------------------------------------------
# Retry jitter + delay cap (satellite 1)
# ---------------------------------------------------------------------------


class TestRetryJitter:
    def test_backoff_respects_cap(self):
        action = RetryAction(
            max_retries=5, delay_seconds=1.0, backoff_multiplier=3.0, max_delay_seconds=5.0
        )
        delays = [action.delay_for_attempt(n) for n in (1, 2, 3, 4)]
        assert delays == [1.0, 3.0, 5.0, 5.0]

    def test_jitter_stays_in_band_and_is_deterministic(self):
        action = RetryAction(max_retries=3, delay_seconds=2.0, jitter_fraction=0.5)
        first = [
            action.delay_for_attempt(1, rng=RandomSource(5).stream("jitter"))
            for _ in range(1)
        ]
        rng_a = RandomSource(5).stream("jitter")
        rng_b = RandomSource(5).stream("jitter")
        series_a = [action.delay_for_attempt(1, rng=rng_a) for _ in range(20)]
        series_b = [action.delay_for_attempt(1, rng=rng_b) for _ in range(20)]
        assert series_a == series_b  # same seed, same stream -> same delays
        assert series_a[0] == first[0]
        for delay in series_a:
            assert 1.0 <= delay <= 3.0  # 2.0 +/- 50%
        assert len(set(series_a)) > 1  # it actually jitters

    def test_invalid_jitter_rejected(self):
        from repro.policy import ActionError

        with pytest.raises(ActionError):
            RetryAction(jitter_fraction=1.0)
        with pytest.raises(ActionError):
            RetryAction(max_delay_seconds=-1.0)

    def test_retry_queue_applies_jitter(self, env):
        attempts = []

        def sender(envelope, operation, target):
            attempts.append(env.now)
            yield env.timeout(0.0)
            if len(attempts) < 3:
                raise SoapFaultError(SoapFault(FaultCode.SERVICE_UNAVAILABLE, "down"))
            return envelope.reply(Element("ok"))

        queue = RetryQueue(env, sender, DeadLetterQueue(), random_source=RandomSource(9))
        envelope = SoapEnvelope.request("http://svc", "urn:op:x", Element("q"))
        completion = queue.enqueue(
            envelope, "x", "http://svc",
            RetryAction(max_retries=5, delay_seconds=2.0, jitter_fraction=0.5),
        )
        run_process(env, _wait(completion))
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        for gap in gaps:
            assert 1.0 <= gap <= 3.0
        assert any(abs(gap - 2.0) > 1e-6 for gap in gaps)


def _wait(event):
    response = yield event
    return response


# ---------------------------------------------------------------------------
# Dead-letter replay (satellite 2)
# ---------------------------------------------------------------------------


class RecoveringSender:
    """Fails every attempt until ``healed`` is set."""

    def __init__(self, env):
        self.env = env
        self.healed = False
        self.delivered = []

    def __call__(self, envelope, operation, target):
        yield self.env.timeout(0.01)
        if not self.healed:
            raise SoapFaultError(SoapFault(FaultCode.SERVICE_UNAVAILABLE, "still down"))
        self.delivered.append(envelope)
        return envelope.reply(Element("ok"))


class TestDeadLetterReplay:
    def exhaust(self, env, queue, envelope):
        completion = queue.enqueue(
            envelope, "x", "http://svc", RetryAction(max_retries=2, delay_seconds=0.1)
        )

        def waiter():
            with pytest.raises(SoapFaultError):
                yield completion

        env.run(env.process(waiter()))

    def test_replay_reenqueues_with_fresh_budget(self, env):
        dlq = DeadLetterQueue()
        sender = RecoveringSender(env)
        queue = RetryQueue(env, sender, dlq)
        envelope = SoapEnvelope.request("http://svc", "urn:op:x", Element("q"))
        self.exhaust(env, queue, envelope)
        assert len(dlq) == 1 and dlq.entries[0].attempts_made == 2

        sender.healed = True
        completions = dlq.replay(queue, policy=RetryAction(max_retries=1, delay_seconds=0.1))
        assert len(completions) == 1
        env.run(env.process(_wait(env.all_of(completions))))
        assert len(dlq) == 0
        assert dlq.replayed == 1
        # The original envelope (and with it the correlation/message ID) is
        # what gets redelivered, not a copy.
        assert sender.delivered[0].addressing.message_id == envelope.addressing.message_id

    def test_replay_failure_dead_letters_again_without_unhandled_error(self, env):
        dlq = DeadLetterQueue()
        sender = RecoveringSender(env)  # never healed
        queue = RetryQueue(env, sender, dlq)
        envelope = SoapEnvelope.request("http://svc", "urn:op:x", Element("q"))
        self.exhaust(env, queue, envelope)

        completions = dlq.replay(queue)
        assert len(completions) == 1
        env.run()  # the failure is defused; the sim must finish cleanly
        assert len(dlq) == 1  # exhausted again, parked again
        assert dlq.replayed == 1

    def test_replay_selected_entries_only(self, env):
        dlq = DeadLetterQueue()
        sender = RecoveringSender(env)
        queue = RetryQueue(env, sender, dlq)
        first = SoapEnvelope.request("http://svc", "urn:op:x", Element("q"))
        second = SoapEnvelope.request("http://svc", "urn:op:x", Element("q"))
        self.exhaust(env, queue, first)
        self.exhaust(env, queue, second)
        assert len(dlq) == 2

        sender.healed = True
        chosen = [entry for entry in dlq.entries if entry.envelope is second]
        completions = dlq.replay(queue, entries=chosen)
        assert len(completions) == 1
        env.run(env.process(_wait(env.all_of(completions))))
        assert len(dlq) == 1 and dlq.entries[0].envelope is first
        assert sender.delivered[0].addressing.message_id == second.addressing.message_id

    def test_replay_same_entry_requested_twice_replays_once(self, env):
        dlq = DeadLetterQueue()
        sender = RecoveringSender(env)
        queue = RetryQueue(env, sender, dlq)
        envelope = SoapEnvelope.request("http://svc", "urn:op:x", Element("q"))
        self.exhaust(env, queue, envelope)
        entry = dlq.entries[0]

        sender.healed = True
        # Regression: selecting the same dead letter twice (easy from an
        # operator console) crashed replay on the second list removal.
        completions = dlq.replay(queue, entries=[entry, entry])
        assert len(completions) == 1
        env.run(env.process(_wait(env.all_of(completions))))
        assert len(dlq) == 0
        assert dlq.replayed == 1
        assert len(sender.delivered) == 1

    def test_replay_matches_value_equal_entries_by_identity_first(self, env):
        from repro.wsbus.retry import DeadLetterEntry

        dlq = DeadLetterQueue()
        sender = RecoveringSender(env)
        queue = RetryQueue(env, sender, dlq)
        envelope = SoapEnvelope.request("http://svc", "urn:op:x", Element("q"))
        first = DeadLetterEntry(1.0, envelope, "x", "http://svc", 2, "down")
        twin = DeadLetterEntry(1.0, envelope, "x", "http://svc", 2, "down")
        assert first == twin and first is not twin
        dlq.add(first)
        dlq.add(twin)

        sender.healed = True
        completions = dlq.replay(queue, entries=[twin])
        assert len(completions) == 1
        # Identity wins over value equality: the requested twin leaves the
        # queue, the equal-but-distinct first entry stays put.
        assert dlq.entries == [first] and dlq.entries[0] is first
        env.run(env.process(_wait(env.all_of(completions))))
        assert dlq.replayed == 1


# ---------------------------------------------------------------------------
# Bus integration: the wired subsystem
# ---------------------------------------------------------------------------


def resilience_document(
    breaker=True, shedding_max_inflight=None, vep_bulkhead=None, adaptive=False
):
    document = PolicyDocument("test-resilience")
    actions = []
    if breaker:
        actions.append(
            CircuitBreakerAction(
                consecutive_failures=2, open_seconds=10.0, half_open_probes=1,
                failure_rate_threshold=1.0, min_calls=10_000,
            )
        )
    if adaptive:
        actions.append(
            AdaptiveTimeoutAction(multiplier=3.0, min_seconds=0.05, max_seconds=1.0)
        )
    if actions:
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="endpoint-resilience",
                triggers=("resilience.configure",),
                scope=PolicyScope(endpoint="http://svc/*"),
                actions=tuple(actions),
                priority=10,
                adaptation_type="prevention",
            )
        )
    if vep_bulkhead is not None:
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="vep-bulkhead",
                triggers=("resilience.configure",),
                scope=PolicyScope(service_type="Echo"),
                actions=(
                    BulkheadAction(
                        max_concurrent=vep_bulkhead[0],
                        max_queue=vep_bulkhead[1],
                        applies_to="vep",
                    ),
                ),
                priority=20,
                adaptation_type="prevention",
            )
        )
    if shedding_max_inflight is not None:
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="shed",
                triggers=("resilience.configure",),
                actions=(LoadSheddingAction(max_inflight=shedding_max_inflight),),
                priority=30,
                adaptation_type="prevention",
            )
        )
    return document


def recovery_document():
    document = PolicyDocument("test-recovery")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="failover",
            triggers=("fault.*",),
            actions=(SubstituteAction(strategy="round_robin"),),
            priority=10,
        )
    )
    return document


def deploy_echoes(env, container, names=("a", "b", "c")):
    for name in names:
        container.deploy(EchoService(env, f"echo-{name}", f"http://svc/{name}"))


def call(env, network, address, timeout=60.0):
    invoker = Invoker(env, network, caller="client")

    def client():
        payload = ECHO_CONTRACT.operation("echo").input.build(text="hi")
        response = yield from invoker.invoke(address, "echo", payload, timeout=timeout)
        return response.body.child_text("text")

    return run_process(env, client())


class TestBusIntegration:
    def test_inactive_without_policies(self, env, network, container):
        deploy_echoes(env, container)
        bus = WsBus(env, network, repository=PolicyRepository(), member_timeout=5.0)
        assert not bus.resilience.active
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        assert call(env, network, vep.address) == "hi@echo-a"
        assert "resilience" not in bus.stats_summary()

    def test_breaker_quarantines_and_recovers(self, env, network, container):
        deploy_echoes(env, container)
        repository = PolicyRepository()
        repository.load(resilience_document())
        repository.load(recovery_document())
        metrics = MetricsRegistry()
        bus = WsBus(
            env, network, repository=repository, member_timeout=5.0, metrics=metrics
        )
        assert bus.resilience.active
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=[f"http://svc/{n}" for n in "abc"],
            selection_strategy="round_robin",
        )
        network.endpoint("http://svc/a").available = False
        # Drive enough traffic to trip a's breaker (2 consecutive failures);
        # failover keeps the client whole throughout.
        for _ in range(6):
            assert call(env, network, vep.address).startswith("hi@echo-")
        assert bus.resilience.breaker_states()["http://svc/a"] == "open"
        assert metrics.snapshot()["counters"]["wsbus.resilience.breaker.opened"] == 1

        # While open, selection never offers a: all answers come from b/c.
        answers = {call(env, network, vep.address) for _ in range(4)}
        assert answers == {"hi@echo-b", "hi@echo-c"}
        assert metrics.snapshot()["counters"]["wsbus.resilience.breaker.skipped"] > 0

        # Heal the endpoint, let the open interval elapse, and the next
        # round of traffic probes it back to closed.
        network.endpoint("http://svc/a").available = True
        run_process(env, _wait(env.timeout(11.0)))
        answers = [call(env, network, vep.address) for _ in range(6)]
        assert "hi@echo-a" in answers
        assert bus.resilience.breaker_states()["http://svc/a"] == "closed"
        log = bus.resilience.transition_log()
        states = [(frm, to) for _, _, frm, to in log]
        assert states == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed")
        ]
        summary = bus.stats_summary()["resilience"]
        assert summary["breaker_transitions"] == 3

    def test_open_breaker_fails_fast_without_selection(self, env, network, container):
        """A direct send to a tripped endpoint gets the fail-fast fault."""
        deploy_echoes(env, container)
        repository = PolicyRepository()
        repository.load(resilience_document())
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        breaker = bus.resilience.breaker_for("http://svc/a")
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state.value == "open"
        fault = bus.resilience.breaker_rejection("http://svc/a")
        assert fault is not None
        assert fault.code is FaultCode.SERVICE_UNAVAILABLE
        assert fault.source == "wsbus-resilience"

    def test_vep_shedding_rejects_excess_load(self, env, network, container):
        container.deploy(SlowEchoService(env, "slow", "http://svc/slow", delay=2.0))
        repository = PolicyRepository()
        repository.load(resilience_document(breaker=False, shedding_max_inflight=1))
        metrics = MetricsRegistry()
        bus = WsBus(
            env, network, repository=repository, member_timeout=30.0, metrics=metrics
        )
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/slow"])
        invoker = Invoker(env, network, caller="client")
        outcomes = []

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="hi")
            try:
                yield from invoker.invoke(vep.address, "echo", payload, timeout=30.0)
                outcomes.append("ok")
            except SoapFaultError as error:
                outcomes.append(error.fault.reason)

        for _ in range(3):
            env.process(client())
        env.run()
        assert outcomes.count("ok") == 1
        assert sum("shedding load" in outcome for outcome in outcomes) == 2
        assert vep.stats.shed == 2
        counters = metrics.snapshot()["counters"]
        assert counters["wsbus.resilience.shed"] == 2
        assert counters["wsbus.vep.shed"] == 2

    def test_vep_bulkhead_queues_and_rejects(self, env, network, container):
        container.deploy(SlowEchoService(env, "slow", "http://svc/slow", delay=1.0))
        repository = PolicyRepository()
        repository.load(resilience_document(breaker=False, vep_bulkhead=(1, 1)))
        bus = WsBus(env, network, repository=repository, member_timeout=30.0)
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/slow"])
        invoker = Invoker(env, network, caller="client")
        outcomes = []

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="hi")
            try:
                yield from invoker.invoke(vep.address, "echo", payload, timeout=30.0)
                outcomes.append("ok")
            except SoapFaultError as error:
                outcomes.append(error.fault.reason)

        for _ in range(3):
            env.process(client())
        env.run()
        # 1 admitted, 1 queued (runs after the first releases), 1 rejected.
        assert outcomes.count("ok") == 2
        assert sum("bulkhead" in outcome for outcome in outcomes) == 1
        summary = bus.stats_summary()["resilience"]
        assert summary["bulkheads"]["vep:echo"]["rejected"] == 1

    def test_adaptive_timeout_tracks_observed_latency(self, env, network, container):
        deploy_echoes(env, container, names=("a",))
        repository = PolicyRepository()
        repository.load(resilience_document(breaker=False, adaptive=True))
        bus = WsBus(env, network, repository=repository, member_timeout=20.0)
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        # Cold start: no samples yet, the fixed member timeout stands.
        assert bus.resilience.timeout_for("http://svc/a", 20.0) == 20.0
        for _ in range(6):
            call(env, network, vep.address)
        derived = bus.resilience.timeout_for("http://svc/a", 20.0)
        assert derived < 20.0  # echoes answer in milliseconds
        assert derived >= 0.05  # clamped to the configured floor


# ---------------------------------------------------------------------------
# Broadcast with every member faulting (satellite 3)
# ---------------------------------------------------------------------------


class TestBroadcastAllMembersFault:
    def test_fault_surfaced_dead_lettered_and_traced(self, env, network, container):
        deploy_echoes(env, container, names=("a", "b"))
        tracer = Tracer()
        exporter = tracer.add_exporter(InMemoryExporter())
        bus = WsBus(
            env, network, repository=PolicyRepository(),
            member_timeout=5.0, tracer=tracer,
        )
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/a", "http://svc/b"],
            broadcast=True,
        )
        network.endpoint("http://svc/a").available = False
        network.endpoint("http://svc/b").available = False

        with pytest.raises(SoapFaultError) as excinfo:
            call(env, network, vep.address)
        assert excinfo.value.fault.code is FaultCode.SERVICE_UNAVAILABLE

        # The lost request is parked for operators (and replay).
        assert len(bus.dead_letters) == 1
        entry = bus.dead_letters.entries[0]
        assert "broadcast" in entry.reason
        assert entry.attempts_made == 2
        assert bus.stats_summary()["dead_letters"] == 1

        # The trace shows the failed mediation and both member attempts.
        handle_spans = exporter.find(name="vep.handle")
        assert len(handle_spans) == 1
        assert handle_spans[0].status.startswith("fault:")
        send_spans = exporter.find(name="wsbus.send")
        assert len(send_spans) == 2
        assert all(span.status.startswith("fault:") for span in send_spans)

    def test_quarantined_members_excluded_from_broadcast(self, env, network, container):
        deploy_echoes(env, container, names=("a", "b"))
        repository = PolicyRepository()
        repository.load(resilience_document())
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT,
            members=["http://svc/a", "http://svc/b"],
            broadcast=True,
        )
        breaker = bus.resilience.breaker_for("http://svc/a")
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state.value == "open"
        assert bus.selection.broadcast_targets(vep.members) == ["http://svc/b"]


# ---------------------------------------------------------------------------
# Dynamic reconfiguration through the adaptation pathway
# ---------------------------------------------------------------------------


class TestDynamicResilience:
    def test_apply_action_activates_and_wins(self, env, network, container):
        deploy_echoes(env, container, names=("a",))
        bus = WsBus(env, network, repository=PolicyRepository(), member_timeout=5.0)
        assert not bus.resilience.active
        applied = bus.resilience.apply_action(
            CircuitBreakerAction(consecutive_failures=1, open_seconds=5.0),
            scope=PolicyScope(endpoint="http://svc/*"),
        )
        assert applied
        assert bus.resilience.active
        breaker = bus.resilience.breaker_for("http://svc/a")
        breaker.record_failure()
        assert breaker.state.value == "open"

    def test_bus_replay_dead_letters(self, env, network, container):
        deploy_echoes(env, container, names=("a",))
        repository = PolicyRepository()
        document = PolicyDocument("retry-only")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="retry",
                triggers=("fault.*",),
                actions=(RetryAction(max_retries=1, delay_seconds=0.1),),
                priority=10,
            )
        )
        repository.load(document)
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        vep = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        network.endpoint("http://svc/a").available = False
        invoker = Invoker(env, network, caller="client")

        def failing_client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="hi")
            with pytest.raises(SoapFaultError):
                yield from invoker.invoke(vep.address, "echo", payload, timeout=30.0)

        run_process(env, failing_client())
        assert bus.stats_summary()["dead_letters"] == 1

        network.endpoint("http://svc/a").available = True
        completions = bus.replay_dead_letters()
        assert len(completions) == 1
        env.run()
        summary = bus.stats_summary()
        assert summary["dead_letters"] == 0
        assert summary["retry_queue"]["replayed"] == 1
