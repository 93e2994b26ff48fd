"""Tests for the traffic-shaping tier: idempotency keys, response cache,
queue-based load leveling — and the exactly-once regression suite."""

import pytest

from conftest import ECHO_CONTRACT, EchoService, run_process
from repro.observability import MetricsRegistry
from repro.policy import (
    AdaptationPolicy,
    IdempotencyAction,
    LoadLevelingAction,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    ResponseCacheAction,
    RetryAction,
    parse_policy_document,
    serialize_policy_document,
)
from repro.core.events import MASCEvent
from repro.services import Invoker
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapFaultError
from repro.traffic import (
    IdempotencyStore,
    LoadLeveler,
    ResponseCache,
    idempotency_key_of,
    stamp_idempotency_key,
)
from repro.wsbus import WsBus
from repro.xmlutils import Element


# ---------------------------------------------------------------------------
# Policy vocabulary: validation + XML round-trip
# ---------------------------------------------------------------------------


def traffic_document(*actions, service_type="Echo", operation=None, name="traffic"):
    document = PolicyDocument(name)
    document.adaptation_policies.append(
        AdaptationPolicy(
            name=name,
            triggers=("traffic.configure",),
            scope=PolicyScope(service_type=service_type, operation=operation),
            actions=tuple(actions),
            priority=10,
        )
    )
    return document


class TestTrafficActions:
    def test_actions_roundtrip_xml(self):
        document = traffic_document(
            IdempotencyAction(),
            ResponseCacheAction(
                ttl_seconds=12.5,
                max_entries=7,
                invalidate_on=("slo*", "catalogChanged"),
            ),
            LoadLevelingAction(
                rate_per_second=5.0, burst=2, max_queue=3, max_wait_seconds=0.75
            ),
        )
        parsed = parse_policy_document(serialize_policy_document(document))
        assert (
            parsed.adaptation_policies[0].actions
            == document.adaptation_policies[0].actions
        )
        assert parsed.adaptation_policies[0].scope.matches(
            service_type="Echo", operation="echo"
        )

    def test_defaults_roundtrip(self):
        document = traffic_document(ResponseCacheAction(), LoadLevelingAction())
        parsed = parse_policy_document(serialize_policy_document(document))
        cache, leveling = parsed.adaptation_policies[0].actions
        assert cache == ResponseCacheAction()
        assert leveling == LoadLevelingAction()

    def test_validation(self):
        from repro.policy.actions import ActionError

        with pytest.raises(ActionError):
            ResponseCacheAction(ttl_seconds=0.0)
        with pytest.raises(ActionError):
            ResponseCacheAction(max_entries=0)
        with pytest.raises(ActionError):
            ResponseCacheAction(invalidate_on=("ok", ""))
        with pytest.raises(ActionError):
            LoadLevelingAction(rate_per_second=0.0)
        with pytest.raises(ActionError):
            LoadLevelingAction(burst=0)
        with pytest.raises(ActionError):
            LoadLevelingAction(max_queue=-1)
        with pytest.raises(ActionError):
            LoadLevelingAction(max_wait_seconds=-0.1)


# ---------------------------------------------------------------------------
# Idempotency keys: stamping + the per-service dedupe store
# ---------------------------------------------------------------------------


def make_request(text="x", to="http://svc/a"):
    return SoapEnvelope.request(to, "urn:op:echo", Element("q", text=text))


class TestStamping:
    def test_stamp_defaults_to_message_id(self):
        envelope = make_request()
        key = stamp_idempotency_key(envelope)
        assert key == envelope.addressing.message_id
        assert idempotency_key_of(envelope) == key

    def test_stamp_is_idempotent(self):
        envelope = make_request()
        key = stamp_idempotency_key(envelope, key="explicit")
        assert stamp_idempotency_key(envelope) == "explicit" == key
        carriers = [h for h in envelope.headers if idempotency_key_of(envelope)]
        assert len(carriers) == 1

    def test_key_survives_redelivery_copies(self):
        """copy()/retargeted() preserve the key while minting fresh IDs —
        the property every redelivery path (retry, replay, broadcast)
        relies on."""
        envelope = make_request()
        key = stamp_idempotency_key(envelope)
        redelivery = envelope.copy()
        redelivery.addressing = envelope.addressing.retargeted("http://svc/b")
        assert idempotency_key_of(redelivery) == key
        assert redelivery.addressing.message_id != envelope.addressing.message_id

    def test_unstamped_envelope_has_no_key(self):
        assert idempotency_key_of(make_request()) is None


class CountingExecutor:
    """A service-dispatch stand-in: counts executions, takes sim time."""

    def __init__(self, env, delay=1.0, fail_times=0, error_times=0):
        self.env = env
        self.delay = delay
        self.fail_times = fail_times
        self.error_times = error_times
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        call = self.calls
        yield self.env.timeout(self.delay)
        if call <= self.error_times:
            raise RuntimeError("handler crashed")
        if call <= self.error_times + self.fail_times:
            return request.reply_fault(SoapFault(FaultCode.SERVER, "boom"))
        return request.reply(Element("ok", text=f"call-{call}"))


class TestIdempotencyStore:
    def test_records_then_dedupes(self, env):
        store = IdempotencyStore(env)
        execute = CountingExecutor(env, delay=0.1)

        def driver():
            first = yield from store.execute_once("svc", make_request(), "k1", execute)
            second = yield from store.execute_once("svc", make_request(), "k1", execute)
            return first, second

        first, second = run_process(env, driver())
        assert execute.calls == 1
        # The recorded body is shared by reference (copy-on-write discipline).
        assert second.body is first.body
        stats = store.stats()
        assert stats["recorded"] == 1
        assert stats["deduped"] == 1

    def test_concurrent_duplicates_coalesce(self, env):
        store = IdempotencyStore(env)
        execute = CountingExecutor(env, delay=1.0)
        replies = []

        def delivery():
            reply = yield from store.execute_once("svc", make_request(), "k", execute)
            replies.append(reply)

        env.process(delivery())
        env.process(delivery())
        env.run()
        assert execute.calls == 1
        assert len(replies) == 2
        assert replies[0].body is replies[1].body
        assert store.stats()["coalesced"] == 1
        # Both deliveries resolved only once the first execution finished.
        assert env.now == pytest.approx(1.0)

    def test_fault_is_not_recorded(self, env):
        store = IdempotencyStore(env)
        execute = CountingExecutor(env, delay=0.1, fail_times=1)

        def driver():
            first = yield from store.execute_once("svc", make_request(), "k", execute)
            second = yield from store.execute_once("svc", make_request(), "k", execute)
            return first, second

        first, second = run_process(env, driver())
        assert first.is_fault
        assert not second.is_fault
        assert execute.calls == 2
        assert store.stats()["recorded"] == 1

    def test_crashed_execution_clears_claim_and_releases_waiter(self, env):
        store = IdempotencyStore(env)
        execute = CountingExecutor(env, delay=1.0, error_times=1)
        outcomes = []

        def delivery():
            try:
                reply = yield from store.execute_once("svc", make_request(), "k", execute)
            except RuntimeError:
                outcomes.append("error")
            else:
                outcomes.append(reply.body.child_text(".") or reply.body.text)

        env.process(delivery())
        env.process(delivery())
        env.run()
        # First delivery crashed; the coalesced duplicate then executed afresh.
        assert outcomes[0] == "error"
        assert execute.calls == 2
        assert store.stats()["recorded"] == 1
        assert store.stats()["entries"] == 1

    def test_keys_are_namespaced_per_service(self, env):
        store = IdempotencyStore(env)
        execute = CountingExecutor(env, delay=0.1)

        def driver():
            yield from store.execute_once("svc-a", make_request(), "k", execute)
            yield from store.execute_once("svc-b", make_request(), "k", execute)

        run_process(env, driver())
        assert execute.calls == 2

    def test_eviction_drops_oldest_completed_record(self, env):
        store = IdempotencyStore(env, max_entries=2)
        execute = CountingExecutor(env, delay=0.0)

        def driver():
            for key in ("k1", "k2", "k3"):
                yield from store.execute_once("svc", make_request(), key, execute)
            # k1 was evicted: a redelivery executes again. k3 still dedupes.
            yield from store.execute_once("svc", make_request(), "k3", execute)
            yield from store.execute_once("svc", make_request(), "k1", execute)

        run_process(env, driver())
        stats = store.stats()
        assert stats["evicted"] == 2
        assert stats["deduped"] == 1
        assert execute.calls == 4


# ---------------------------------------------------------------------------
# Response cache (unit, manual clock)
# ---------------------------------------------------------------------------


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_cache(clock, **overrides):
    defaults = dict(ttl_seconds=10.0, max_entries=2, invalidate_on=("slo*",))
    defaults.update(overrides)
    return ResponseCache(ResponseCacheAction(**defaults), clock)


class TestResponseCache:
    def test_hit_within_ttl_then_expiry(self):
        clock = Clock()
        cache = make_cache(clock)
        key = cache.key_for("Echo", "echo", make_request("a"))
        assert cache.get(key) is None
        body = Element("ok")
        cache.put(key, body)
        clock.now = 9.0
        assert cache.get(key) is body
        clock.now = 10.0
        assert cache.get(key) is None
        stats = cache.stats()
        assert stats == {
            "entries": 0, "hits": 1, "misses": 2, "expired": 1,
            "evicted": 0, "flushes": 0, "invalidated": 0,
        }

    def test_key_distinguishes_request_bodies(self):
        cache = make_cache(Clock())
        assert cache.key_for("Echo", "echo", make_request("a")) != cache.key_for(
            "Echo", "echo", make_request("b")
        )
        request = make_request("a")
        assert cache.key_for("Echo", "echo", request) == cache.key_for(
            "Echo", "echo", request
        )

    def test_lru_eviction_keeps_recently_used(self):
        cache = make_cache(Clock(), max_entries=2)
        for key in ("k1", "k2"):
            cache.put(key, Element(key))
        assert cache.get("k1") is not None  # touch k1 → k2 is now oldest
        cache.put("k3", Element("k3"))
        assert cache.get("k2") is None
        assert cache.get("k1") is not None
        assert cache.stats()["evicted"] == 1

    def test_event_pattern_invalidation(self):
        cache = make_cache(Clock(), invalidate_on=("slo*", "catalogChanged"))
        cache.put("k", Element("ok"))
        assert cache.matches_event("sloBurnRateExceeded")
        assert cache.matches_event("catalogChanged")
        assert not cache.matches_event("fault.Timeout")
        assert cache.invalidate() == 1
        assert cache.get("k") is None
        assert cache.stats()["flushes"] == 1


# ---------------------------------------------------------------------------
# Load leveler (unit, simulation clock)
# ---------------------------------------------------------------------------


class TestLoadLeveler:
    def make(self, env, **overrides):
        defaults = dict(
            rate_per_second=10.0, burst=2, max_queue=2, max_wait_seconds=0.25
        )
        defaults.update(overrides)
        return LoadLeveler("vep:test", env, LoadLevelingAction(**defaults))

    def test_burst_passes_then_delays_then_sheds(self, env):
        leveler = self.make(env)
        assert leveler.admit() is None
        assert leveler.admit() is None  # burst tolerance of 2
        third = leveler.admit()
        fourth = leveler.admit()
        assert third is not None and fourth is not None
        assert leveler.waiting == 2
        # Queue is full: the fifth request is rejected with a retryable fault.
        with pytest.raises(SoapFaultError) as rejection:
            leveler.admit()
        assert rejection.value.fault.code is FaultCode.SERVICE_UNAVAILABLE
        leveler.release()
        # A slot freed, but the computed delay now exceeds max_wait_seconds.
        with pytest.raises(SoapFaultError):
            leveler.admit()
        assert leveler.stats()["shed"] == 2
        assert leveler.stats()["max_waiting"] == 2

    def test_delay_paces_to_the_configured_rate(self, env):
        leveler = self.make(env, max_queue=64, max_wait_seconds=60.0)

        def driver():
            for _ in range(4):
                wait = leveler.admit()
                if wait is not None:
                    yield wait
                    leveler.release()

        run_process(env, driver())
        # burst of 2 at t=0, then one per 100 ms: last admitted at 0.2 s.
        assert env.now == pytest.approx(0.2)
        assert leveler.stats()["immediate"] == 2
        assert leveler.stats()["delayed"] == 2
        assert leveler.waiting == 0

    def test_bucket_refills_with_idle_time(self, env):
        leveler = self.make(env)

        def driver():
            assert leveler.admit() is None
            assert leveler.admit() is None
            yield env.timeout(1.0)  # long idle: full burst available again
            assert leveler.admit() is None
            assert leveler.admit() is None

        run_process(env, driver())
        assert leveler.stats()["immediate"] == 4


# ---------------------------------------------------------------------------
# End-to-end through the bus
# ---------------------------------------------------------------------------


class ScriptedProcessing:
    """Deterministic per-execution processing times; counts executions."""

    def __init__(self, samples=(), default=0.01):
        self.samples = list(samples)
        self.default = default
        self.calls = 0

    def sample(self, size_bytes, rng):
        self.calls += 1
        return self.samples.pop(0) if self.samples else self.default


def call(env, network, address, text="hi", timeout=60.0):
    invoker = Invoker(env, network, caller="client")

    def client():
        payload = ECHO_CONTRACT.operation("echo").input.build(text=text)
        response = yield from invoker.invoke(address, "echo", payload, timeout=timeout)
        return response.body.child_text("text")

    return run_process(env, client())


def retry_world(env, network, container, with_idempotency, member_timeout=2.0):
    """One echo member whose FIRST execution outlives the member timeout —
    the response is lost from the mediator's point of view, the retry
    policy redelivers, and without idempotency the side effect runs twice.
    """
    processing = ScriptedProcessing(samples=[3.0])
    container.deploy(
        EchoService(env, "echo-a", "http://svc/a", processing=processing)
    )
    repository = PolicyRepository()
    recovery = PolicyDocument("recovery")
    recovery.adaptation_policies.append(
        AdaptationPolicy(
            name="retry",
            triggers=("fault.*",),
            actions=(RetryAction(max_retries=1, delay_seconds=0.5),),
            priority=10,
        )
    )
    repository.load(recovery)
    if with_idempotency:
        repository.load(traffic_document(IdempotencyAction()))
    metrics = MetricsRegistry()
    bus = WsBus(
        env, network, repository=repository, member_timeout=member_timeout,
        metrics=metrics,
    )
    vep = bus.create_vep(
        "echo", ECHO_CONTRACT, members=["http://svc/a"], selection_strategy="primary"
    )
    return bus, vep, processing, metrics


class TestExactlyOnce:
    def test_lost_response_without_idempotency_executes_twice(
        self, env, network, container
    ):
        """Documents the double-execution hazard this PR closes: the
        pre-traffic mediation path redelivers a request whose first
        execution already happened (response lost to a member timeout)."""
        bus, vep, processing, _ = retry_world(
            env, network, container, with_idempotency=False
        )
        assert call(env, network, vep.address, timeout=10.0) == "hi@echo-a"
        assert processing.calls == 2
        assert container.idempotency.stats()["recorded"] == 0

    def test_lost_response_with_idempotency_executes_once(
        self, env, network, container
    ):
        """The exactly-once regression test: fails on the pre-traffic code
        (where processing.calls is 2) and is pinned green by the
        idempotency tier — the retry coalesces on the in-flight first
        execution and is answered from its recorded response."""
        bus, vep, processing, _ = retry_world(
            env, network, container, with_idempotency=True
        )
        assert call(env, network, vep.address, timeout=10.0) == "hi@echo-a"
        assert processing.calls == 1
        stats = container.idempotency.stats()
        assert stats["recorded"] == 1
        assert stats["coalesced"] >= 1

    def test_replay_of_stamped_envelope_dedupes_at_container(
        self, env, network, container, echo_service
    ):
        """A dead-letter-style replay: the same stamped envelope delivered
        twice (fresh message IDs, same key) executes once at the service."""
        invoker = Invoker(env, network, caller="client")
        payload = ECHO_CONTRACT.operation("echo").input.build(text="once")
        original = SoapEnvelope.request("http://test/echo", "urn:op:echo", payload)
        stamp_idempotency_key(original)

        def driver():
            first = yield from invoker.send(
                original.copy(), operation="echo", timeout=10.0
            )
            replay = original.copy()
            replay.addressing = original.addressing.retargeted("http://test/echo")
            second = yield from invoker.send(replay, operation="echo", timeout=10.0)
            return first, second

        first, second = run_process(env, driver())
        assert first.body.child_text("text") == second.body.child_text("text")
        assert container.idempotency.stats()["deduped"] == 1
        assert container.idempotency.stats()["recorded"] == 1


class TestVepTrafficTier:
    def test_cache_serves_repeats_and_invalidates_on_event(
        self, env, network, container
    ):
        processing = ScriptedProcessing()
        container.deploy(
            EchoService(env, "echo-a", "http://svc/a", processing=processing)
        )
        repository = PolicyRepository()
        repository.load(
            traffic_document(
                ResponseCacheAction(
                    ttl_seconds=60.0, invalidate_on=("catalogChanged",)
                ),
                operation="echo",
            )
        )
        metrics = MetricsRegistry()
        bus = WsBus(
            env, network, repository=repository, member_timeout=5.0, metrics=metrics
        )
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a"],
            selection_strategy="primary",
        )
        assert bus.traffic.active
        assert call(env, network, vep.address, text="a") == "a@echo-a"
        assert call(env, network, vep.address, text="a") == "a@echo-a"
        assert processing.calls == 1
        assert vep.stats.cache_hits == 1
        # A different request body is a different key.
        assert call(env, network, vep.address, text="b") == "b@echo-a"
        assert processing.calls == 2
        # A matching MASC event flushes the cache through the bus's subscription.
        bus.monitoring.router.publish(
            "catalogChanged", MASCEvent(name="catalogChanged", time=env.now)
        )
        assert call(env, network, vep.address, text="a") == "a@echo-a"
        assert processing.calls == 3
        counters = metrics.snapshot()["counters"]
        assert counters["wsbus.traffic.cache.hits"] == 1
        assert counters["wsbus.traffic.cache.invalidated"] == 2
        assert "caches" in bus.stats_summary()["traffic"]

    def test_policy_reload_shrinking_max_entries_rebuilds_cache(
        self, env, network, container
    ):
        """Regression: shrinking ``max_entries`` through a policy reload
        must drop the old oversized cache, not keep serving from it."""
        container.deploy(EchoService(env, "echo-a", "http://svc/a"))
        repository = PolicyRepository()
        repository.load(
            traffic_document(
                ResponseCacheAction(ttl_seconds=60.0, max_entries=8),
                operation="echo",
                name="cache-v1",
            )
        )
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        cache = bus.traffic.cache_for("Echo", "echo")
        assert cache.config.max_entries == 8
        for index in range(5):
            cache.put(f"k{index}", Element("r"))
        assert cache.stats()["entries"] == 5

        # Operator reload: same scope, smaller budget.
        repository.unload("cache-v1")
        repository.load(
            traffic_document(
                ResponseCacheAction(ttl_seconds=60.0, max_entries=2),
                operation="echo",
                name="cache-v2",
            )
        )
        bus.traffic.refresh_from_policies()

        shrunk = bus.traffic.cache_for("Echo", "echo")
        assert shrunk is not cache
        assert shrunk.config.max_entries == 2
        assert shrunk.stats()["entries"] == 0
        for index in range(5):
            shrunk.put(f"k{index}", Element("r"))
        assert shrunk.stats()["entries"] == 2
        assert shrunk.stats()["evicted"] == 3
        # A no-op refresh keeps the live cache (and its entries).
        bus.traffic.refresh_from_policies()
        assert bus.traffic.cache_for("Echo", "echo") is shrunk

    def test_leveling_smooths_and_throttles(self, env, network, container):
        container.deploy(EchoService(env, "echo-a", "http://svc/a"))
        repository = PolicyRepository()
        repository.load(
            traffic_document(
                LoadLevelingAction(
                    rate_per_second=10.0, burst=1, max_queue=1,
                    max_wait_seconds=5.0,
                )
            )
        )
        bus = WsBus(env, network, repository=repository, member_timeout=5.0)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a"],
            selection_strategy="primary",
        )
        outcomes = []
        invoker = Invoker(env, network, caller="client")

        def client(index):
            payload = ECHO_CONTRACT.operation("echo").input.build(text=f"c{index}")
            try:
                response = yield from invoker.invoke(
                    vep.address, "echo", payload, timeout=30.0
                )
            except SoapFaultError as error:
                outcomes.append(error.fault.code)
            else:
                outcomes.append(response.body.child_text("text"))

        for index in range(3):
            env.process(client(index))
        env.run()
        # One immediate, one leveled into the queue, one throttled away.
        assert vep.stats.leveled == 1
        assert vep.stats.throttled == 1
        assert outcomes.count(FaultCode.SERVICE_UNAVAILABLE) == 1

    def test_inert_without_policies(self, env, network, container):
        container.deploy(EchoService(env, "echo-a", "http://svc/a"))
        metrics = MetricsRegistry()
        bus = WsBus(
            env, network, repository=PolicyRepository(), member_timeout=5.0,
            metrics=metrics,
        )
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/a"],
            selection_strategy="primary",
        )
        assert call(env, network, vep.address) == "hi@echo-a"
        assert bus.traffic.active is False
        assert "traffic" not in bus.stats_summary()
        assert not any(
            name.startswith("wsbus.traffic")
            for name in metrics.snapshot()["counters"]
        )
        stats = container.idempotency.stats()
        assert stats["entries"] == 0 and stats["recorded"] == 0
        assert vep.stats.cache_hits == 0


# ---------------------------------------------------------------------------
# Saga compensation replay is exactly-once at the service
# ---------------------------------------------------------------------------


def test_saga_compensation_replay_is_exactly_once_at_service():
    """Crash the engine after the first compensation completes, rehydrate,
    and drive the saga to completion: replay fast-forwards the completed
    compensation instead of re-invoking it, so the Retailer refunds the
    payment exactly once."""
    from repro.casestudies.scm import build_scm_deployment
    from repro.casestudies.scm.process import build_scm_saga_process
    from repro.experiments import count_crash_boundaries
    from repro.faultinjection import ProcessCrashInjector
    from repro.orchestration import TrackingService, WorkflowEngine
    from repro.orchestration.instance import InstanceStatus
    from repro.persistence import CheckpointStore, CheckpointingService

    seed = 11
    boundaries = count_crash_boundaries("scm-saga", seed=seed)
    crash_after = boundaries - 1  # right after the first compensation step

    deployment = build_scm_deployment(seed=seed, log_events=False)
    definition = build_scm_saga_process(
        deployment.retailers["C"].address, deployment.logging.address, abort=True
    )
    store = CheckpointStore()
    doomed_engine = WorkflowEngine(deployment.env, network=deployment.network)
    doomed_engine.add_service(TrackingService())
    doomed_engine.add_service(CheckpointingService(store, strict=True))
    injector = ProcessCrashInjector(deployment.env, crash_after)
    doomed_engine.add_service(injector)
    doomed_engine.register_definition(definition)
    doomed = doomed_engine.start(definition.name)
    deployment.env.run(until=injector.crashed_event)

    retailer = deployment.retailers["C"]
    if not doomed.status.is_final:
        recovery_engine = WorkflowEngine(deployment.env, network=deployment.network)
        recovery_engine.add_service(TrackingService())
        recovery_engine.add_service(CheckpointingService(store, strict=True))
        recovered = recovery_engine.rehydrate(store, doomed.id)
        deployment.env.run(recovered.process)
        assert recovered.status is InstanceStatus.COMPLETED

    assert retailer.payments_refunded == 1
    assert retailer.orders_cancelled == 1
