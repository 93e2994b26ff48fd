"""EventRouter: the one kind-routed fan-out every event producer owns."""

import random

from repro.simulation import EventRouter

KINDS = ("a", "b", "c", "d", "e", "f")


def reference_table(declared):
    """The engine's former rule, rebuilt from every registration at once:
    each declared kind -> the handlers whose kinds are None or hold it;
    every other kind -> the handlers whose kinds are None."""
    every = tuple(handler for kinds, handler in declared if kinds is None)
    routes = {
        kind: tuple(handler for kinds, handler in declared if kinds is None or kind in kinds)
        for kinds, _ in declared
        for kind in kinds or ()
    }
    return routes, every


def random_kinds(rng):
    draw = rng.random()
    if draw < 0.3:
        return None
    if draw < 0.4:
        return rng.choice(((), frozenset(), []))
    picked = rng.choices(KINDS, k=rng.randint(1, 4))  # may repeat a kind
    return rng.choice((tuple, frozenset, list))(picked)


def test_matches_the_rebuilt_table_on_random_registrations():
    rng = random.Random(45)
    registrations = 0
    while registrations < 20_000:
        router, declared = EventRouter(), []
        for index in range(rng.randint(1, 12)):
            kinds = random_kinds(rng)

            def handler(*args, _index=index):
                return _index

            router.subscribe(handler, kinds)
            declared.append((kinds, handler))
            registrations += 1
            routes, every = reference_table(declared)
            for kind in KINDS + ("undeclared",):
                assert router.handlers(kind) == routes.get(kind, every)


def test_every_kind_subscriber_reads_kinds_declared_later():
    router = EventRouter()
    seen = []
    router.subscribe(lambda value: seen.append(("every", value)))
    router.subscribe(lambda value: seen.append(("late", value)), kinds=("late",))
    router.publish("late", 1)
    router.publish("other", 2)
    assert seen == [("every", 1), ("late", 1), ("every", 2)]


def test_empty_kinds_reads_nothing():
    router = EventRouter()
    seen = []
    router.subscribe(seen.append, kinds=())
    router.subscribe(lambda value: None, kinds=("a",))
    router.publish("a", 1)
    router.publish("b", 2)
    assert seen == []
    assert router.handlers("b") == ()


def test_handler_subscribed_during_publish_first_sees_the_next_event():
    router = EventRouter()
    seen = []

    def late(value):
        seen.append(("late", value))

    def first(value):
        seen.append(("first", value))
        if value == 1:
            router.subscribe(late)

    router.subscribe(first)
    router.publish("x", 1)
    router.publish("x", 2)
    assert seen == [("first", 1), ("first", 2), ("late", 2)]


def test_a_kind_nobody_reads_calls_nothing():
    router = EventRouter()
    calls = []
    router.subscribe(calls.append, kinds=("read",))
    router.publish("unread", 1)
    assert calls == []
    assert router.handlers("unread") == ()


def test_publish_passes_every_argument_in_subscription_order():
    router = EventRouter()
    calls = []
    router.subscribe(lambda kind, name: calls.append(("first", kind, name)))
    router.subscribe(lambda kind, name: calls.append(("second", kind, name)), kinds=("join",))
    router.publish("join", "join", "bus-0")
    assert calls == [("first", "join", "bus-0"), ("second", "join", "bus-0")]


def test_the_table_read_the_hot_producers_use_is_handlers():
    """``routes.get(kind, every)`` (the engine, the invoker, the two hand-looping
    monitors and the ledger) is the very tuple :meth:`handlers` returns, and a
    publish rebuilds none of the table."""
    rng = random.Random(48)
    for _ in range(500):
        router = EventRouter()
        for index in range(rng.randint(0, 8)):
            router.subscribe(lambda *args, _index=index: _index, random_kinds(rng))
        table = {kind: router.routes.get(kind, router.every) for kind in KINDS + ("undeclared",)}
        for kind, handlers in table.items():
            assert handlers is router.handlers(kind)
            router.publish(kind, None)
        assert all(table[kind] is router.routes.get(kind, router.every) for kind in table)
