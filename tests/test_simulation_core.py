"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Expired,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestEnvironmentClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(10.0).now == 10.0

    def test_run_until_number_advances_clock(self, env):
        env.run(until=5.0)
        assert env.now == 5.0

    def test_run_backwards_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(3.0)
        assert env.peek() == 3.0

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestEvents:
    def test_event_starts_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, env):
        event = env.event()
        event.succeed("payload")
        env.run()
        assert event.ok and event.value == "payload"

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_value_before_trigger_rejected(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_negative_delay_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.succeed(delay=-1)

    def test_unhandled_failure_surfaces(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            env.run()

    def test_defused_failure_is_silent(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defused = True
        env.run()  # no exception

    def test_delayed_succeed_fires_at_offset(self, env):
        event = env.event()
        event.succeed("v", delay=7.5)
        env.run()
        assert env.now == 7.5

    def test_callbacks_receive_event(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(seen.append)
        event.succeed()
        env.run()
        assert seen == [event]


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        env.timeout(2.0)
        env.run()
        assert env.now == 2.0

    def test_timeout_value(self, env):
        timeout = env.timeout(1.0, value="tick")
        env.run()
        assert timeout.value == "tick"

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-0.5)

    def test_zero_timeout_fires_immediately(self, env):
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.processed and env.now == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3, "c"))
        env.process(proc(1, "a"))
        env.process(proc(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        env.process(proc("first"))
        env.process(proc("second"))
        env.run()
        assert order == ["first", "second"]


class TestProcesses:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return 42

        assert env.run(env.process(proc())) == 42

    def test_nested_processes(self, env):
        def inner():
            yield env.timeout(1)
            return "in"

        def outer():
            value = yield env.process(inner())
            return f"out-{value}"

        assert env.run(env.process(outer())) == "out-in"

    def test_process_exception_propagates_to_run(self, env):
        def proc():
            yield env.timeout(1)
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            env.run(env.process(proc()))

    def test_waiting_process_catches_child_failure(self, env):
        def failing():
            yield env.timeout(1)
            raise ValueError("child")

        def parent():
            try:
                yield env.process(failing())
            except ValueError:
                return "caught"

        assert env.run(env.process(parent())) == "caught"

    def test_is_alive_lifecycle(self, env):
        def proc():
            yield env.timeout(1)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_yielding_non_event_fails_process(self, env):
        def proc():
            yield "not an event"

        with pytest.raises(SimulationError):
            env.run(env.process(proc()))

    def test_process_that_catches_its_misuse_goes_on(self, env):
        # The misuse error is thrown in like any failure, so the event the
        # generator yields after catching it is waited for, not dropped.
        caught = []

        def proc():
            try:
                yield "not an event"
            except SimulationError as error:
                caught.append(error)
            yield env.timeout(1.0)
            return "resumed"

        process = env.process(proc())
        assert env.run(process) == "resumed"
        assert env.now == 1.0 and not process.is_alive
        assert "expected an Event" in str(caught[0])

    def test_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_immediate_return(self, env):
        def proc():
            return 7
            yield  # pragma: no cover

        assert env.run(env.process(proc())) == 7

    def test_process_waits_on_already_processed_event(self, env):
        timeout = env.timeout(1.0, value="done")
        env.run()

        def proc():
            value = yield timeout
            return value

        assert env.run(env.process(proc())) == "done"


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return interrupt.cause

        process = env.process(victim())

        def interrupter():
            yield env.timeout(1)
            process.interrupt("why")

        env.process(interrupter())
        assert env.run(process) == "why"
        assert env.now == 1.0

    def test_interrupting_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_interrupted_process_does_not_resume_from_original_event(self, env):
        resumed = []

        def victim():
            try:
                yield env.timeout(5)
                resumed.append("timer")
            except Interrupt:
                yield env.timeout(10)
                resumed.append("post-interrupt")

        process = env.process(victim())

        def interrupter():
            yield env.timeout(1)
            process.interrupt()

        env.process(interrupter())
        env.run()
        assert resumed == ["post-interrupt"]
        assert env.now == 11.0


class TestConditions:
    def test_any_of_first_wins(self, env):
        def slow():
            yield env.timeout(10)
            return "slow"

        def fast():
            yield env.timeout(1)
            return "fast"

        def racer():
            a, b = env.process(slow()), env.process(fast())
            result = yield env.any_of([a, b])
            return list(result.values())

        assert env.run(env.process(racer())) == ["fast"]

    def test_any_of_pending_timeout_does_not_count_as_fired(self, env):
        """Regression: a Timeout is scheduled at creation but must not
        satisfy a condition until it actually fires."""

        def proc():
            work = env.process(iter_work())
            timer = env.timeout(50)
            result = yield env.any_of([work, timer])
            return work in result

        def iter_work():
            yield env.timeout(1)
            return "done"

        assert env.run(env.process(proc())) is True

    def test_all_of_waits_for_everything(self, env):
        def worker(delay):
            yield env.timeout(delay)
            return delay

        def gather():
            processes = [env.process(worker(d)) for d in (3, 1, 2)]
            result = yield env.all_of(processes)
            return sorted(result.values())

        assert env.run(env.process(gather())) == [1, 2, 3]
        assert env.now == 3.0

    def test_any_of_failure_propagates(self, env):
        def bad():
            yield env.timeout(1)
            raise RuntimeError("bad")

        def racer():
            yield env.any_of([env.process(bad()), env.timeout(10)])

        with pytest.raises(RuntimeError):
            env.run(env.process(racer()))

    def test_empty_any_of_succeeds_immediately(self, env):
        condition = env.any_of([])
        env.run()
        assert condition.processed and condition.value == {}

    def test_all_of_with_already_processed_events(self, env):
        t1 = env.timeout(1)
        env.run()

        def proc():
            result = yield env.all_of([t1, env.timeout(1)])
            return len(result)

        assert env.run(env.process(proc())) == 2

    def test_condition_rejects_foreign_environment(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.any_of([other.timeout(1)])

    def test_run_until_event(self, env):
        timer = env.timeout(4.0, value="fired")
        later = env.timeout(9.0)
        assert env.run(until=timer) == "fired"
        assert env.now == 4.0
        assert not later.processed

    def test_run_until_unreachable_event_raises(self, env):
        event = env.event()  # never triggered
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=event)


class TestCancel:
    def test_cancelled_timeout_never_fires(self, env):
        seen = []
        doomed = env.timeout(5.0)
        doomed.callbacks.append(seen.append)
        env.timeout(2.0)
        doomed.cancel()
        assert doomed.callbacks == []  # let go of at once, not at the deadline
        env.run()
        assert seen == []
        assert not doomed.processed
        assert env.events_processed == 1  # a cancelled timer is not an event

    def test_run_to_exhaustion_ends_at_the_last_live_event(self, env):
        env.timeout(2.0)
        env.timeout(30.0).cancel()
        env.run()
        assert env.now == 2.0

    def test_peek_reports_the_next_live_time(self, env):
        first = env.timeout(1.0)
        env.timeout(3.0)
        first.cancel()
        assert env.peek() == 3.0
        env.timeout(4.0).cancel()
        env.run()
        assert env.peek() == float("inf")

    def test_run_until_number_still_lands_on_the_horizon(self, env):
        env.timeout(1.0).cancel()
        env.timeout(9.0).cancel()
        env.run(until=5.0)
        assert env.now == 5.0
        assert env.events_processed == 0

    def test_run_until_event_skips_cancelled_timers(self, env):
        env.timeout(1.0).cancel()
        target = env.timeout(2.0, value="live")
        assert env.run(until=target) == "live"
        assert env.events_processed == 1

    def test_step_skips_cancelled_timers(self, env):
        env.timeout(1.0).cancel()
        live = env.timeout(2.0)
        env.step()
        assert live.processed and env.now == 2.0
        with pytest.raises(SimulationError):
            env.step()

    def test_cancel_after_firing_is_a_noop(self, env):
        timeout = env.timeout(1.0, value="fired")
        env.run()
        timeout.cancel()
        assert timeout.processed and timeout.value == "fired"

    def test_double_cancel_is_a_noop(self, env):
        timeout = env.timeout(1.0)
        timeout.cancel()
        timeout.cancel()
        env.timeout(2.0)
        env.run()
        assert env.now == 2.0 and env.events_processed == 1

    def test_zero_delay_timeout_can_be_cancelled(self, env):
        seen = []
        before, doomed, after = env.timeout(0.0), env.timeout(0.0), env.timeout(0.0)
        for timeout in (before, doomed, after):
            timeout.callbacks.append(seen.append)
        doomed.cancel()
        env.run()
        assert seen == [before, after]
        assert env.events_processed == 2

    def test_yielding_a_cancelled_timeout_fails_the_process(self, env):
        timer = env.timeout(1.0)
        timer.cancel()

        def proc():
            yield timer

        with pytest.raises(SimulationError, match="cancelled"):
            env.run(env.process(proc()))

    def test_heap_is_rebuilt_once_mostly_cancelled(self, env):
        live = [env.timeout(1000.0 + index) for index in range(10)]
        for index in range(200):
            env.timeout(10.0 + index).cancel()
        # Lazy deletion alone would leave 210 entries behind.
        assert len(env._queue) < 50
        env.run()
        assert all(timeout.processed for timeout in live)
        assert env.events_processed == 10 and env.now == 1009.0


class TestDeadline:
    def test_result_first_cancels_the_timer(self, env):
        def work():
            yield env.timeout(1.0)
            return "reply"

        def waiter():
            return (yield env.process(work()).expire_after(30.0))

        assert env.run(env.process(waiter())) == "reply"
        assert env.now == 1.0
        assert env.peek() == float("inf")  # nothing left behind
        env.run()
        assert env.now == 1.0

    def test_failure_first_is_delivered_and_cancels_the_timer(self, env):
        def work():
            yield env.timeout(1.0)
            raise ValueError("refused")

        def waiter():
            try:
                yield env.process(work()).expire_after(30.0)
            except ValueError as error:
                return str(error)

        assert env.run(env.process(waiter())) == "refused"
        assert env.peek() == float("inf")

    def test_deadline_first_fails_the_waiters_but_not_the_generator(self, env):
        progress = []

        def work():
            yield env.timeout(10.0)
            progress.append(env.now)
            return "late"

        def waiter(process):
            try:
                yield process
            except Expired as expired:
                return (env.now, expired.delay)

        process = env.process(work()).expire_after(3.0)
        waiters = [env.process(waiter(process)) for _ in range(2)]
        env.run()
        assert [w.value for w in waiters] == [(3.0, 3.0), (3.0, 3.0)]
        assert progress == [10.0]  # ran on to its end
        assert not process.ok and isinstance(process.value, Expired)  # late return discarded

    def test_late_exception_is_discarded(self, env):
        def work():
            yield env.timeout(10.0)
            raise RuntimeError("late fault")

        def waiter():
            with pytest.raises(Expired):
                yield env.process(work()).expire_after(3.0)

        env.process(waiter())
        env.run()  # no unhandled failure at the end of the run
        assert env.now == 10.0

    def test_deadline_of_zero(self, env):
        def instant():
            return "now"
            yield  # pragma: no cover

        def slow():
            yield env.timeout(0.5)

        # The generator is started first, so one that never waits still wins.
        assert env.run(env.process(instant()).expire_after(0)) == "now"
        with pytest.raises(Expired):
            env.run(env.process(slow()).expire_after(0))
        assert env.now == 0.0
        env.run()
        assert env.now == 0.5

    def test_interrupt_before_the_deadline(self, env):
        def work():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                return interrupt.cause

        process = env.process(work()).expire_after(30.0)

        def interrupter():
            yield env.timeout(1.0)
            process.interrupt("stop")

        env.process(interrupter())
        assert env.run(process) == "stop"
        # The 30 s deadline is gone; what is left is the plain timeout the
        # generator was detached from, which nobody cancelled.
        assert env.peek() == 100.0

    def test_expired_process_is_over_for_everyone_else(self, env):
        def work():
            yield env.timeout(10.0)

        process = env.process(work()).expire_after(1.0)
        with pytest.raises(Expired):
            env.run(process)
        assert not process.is_alive
        with pytest.raises(SimulationError):
            process.interrupt()
        with pytest.raises(SimulationError):
            process.expire_after(5.0)

    def test_deadline_passing_with_the_waiter_interrupted_away_is_silent(self, env):
        def work():
            yield env.timeout(10.0)

        def waiter():
            try:
                yield env.process(work()).expire_after(3.0)
            except Interrupt:
                return "gave up"

        waiting = env.process(waiter())

        def interrupter():
            yield env.timeout(1.0)
            waiting.interrupt()

        env.process(interrupter())
        env.run()  # Expired with nobody waiting is not an unhandled failure
        assert waiting.value == "gave up"

    def test_one_deadline_per_process(self, env):
        def work():
            yield env.timeout(1.0)

        process = env.process(work()).expire_after(5.0)
        with pytest.raises(SimulationError):
            process.expire_after(6.0)
        with pytest.raises(SimulationError):
            env.process(work()).expire_after(-1.0)
        env.run()


# -- cancellation never reorders the survivors ----------------------------------------
#
# A schedule is a list of operations, each run when an earlier timeout of the
# schedule fires (or up front): create a timeout, trigger a plain zero-delay
# event, cancel a timeout, or churn — create twenty timeouts and cancel
# eighteen of them at once, which is what forces a rebuild of the heap. The
# kernel runs it on its two lanes with lazy deletion and rebuilds; the
# reference runs it on one list re-sorted by ``(time, sequence)`` before
# every pop. Started at 2**53, where doubles are 2.0 apart, the delays 0.5
# and 1.0 collapse onto ``now``: those timeouts go to the heap at the current
# instant and tie with the immediate lane.

_DELAYS = (0.0, 0.0, 0.5, 1.0, 2.0, 4.0, 6.0)
_KINDS = ("timeout", "timeout", "event", "cancel", "cancel", "churn")

_operation = st.tuples(
    st.integers(min_value=0, max_value=10**6),  # when: which earlier timeout's firing
    st.sampled_from(_KINDS),
    st.sampled_from(_DELAYS),
    st.integers(min_value=0, max_value=10**6),  # cancel: which timeout
)


def _script(operations):
    """Steps grouped by the label of the timeout whose firing runs them."""
    script = {None: []}
    creators = []

    def create(label, delay):
        creators.append(label)
        script[label] = []
        return ("timeout", label, delay)

    for label, (when, kind, delay, target) in enumerate(operations):
        # Three in four run up front, so that the heap fills before it drains.
        parent = creators[when % len(creators)] if creators and when % 4 == 0 else None
        steps = script[parent]
        if kind == "timeout":
            steps.append(create(label, delay))
        elif kind == "event":
            steps.append(("event", label))
        elif kind == "cancel":
            # Mostly the most recent timeouts, which are the likeliest to be live.
            recent = creators[-8:] if target % 3 else creators
            steps.append(("cancel", recent[target % len(recent)] if recent else None))
        else:
            positive = _DELAYS[2:]
            steps.extend(
                create((label, index), positive[(target + index) % len(positive)])
                for index in range(20)
            )
            steps.extend(("cancel", (label, index)) for index in range(1, 19))
    return script


def _run_kernel(initial_time, script):
    env = Environment(initial_time)
    fired, timeouts = [], {}
    rebuilds = 0

    def perform(steps):
        nonlocal rebuilds
        for step in steps:
            if step[0] == "timeout":
                _, label, delay = step
                timeout = timeouts[label] = env.timeout(delay, value=label)
                timeout.callbacks.append(occurred)
            elif step[0] == "event":
                event = env.event().succeed(step[1])
                event.callbacks.append(occurred)
            elif step[1] in timeouts:
                before = len(env._queue)
                timeouts[step[1]].cancel()
                rebuilds += len(env._queue) < before

    def occurred(event):
        fired.append((env.now, event.value))
        perform(script.get(event.value, ()))

    perform(script[None])
    env.run()
    assert env.events_processed == len(fired)
    assert not env._queue and not env._immediate and env._cancelled == 0
    return fired, rebuilds


def _run_reference(initial_time, script):
    now, sequence = initial_time, 0
    scheduled, fired = [], []

    def perform(steps):
        nonlocal sequence
        for step in steps:
            if step[0] == "cancel":
                scheduled[:] = [entry for entry in scheduled if entry[2] != step[1]]
            else:
                sequence += 1
                delay = step[2] if step[0] == "timeout" else 0.0
                scheduled.append((now + delay, sequence, step[1]))

    perform(script[None])
    while scheduled:
        scheduled.sort()
        now, _, label = scheduled.pop(0)
        fired.append((now, label))
        perform(script.get(label, ()))
    return fired


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((0.0, 2.0**53)),
    st.lists(_operation, min_size=1, max_size=400),
)
def test_cancellation_fires_exactly_the_survivors_in_order(initial_time, operations):
    script = _script(operations)
    fired, _rebuilds = _run_kernel(initial_time, script)
    assert fired == _run_reference(initial_time, script)


@pytest.mark.parametrize("initial_time", [0.0, 2.0**53])
def test_cancellation_order_holds_across_several_rebuilds(initial_time):
    rng = random.Random(20)
    operations = [
        (
            rng.randrange(10**6),
            rng.choice(_KINDS),
            rng.choice(_DELAYS),
            rng.randrange(10**6),
        )
        for _ in range(600)
    ]
    script = _script(operations)
    fired, rebuilds = _run_kernel(initial_time, script)
    assert rebuilds >= 3
    assert fired == _run_reference(initial_time, script)
