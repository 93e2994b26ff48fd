"""Generator-based discrete-event simulation core.

The model follows the classic process-interaction style:

- An :class:`Environment` owns the simulated clock and a priority queue of
  scheduled events.
- An :class:`Event` is a one-shot occurrence that callbacks can be attached
  to. Events either *succeed* with a value or *fail* with an exception.
- A :class:`Process` wraps a generator. Each ``yield`` hands an event back to
  the environment; when that event triggers, the generator is resumed with
  the event's value (or the exception is thrown into it). A process can
  carry a deadline (:meth:`Process.expire_after`), which is how the
  middleware expresses "response or timeout, whichever first"; the timer
  behind it is a :class:`Timeout`, which can be cancelled.
- :class:`AnyOf` / :class:`AllOf` compose events: broadcast invocation, and
  the orchestration engine's extensible activity deadlines.

The implementation is intentionally small and dependency-free; it is the
substrate for the simulated SOAP transport, service containers, fault
injection and the orchestration engine.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Expired",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` is whatever the interrupter supplied; middleware uses it to
    carry e.g. the fault that aborted a pending invocation.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Expired(Exception):
    """Delivered to the waiters of a process whose deadline passed first.

    See :meth:`Process.expire_after`; ``delay`` is the deadline that was set.
    """

    def __init__(self, delay: float) -> None:
        super().__init__(delay)
        self.delay = delay


# Event state markers. PENDING events have not been scheduled; TRIGGERED
# events sit in the queue awaiting processing; PROCESSED events have run
# their callbacks; a CANCELLED timeout never will. Ordered so that "can no
# longer be waited for" is one comparison (``>= _PROCESSED``).
_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2
_CANCELLED = 3

# When the heap is rebuilt without its cancelled timeouts: more than
# _COMPACT_FLOOR of them, making up more than _COMPACT_FRACTION of the heap
# (asyncio's rule for cancelled timer handles). Between rebuilds a cancelled
# entry costs one tuple and an empty Timeout; above the fraction it would
# also cost every live timer a deeper heap.
_COMPACT_FLOOR = 16
_COMPACT_FRACTION = 0.5


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events start pending, are triggered exactly once with either a value
    (:meth:`succeed`) or an exception (:meth:`fail`), and run their callbacks
    when the environment processes them.
    """

    __slots__ = ("env", "callbacks", "_state", "_ok", "_value", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._state = _PENDING
        self._ok: bool | None = None
        self._value: Any = None
        #: Set when a failure was handed to a waiting process or inspected,
        #: used to surface unhandled failures at the end of a run.
        self.defused = False

    # -- introspection -----------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to occur."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._state == _PENDING:
            raise SimulationError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception. Only valid once triggered."""
        if self._state == _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to succeed after ``delay`` simulated seconds."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fail with ``exception`` after ``delay``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exception!r}")
        self._trigger(False, exception, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float) -> None:
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._state = _TRIGGERED
        self._ok = ok
        self._value = value
        self.env._enqueue(self, delay)

    def _process(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if not self._ok and not self.defused and not callbacks:
            # Nobody is listening for this failure; surface it rather than
            # letting it pass silently.
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {
            _PENDING: "pending",
            _TRIGGERED: "triggered",
            _PROCESSED: "processed",
            _CANCELLED: "cancelled",
        }
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Inlined Event.__init__ + _trigger: timeouts are the most frequently
        # allocated event type (every latency hop is one), and they are born
        # triggered, so the generic pending-state bookkeeping is dead weight.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = delay
        env._enqueue(self, delay)

    def cancel(self) -> None:
        """Withdraw the timeout: it will not fire, and it lets go of its callbacks now.

        A cancelled timeout is not an event any more — the run skips it
        without counting it or moving the clock to it, and a process that
        yields it is told so. Cancelling a timeout that has already fired
        (or was already cancelled) does nothing.
        """
        if self._state != _TRIGGERED:
            return
        self._state = _CANCELLED
        self.callbacks.clear()
        self.env._discard(self)


class Process(Event):
    """A running simulated activity, driven by a generator.

    The process is itself an event: it triggers when the generator returns
    (success, with the generator's return value) or raises (failure). Other
    processes can therefore ``yield`` a process to wait for it. With a
    deadline (:meth:`expire_after`) it triggers at the generator's outcome or
    at the deadline, whichever is first.

    ``name`` may be a string or a tuple of parts joined with ``:`` on first
    access — hot callers pass tuples so no formatting happens for the vast
    majority of processes, whose names are never read.
    """

    __slots__ = ("_generator", "_name", "_waiting_on", "_deadline")

    def __init__(
        self, env: "Environment", generator: Generator, name: str | tuple | None = None
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise SimulationError(f"expected a generator, got {generator!r}")
        self._generator = generator
        self._name = name
        self._waiting_on: Event | None = None
        self._deadline: Timeout | None = None
        # Kick the generator off at the current simulated instant. Inlined
        # Event construction + succeed(): one bootstrap event is born already
        # triggered per process, and process creation is hot (several per
        # simulated request).
        bootstrap = Event.__new__(Event)
        bootstrap.env = env
        bootstrap.callbacks = [self._resume]
        bootstrap._state = _TRIGGERED
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.defused = False
        env._enqueue(bootstrap, 0.0)

    @property
    def name(self) -> str:
        """The process's debug name, formatted lazily."""
        name = self._name
        if name is None:
            name = getattr(self._generator, "__name__", "process")
            self._name = name
        elif type(name) is tuple:
            name = ":".join(str(part) for part in name)
            self._name = name
        return name

    @property
    def is_alive(self) -> bool:
        """True while the process has neither finished nor expired."""
        return self._state == _PENDING

    def expire_after(self, delay: float) -> "Process":
        """Bound the wait for this process to ``delay`` seconds from now.

        Three rules. A result inside the deadline cancels the timer, so a
        finished process leaves nothing scheduled. A deadline that passes
        first fails the waiters with :class:`Expired` — and that is all it
        does: the generator is *not* interrupted, it runs to its end with
        every side effect it would have had, and its late result or late
        failure is discarded instead of surfacing. From then on the process
        is over as far as others can tell (``is_alive`` is False,
        :meth:`interrupt` refuses). Returns the process, so a caller can
        ``yield env.process(work()).expire_after(5.0)``.
        """
        if self._state != _PENDING:
            raise SimulationError(f"process {self.name!r} has already finished")
        if self._deadline is not None:
            raise SimulationError(f"process {self.name!r} already has a deadline")
        timer = Timeout(self.env, delay)
        timer.callbacks.append(self._expire)
        self._deadline = timer
        return self

    def _expire(self, timer: Timeout) -> None:
        # A deadline bounds a wait; one that passes with nobody waiting any
        # more (the waiter was interrupted away) is not an unhandled failure.
        self.defused = True
        self._trigger(False, Expired(timer.delay), 0.0)

    def _settle(self, ok: bool, value: Any) -> None:
        """The generator ended: trigger, unless the deadline already did."""
        if self._state != _PENDING:
            return
        if self._deadline is not None:
            self._deadline.cancel()
        self._state = _TRIGGERED
        self._ok = ok
        self._value = value
        self.env._enqueue(self, 0.0)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a process
        twice before it handles the first interrupt queues both.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        event = Event(self.env)
        event.callbacks.append(self._resume)
        event.fail(Interrupt(cause))
        # Detach from whatever we were waiting on so the original event's
        # trigger does not resume us a second time.
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
            self._waiting_on = None

    def _resume(self, event: Event) -> None:
        # The busiest function in the kernel: every yield of every process
        # lands here. Peeks at private state (``_ok``/``_state``) instead of
        # the guarded properties — the event is always triggered by the time
        # a callback runs.
        self._waiting_on = None
        send = self._generator.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event.defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._settle(True, stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process failure is a value
                self._settle(False, exc)
                return

            if not isinstance(target, Event):
                misuse = f"process {self.name!r} yielded {target!r}, expected an Event"
            elif target._state < _PROCESSED:
                target.callbacks.append(self._resume)
                self._waiting_on = target
                return
            elif target._state == _PROCESSED:
                # Already happened: feed its outcome straight back in.
                if not target._ok:
                    target.defused = True
                event = target
                continue
            else:
                misuse = f"process {self.name!r} yielded a cancelled timeout"
            # Thrown in like any failure: a generator that catches it goes
            # on with whatever it yields next.
            event = Event(self.env)
            event._ok = False
            event._value = SimulationError(misuse)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: list[Event] = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._pending = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.processed:
                self._observe(event, immediate=True)
            else:
                self._pending += 1
                event.callbacks.append(self._observe)
        if self._state == _PENDING and self._satisfied():
            self.succeed(self._collect())

    def _observe(self, event: Event, immediate: bool = False) -> None:
        if not immediate:
            self._pending -= 1
        if self._state != _PENDING:
            if not event.ok:
                event.defused = True
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        # "Occurred" means processed: a Timeout is *triggered* (scheduled)
        # the instant it is created, but only counts once it has fired.
        return {event: event.value for event in self.events if event.processed and event.ok}


class AnyOf(_Condition):
    """Succeeds when the first constituent event succeeds.

    The value is a dict mapping the already-succeeded events to their values
    (usually a single entry). Fails if any constituent fails first.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return any(event.processed and event.ok for event in self.events)


class AllOf(_Condition):
    """Succeeds when every constituent event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return all(event.processed and event.ok for event in self.events)


class Environment:
    """Simulated clock plus the event queues that drive it.

    Scheduling uses two lanes that together behave exactly like one heap
    ordered by ``(time, sequence)``:

    - a binary heap for events with a positive delay (timeouts, latencies);
    - a FIFO *immediate lane* for zero-delay events — process bootstraps,
      ``succeed()``/``fail()`` cascades, condition triggers — which are the
      large majority of events in middleware workloads. Immediate events all
      occur at the current instant, and the monotonic sequence counter means
      the lane is already in sequence order, so each one costs a deque
      append/popleft instead of two O(log n) heap operations. Draining the
      lane before the clock may advance is also what batches same-timestamp
      cascades through one tight loop.

    The merge rule at every pop — take the immediate head unless the heap
    holds an event at the same instant with a smaller sequence number —
    reproduces the single-heap order bit for bit, which the byte-identical
    equivalence suite pins down.
    """

    #: Events processed by every environment in this process, accumulated
    #: once per :meth:`run` call. Benchmarks snapshot it around a workload
    #: that builds many environments internally to report true events/sec.
    total_events_processed = 0

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._immediate: deque[tuple[int, Event]] = deque()
        self._sequence = 0
        #: Cancelled timeouts still sitting in the heap (lazy deletion).
        self._cancelled = 0
        #: Total events processed over the environment's lifetime; cheap
        #: enough to maintain that benchmarks can report true events/sec.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | tuple | None = None) -> Process:
        """Start a simulated activity from ``generator``.

        ``name`` may be a tuple of parts, joined lazily only if the name is
        ever read (hot paths never format names they do not print).
        """
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: first success wins."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all must succeed."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _enqueue(self, event: Event, delay: float) -> None:
        self._sequence += 1
        if delay == 0.0:
            self._immediate.append((self._sequence, event))
        else:
            heapq.heappush(self._queue, (self._now + delay, self._sequence, event))

    def _discard(self, timer: Timeout) -> None:
        """Forget a timeout that was just cancelled.

        One in the heap stays where it is and is skipped when it surfaces
        (lazy deletion: a heap cannot give up an inner entry cheaply); once
        such entries outnumber the live ones the heap is rebuilt in place —
        in place because :meth:`run` holds the list — and the survivors keep
        their unique ``(time, sequence)`` keys, so their order is untouched.
        A zero-delay timeout sits in the short immediate lane and is removed
        at once, which keeps that lane free of a per-event liveness check.
        """
        if timer.delay == 0.0:
            immediate = self._immediate
            for index, entry in enumerate(immediate):
                if entry[1] is timer:
                    del immediate[index]
                    break
            return
        queue = self._queue
        self._cancelled += 1
        if self._cancelled > _COMPACT_FLOOR and self._cancelled > len(queue) * _COMPACT_FRACTION:
            queue[:] = [entry for entry in queue if entry[2]._state != _CANCELLED]
            heapq.heapify(queue)
            self._cancelled = 0

    def _drop_cancelled_head(self) -> None:
        """Pop cancelled timeouts off the top of the heap."""
        queue = self._queue
        while queue and queue[0][2]._state == _CANCELLED:
            heapq.heappop(queue)
            self._cancelled -= 1

    def _pop_next(self) -> Event:
        """The globally next event by ``(time, sequence)`` across both lanes.

        Advances the clock. Immediate-lane entries are always scheduled at
        the current instant, so the only contest is a heap event at the same
        time with a smaller sequence number (a positive delay that collapsed
        onto ``now`` in float arithmetic, enqueued earlier).
        """
        self._drop_cancelled_head()
        immediate = self._immediate
        queue = self._queue
        if immediate:
            if queue:
                time, seq, event = queue[0]
                if time == self._now and seq < immediate[0][0]:
                    heapq.heappop(queue)
                    return event
            return immediate.popleft()[1]
        if not queue:
            raise SimulationError("no scheduled events")
        time, _seq, event = heapq.heappop(queue)
        self._now = time
        return event

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        event = self._pop_next()
        self.events_processed += 1
        Environment.total_events_processed += 1
        event._process()

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        - ``until`` is ``None``: run until no events remain.
        - ``until`` is a number: run until the clock reaches it.
        - ``until`` is an :class:`Event` (e.g. a :class:`Process`): run until
          it triggers, then return its value (raising its failure).
        """
        # The three loops below are the simulation's hottest code: they
        # inline the two-lane pop with local bindings for both lanes and
        # heappop, which measurably raises events/sec on long runs. Each
        # iteration drains the immediate lane first (the same-timestamp
        # batch) unless the heap holds an earlier-sequenced event at the
        # current instant. A cancelled timeout coming off the heap is dropped
        # before the clock moves to it and before it is counted.
        queue = self._queue
        immediate = self._immediate
        pop = heapq.heappop
        processed = 0
        try:
            if isinstance(until, Event):
                stop = until
                while stop._state != _PROCESSED:
                    if immediate and not (
                        queue and queue[0][0] == self._now and queue[0][1] < immediate[0][0]
                    ):
                        event = immediate.popleft()[1]
                    elif queue:
                        time, _seq, event = pop(queue)
                        if event._state == _CANCELLED:
                            self._cancelled -= 1
                            continue
                        self._now = time
                    else:
                        raise SimulationError(
                            "simulation ran out of events before the awaited event triggered"
                        )
                    processed += 1
                    event._process()
                if stop._ok:
                    return stop._value
                stop.defused = True
                raise stop._value
            if until is not None:
                horizon = float(until)
                if horizon < self._now:
                    raise SimulationError(f"cannot run backwards to {horizon}")
                while immediate or (queue and queue[0][0] <= horizon):
                    if immediate and not (
                        queue and queue[0][0] == self._now and queue[0][1] < immediate[0][0]
                    ):
                        event = immediate.popleft()[1]
                    else:
                        time, _seq, event = pop(queue)
                        if event._state == _CANCELLED:
                            self._cancelled -= 1
                            continue
                        self._now = time
                    processed += 1
                    event._process()
                self._now = horizon
                return None
            while immediate or queue:
                if immediate and not (
                    queue and queue[0][0] == self._now and queue[0][1] < immediate[0][0]
                ):
                    event = immediate.popleft()[1]
                else:
                    time, _seq, event = pop(queue)
                    if event._state == _CANCELLED:
                        self._cancelled -= 1
                        continue
                    self._now = time
                processed += 1
                event._process()
            return None
        finally:
            self.events_processed += processed
            Environment.total_events_processed += processed

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._immediate:
            return self._now
        self._drop_cancelled_head()
        return self._queue[0][0] if self._queue else float("inf")
