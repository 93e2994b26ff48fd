"""Generator-based discrete-event simulation core.

The model follows the classic process-interaction style:

- An :class:`Environment` owns the simulated clock and a priority queue of
  scheduled events.
- An :class:`Event` is a one-shot occurrence that callbacks can be attached
  to. Events either *succeed* with a value or *fail* with an exception.
- A :class:`Process` wraps a generator. ``yield delay`` (a non-negative
  number of seconds) waits that long: the queue holds one entry naming the
  process's reusable wake slot, and no event object is made. ``yield event``
  waits for an event; when it triggers, the generator is resumed with the
  event's value (or the exception is thrown into it). A :class:`Timeout`
  (``env.timeout``) is the delay as an event, for when one must be
  composed, shared or cancelled. A process can also ``yield env.call(generator,
  timeout)``: the generator then runs inline, as a call frame of the same
  process, bounded by a deadline. That is how the middleware expresses
  "response or timeout, whichever first", and a deadline costs no event
  until it can pass first.
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
    """Thrown into the maker of a call whose deadline passed first.

    See :meth:`Environment.call`; ``delay`` is the deadline that was set.
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

#: The deadline of no call: later than every event.
_NEVER = float("inf")


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
        if not delay >= 0:  # also NaN, which compares false to everything
            raise SimulationError(f"delay {delay!r} is not a non-negative number")
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


#: What a fired wake resumes its process with: a success with no value.
_WOKEN = Event(None)
_WOKEN._state = _PROCESSED
_WOKEN._ok = True


class _Wake:
    """A process's reusable wake slot: the queue entry of a yielded delay.

    ``_process`` is the process's bound ``_resume``, so firing the slot is
    one call, resuming with :data:`_WOKEN`: no :class:`Event`, callbacks
    list or bound method is made per wait. A process waits on one delay at
    a time, so one slot serves every wait; a withdrawn slot stays cancelled
    (an entry in the heap may still name it) and its process takes a new one.
    """

    __slots__ = ("_process", "_state")

    def __init__(self, resume: Callable[[], None]) -> None:
        self._process = resume
        self._state = _TRIGGERED


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay", "at")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Inlined Event.__init__ + _trigger + Environment._enqueue: timeouts
        # are the most frequently allocated event type (every latency hop is
        # one), and they are born triggered, so the generic pending-state
        # bookkeeping is dead weight.
        if not delay >= 0:  # also NaN, which compares false to everything
            raise SimulationError(f"timeout delay {delay!r} is not a non-negative number")
        self.env = env
        self.callbacks = []
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = delay
        env._sequence = sequence = env._sequence + 1
        if delay == 0.0:
            self.at = env._now
            env._immediate.append((sequence, self))
        else:
            self.at = at = env._now + delay
            heapq.heappush(env._queue, (at, sequence, self))

    def cancel(self) -> None:
        """Withdraw the timeout: it will not fire, and it lets go of its callbacks now.

        A cancelled timeout is not an event any more — the run skips it
        without counting it or moving the clock to it, and a process that
        yields it is told so. A process that was waiting on it now waits
        on nothing, so every deadline of a call it has open is put in the
        heap. Cancelling a timeout that has already fired (or was already
        cancelled) does nothing.
        """
        if self._state != _TRIGGERED:
            return
        self._state = _CANCELLED
        for callback in self.callbacks:
            waiter = getattr(callback, "__self__", None)
            if isinstance(waiter, Process):
                waiter._waiting_on = None
                if waiter._frames:
                    waiter._arm(_NEVER)
        self.callbacks.clear()
        self.env._discard(self)


class _Call:
    """A deadline-bound call: what ``env.call`` returns and a process yields.

    Once yielded it is a frame on the yielding process's call stack:
    ``caller`` is the generator that yielded it, ``at`` and ``seq`` the
    heap key its deadline fires at, and ``timer`` that deadline once it is
    in the heap (None until then).
    """

    __slots__ = ("generator", "delay", "caller", "process", "at", "seq", "timer")

    def __init__(self, generator: Generator, delay: float) -> None:
        self.generator = generator
        self.delay = delay
        self.timer: Timeout | None = None


def _deadline_fired(timer: Timeout) -> None:
    call = timer._value
    call.process._overrun(call)


def _soonest_of(frames: list[_Call]) -> float:
    """The soonest deadline among ``frames`` that is not in the queue yet."""
    return min((call.at for call in frames if call.timer is None), default=_NEVER)


class Process(Event):
    """A running simulated activity, driven by a generator.

    The process is itself an event: it triggers when the generator returns
    (success, with the generator's return value) or raises (failure). Other
    processes can therefore ``yield`` a process to wait for it.

    A yielded delay wakes the process through ``_wake``, its reusable slot
    (:class:`_Wake`); the bootstrap that starts the generator is that slot's
    first entry in the immediate lane.

    A process also keeps a stack of call frames (:meth:`Environment.call`):
    ``_generator`` is the generator on top, the one being driven, and each
    frame of ``_frames`` remembers the generator that made it. A frame that
    returns or raises hands its outcome to the frame below within the same
    resume, with no event.

    ``name`` may be a string or a tuple of parts joined with ``:`` on first
    access — hot callers pass tuples so no formatting happens for the vast
    majority of processes, whose names are never read.
    """

    __slots__ = ("_generator", "_name", "_waiting_on", "_frames", "_soonest", "_wake")

    def __init__(
        self, env: "Environment", generator: Generator, name: str | tuple | None = None
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise SimulationError(f"expected a generator, got {generator!r}")
        self._generator = generator
        self._name = name
        self._waiting_on: Event | None = None
        self._frames: list[_Call] | None = None
        #: The soonest deadline of an open frame that is not in the heap.
        self._soonest = _NEVER
        # Kick the generator off at the current simulated instant: the wake
        # slot's first entry, a zero delay taken at creation.
        self._wake = wake = _Wake(self._resume)
        env._sequence = sequence = env._sequence + 1
        env._immediate.append((sequence, wake))

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
        """True while the process has not finished."""
        return self._state == _PENDING

    def _settle(self, ok: bool, value: Any) -> None:
        """The generator ended: trigger, unless the process is an orphan."""
        # The slot holds our bound ``_resume``: dropping it leaves no cycle,
        # so a finished process is freed by reference counting.
        self._wake = None
        if self._state != _PENDING:
            return
        self._state = _TRIGGERED
        self._ok = ok
        self._value = value
        self.env._enqueue(self, 0.0)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a process
        twice before it handles the first interrupt queues both. Calls the
        process has open do not see the interrupt: they run on as an
        orphan, the outermost one's deadline is withdrawn, and the
        interrupt is thrown into the generator that made that call. A
        delay the process was waiting out is withdrawn like a cancelled
        :class:`Timeout`: it is not counted, and the clock does not move to it.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        event = Event(self.env)
        event.callbacks.append(self._resume)
        event.fail(Interrupt(cause))
        if self._frames:
            bottom = self._orphan(0)
            if bottom.timer is not None:
                bottom.timer.cancel()
            return
        # Detach from whatever we were waiting on so the original event's
        # trigger does not resume us a second time.
        target = self._waiting_on
        if target is None:
            return
        if target is self._wake:
            target._state = _CANCELLED
            self._wake = _Wake(self._resume)
            self.env._discard(target)
            self._waiting_on = None
        elif self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
            self._waiting_on = None

    # -- call frames ---------------------------------------------------------

    def _enter(self, call: _Call, caller: Generator) -> None:
        """Push ``call``, made by ``caller``, and take its deadline's heap key."""
        env = self.env
        call.caller = caller
        call.process = self
        call.at = at = env._now + call.delay
        frames = self._frames
        if frames is None:
            self._frames = [call]
        else:
            frames.append(call)
        self._generator = call.generator
        if call.delay == 0.0:
            # Nothing can come before it but what is already queued.
            self._schedule(call)
            return
        env._sequence += 1
        call.seq = env._sequence
        if at < self._soonest:
            self._soonest = at

    def _leave(self) -> Generator:
        """Pop the top frame, which has ended; returns its caller, now on top."""
        frames = self._frames
        call = frames.pop()
        if call.timer is not None:
            call.timer.cancel()
        elif call.at == self._soonest:
            self._soonest = _soonest_of(frames) if frames else _NEVER
        self._generator = call.caller
        return call.caller

    def _arm(self, horizon: float) -> None:
        """Schedule every deadline that could pass before the wait ends.

        A delay or a :class:`Timeout` resumes the process at its ``at``, the
        ``horizon``, so only the deadlines due no later need the heap; any
        other wait may take forever (``_NEVER``).
        """
        for call in self._frames:
            if call.timer is None and call.at <= horizon:
                self._schedule(call)
        self._soonest = _soonest_of(self._frames)

    def _schedule(self, call: _Call) -> None:
        """Put ``call``'s deadline in the queue under the key it took."""
        timer = Timeout.__new__(Timeout)
        timer.env = env = self.env
        timer.callbacks = [_deadline_fired]
        timer._state = _TRIGGERED
        timer._ok = True
        timer._value = call
        timer.defused = False
        timer.delay = call.delay
        timer.at = call.at
        call.timer = timer
        if call.delay == 0.0:
            env._enqueue(timer, 0.0)
        else:
            heapq.heappush(env._queue, (call.at, call.seq, timer))

    def _overrun(self, call: _Call) -> None:
        """``call``'s deadline passed: it and the frames above go to an orphan."""
        self._orphan(self._frames.index(call))
        expired = Event(self.env)
        expired.callbacks.append(self._resume)
        # A deadline bounds a wait; one whose waiter was interrupted away
        # before it heard is not an unhandled failure.
        expired.defused = True
        expired.fail(Expired(call.delay))
        self._waiting_on = expired

    def _orphan(self, index: int) -> _Call:
        """Give up frame ``index`` and those above: they go to a process that is already over.

        The orphan takes over the top generator and what this process was
        waiting on, and runs on to its end with every side effect, the
        deadlines of the frames above ``index`` still live; nobody can wait
        on it, so its late result or failure is discarded. This process
        goes back to the generator that made frame ``index``; returns that
        frame.
        """
        frames = self._frames
        call = frames[index]
        orphaned = frames[index + 1 :]
        del frames[index:]
        orphan = Process.__new__(Process)
        orphan.env = self.env
        orphan.callbacks = []
        orphan._state = _PROCESSED
        orphan._ok = False
        orphan._value = None
        orphan.defused = True
        orphan._generator = self._generator
        orphan._name = None
        orphan._frames = orphaned
        orphan._soonest = _soonest_of(orphaned)
        for moved in orphaned:
            moved.process = orphan
        target = self._waiting_on
        orphan._waiting_on = target
        if target is self._wake:
            # A delay being waited out: its slot wakes the orphan now.
            target._process = orphan._resume
            orphan._wake = target
            self._wake = _Wake(self._resume)
        else:
            orphan._wake = _Wake(orphan._resume)
            if target is not None:
                callbacks = target.callbacks
                callbacks[callbacks.index(self._resume)] = orphan._resume
        self._waiting_on = None
        self._generator = call.caller
        self._soonest = _soonest_of(frames)
        return call

    def _resume(self, event: Event = _WOKEN) -> None:
        # The busiest function in the kernel: every yield of every process
        # lands here, and a fired wake slot calls it with no argument. Peeks
        # at private state (``_ok``/``_state``) instead of the guarded
        # properties — the event is always triggered by the time a callback
        # runs.
        self._waiting_on = None
        generator = self._generator
        ok = event._ok
        value = event._value
        if not ok:
            event.defused = True
        while True:
            try:
                if ok:
                    target = generator.send(value)
                else:
                    target = generator.throw(value)
            except StopIteration as stop:
                if not self._frames:
                    self._settle(True, stop.value)
                    return
                generator = self._leave()
                ok = True
                value = stop.value
                continue
            except BaseException as exc:  # noqa: BLE001 - process failure is a value
                if not self._frames:
                    self._settle(False, exc)
                    return
                generator = self._leave()
                ok = False
                value = exc
                continue

            if type(target) is float or type(target) is int:
                # A delay: the key ``(now + delay, sequence)`` a Timeout made
                # now would take, holding the wake slot. NaN fails the test.
                if target >= 0:
                    env = self.env
                    env._sequence = sequence = env._sequence + 1
                    at = env._now + target
                    if self._frames and at >= self._soonest:
                        self._arm(at)
                    if target:
                        heapq.heappush(env._queue, (at, sequence, self._wake))
                    else:
                        env._immediate.append((sequence, self._wake))
                    self._waiting_on = self._wake
                    return
                misuse = (
                    f"process {self.name!r} yielded the delay {target!r}, "
                    "which is not a non-negative number"
                )
            elif type(target) is _Call:
                self._enter(target, generator)
                generator = target.generator
                ok = True
                value = None
                continue
            elif not isinstance(target, Event):
                misuse = (
                    f"process {self.name!r} yielded {target!r}, expected an Event or a delay"
                )
            elif target._state < _PROCESSED:
                if self._frames and (type(target) is not Timeout or target.at >= self._soonest):
                    self._arm(target.at if type(target) is Timeout else _NEVER)
                target.callbacks.append(self._resume)
                self._waiting_on = target
                return
            elif target._state == _PROCESSED:
                # Already happened: feed its outcome straight back in.
                ok = target._ok
                value = target._value
                if not ok:
                    target.defused = True
                continue
            else:
                misuse = f"process {self.name!r} yielded a cancelled timeout"
            # Thrown in like any failure: a generator that catches it goes
            # on with whatever it yields next.
            ok = False
            value = SimulationError(misuse)


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

    def call(self, generator: Generator, timeout: float) -> _Call:
        """Run ``generator`` inline in the yielding process, for ``timeout`` seconds at most.

        ``result = yield env.call(work(), 5.0)`` drives ``work()`` on the
        caller's own process, as a call frame: no process is spawned, and
        its return value or exception reaches the caller in the same resume.
        The deadline is the key ``(now + timeout, sequence)`` taken when the
        call is yielded, so it ties with other events exactly as a
        :class:`Timeout` created at that instant would. Three rules:

        - a result inside the deadline leaves nothing scheduled: the
          deadline enters the heap only while the process waits on
          something that could come after it (a zero timeout at once);
        - a deadline that passes first throws :class:`Expired` into the
          caller, through one immediate event. That is all it does: the
          call and any calls it made run on in an orphan process to their
          end, with every side effect, their own deadlines still live,
          and their late result or failure is discarded;
        - an interrupt of the process moves its open calls to an orphan
          the same way, withdraws the outermost deadline, and reaches the
          generator that made the outermost call.
        """
        if not hasattr(generator, "throw"):
            raise SimulationError(f"expected a generator, got {generator!r}")
        if not timeout >= 0:  # also NaN, which compares false to everything
            raise SimulationError(f"deadline {timeout!r} is not a non-negative number")
        return _Call(generator, timeout)

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

    def _discard(self, timer: Timeout | _Wake) -> None:
        """Forget a timeout that was just cancelled, or a wake just withdrawn.

        One in the heap stays where it is and is skipped when it surfaces
        (lazy deletion: a heap cannot give up an inner entry cheaply); once
        such entries outnumber the live ones the heap is rebuilt in place —
        in place because :meth:`run` holds the list — and the survivors keep
        their unique ``(time, sequence)`` keys, so their order is untouched.
        A zero-delay timeout sits in the short immediate lane and is removed
        at once, which keeps that lane free of a per-event liveness check;
        a wake, which does not record its delay, is looked for there first.
        """
        if type(timer) is _Wake or timer.delay == 0.0:
            immediate = self._immediate
            for index, entry in enumerate(immediate):
                if entry[1] is timer:
                    del immediate[index]
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
                if not horizon >= self._now:  # also NaN
                    raise SimulationError(f"cannot run from {self._now} to {horizon}")
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
