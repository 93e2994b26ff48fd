"""Bulkheads: bounded concurrency partitions.

A bulkhead caps the number of simultaneously in-flight requests for one
partition (a member endpoint, or a whole VEP) so a single slow service
cannot absorb every mediation thread the bus has — the failure stays in
its compartment. Requests beyond the cap wait in a bounded FIFO queue;
beyond *that* they are rejected immediately with a retryable
``ServiceUnavailable`` fault.
"""

from __future__ import annotations

from collections import deque

from repro.soap import FaultCode, SoapFault, SoapFaultError

__all__ = ["Bulkhead"]


class Bulkhead:
    """A concurrency cap with a bounded wait queue for one partition.

    Usage inside a simulation process::

        waiter = bulkhead.try_acquire()   # may raise SoapFaultError
        if waiter is not None:
            yield waiter                  # queued: wait for a slot
        try:
            ...protected work...
        finally:
            bulkhead.release()

    ``release`` hands the slot directly to the oldest waiter, so the
    in-flight count never dips below the cap while a queue exists.
    """

    def __init__(self, key: str, env, max_concurrent: int, max_queue: int) -> None:
        self.key = key
        self.env = env
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.in_flight = 0
        self._waiters: deque = deque()
        self.peak_queue_depth = 0
        self.rejected = 0
        self.queued_total = 0
        self.admitted_total = 0

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def try_acquire(self):
        """Claim a slot: None when admitted now, an Event to wait on when
        queued; raises :class:`~repro.soap.SoapFaultError` when saturated."""
        if self.in_flight < self.max_concurrent:
            self.in_flight += 1
            self.admitted_total += 1
            return None
        if len(self._waiters) >= self.max_queue:
            self.rejected += 1
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_UNAVAILABLE,
                    f"bulkhead {self.key!r} at capacity "
                    f"({self.max_concurrent} in flight, {self.max_queue} queued); retry later",
                    source="wsbus-resilience",
                )
            )
        waiter = self.env.event()
        self._waiters.append(waiter)
        self.peak_queue_depth = max(self.peak_queue_depth, len(self._waiters))
        self.queued_total += 1
        self.admitted_total += 1
        return waiter

    def release(self) -> None:
        """Free a slot; the oldest waiter (if any) inherits it."""
        if self._waiters:
            self._waiters.popleft().succeed()
            return
        self.in_flight -= 1

    def stats(self) -> dict[str, int]:
        return {
            "in_flight": self.in_flight,
            "queue_depth": self.queue_depth,
            "admitted": self.admitted_total,
            "queued": self.queued_total,
            "rejected": self.rejected,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Bulkhead {self.key} {self.in_flight}/{self.max_concurrent}"
            f" +{self.queue_depth}q>"
        )
