"""Invocation Retry Handler: retry queue and dead-letter queue.

"The Invocation Retry Handler places the messages that fail to be delivered
in a retry queue and the queue reader tries redelivery using the pattern
specified by the used recovery policy. Messages for which processing
repeatedly fails are placed in a 'dead letter' queue after exhausting the
maximum number of allowed retries and no further delivery will be
attempted."
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.observability.trace_context import start_hop_span
from repro.policy.actions import RetryAction
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapFaultError

__all__ = ["DeadLetterEntry", "DeadLetterQueue", "RetryQueue"]


@dataclass
class _RetryEntry:
    envelope: SoapEnvelope
    operation: str
    target: str
    policy: RetryAction
    completion: Any  # simulation Event delivering the outcome to the caller
    attempts_made: int = 0
    last_fault: SoapFault | None = None
    dead_letter_on_exhaust: bool = True
    parent_span: Any = None


@dataclass(frozen=True)
class DeadLetterEntry:
    """A message whose redelivery was abandoned."""

    time: float
    envelope: SoapEnvelope
    operation: str
    target: str
    attempts_made: int
    reason: str


class DeadLetterQueue:
    """Terminal parking lot for undeliverable messages."""

    def __init__(self) -> None:
        self.entries: list[DeadLetterEntry] = []
        #: How many entries have ever been revived via :meth:`replay`.
        self.replayed = 0

    def add(self, entry: DeadLetterEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def for_target(self, target: str) -> list[DeadLetterEntry]:
        return [entry for entry in self.entries if entry.target == target]

    def replay(
        self,
        retry_queue: "RetryQueue",
        entries: list[DeadLetterEntry] | None = None,
        policy: RetryAction | None = None,
        parent_span=None,
    ) -> list:
        """Give selected dead letters a fresh redelivery budget.

        Each selected entry is removed from this queue and re-enqueued on
        ``retry_queue`` with ``attempts_made`` reset to zero. The original
        envelope is reused, so the correlation ID (ProcessInstanceID /
        message ID) is preserved across the replay. Entries exhausting the
        fresh budget are dead-lettered again as new entries.

        Returns the completion events (one per entry, in queue order);
        callers may yield on them or fire-and-forget — failures are
        pre-defused so an ignored exhausted replay cannot crash the run.

        Each *queued* entry is replayed at most once: requesting the same
        entry twice (or two value-equal entries — :class:`DeadLetterEntry`
        is a frozen dataclass, so distinct objects can compare equal) maps
        each request onto a distinct queued entry, instead of crashing on
        the second removal of an already-removed entry.
        """
        if policy is None:
            policy = RetryAction()
        if entries is None:
            selected = list(self.entries)
        else:
            # Match every requested entry to a distinct queued entry by
            # identity, falling back to value equality; duplicates beyond
            # the queue's supply are ignored.
            remaining = list(self.entries)
            selected = []
            for entry in entries:
                match = next((e for e in remaining if e is entry), None)
                if match is None:
                    match = next((e for e in remaining if e == entry), None)
                if match is not None:
                    remaining[:] = [e for e in remaining if e is not match]
                    selected.append(match)
        selected_ids = {id(entry) for entry in selected}
        self.entries = [e for e in self.entries if id(e) not in selected_ids]
        completions = []
        for entry in selected:
            self.replayed += 1
            completion = retry_queue.enqueue(
                entry.envelope,
                entry.operation,
                entry.target,
                policy,
                parent_span=parent_span,
            )
            completion.callbacks.append(_defuse_failure)
            completions.append(completion)
        return completions


def _defuse_failure(event) -> None:
    event.defused = True


class RetryQueue:
    """Queue + reader redelivering failed messages per recovery policy.

    ``sender(envelope, operation, target)`` must be a generator performing
    one delivery attempt and returning the response envelope (raising
    :class:`~repro.soap.SoapFaultError` on failure) — the bus wires its own
    invoker here. Each enqueued message gets an independent redelivery
    process, so retrying one message never delays another.
    """

    def __init__(
        self,
        env,
        sender,
        dead_letter_queue: DeadLetterQueue,
        tracer=None,
        metrics=None,
        random_source=None,
    ) -> None:
        self.env = env
        self.sender = sender
        self.dead_letters = dead_letter_queue
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        from repro.simulation import RandomSource

        #: Named stream for retry-delay jitter: deterministic per seed, and
        #: independent of every other stochastic choice in the simulation.
        self._jitter_rng = (random_source or RandomSource()).stream("wsbus.retry.jitter")
        self._pending: deque[_RetryEntry] = deque()
        self.redeliveries_attempted = 0
        self.redeliveries_succeeded = 0

    @property
    def depth(self) -> int:
        return len(self._pending)

    def enqueue(
        self,
        envelope: SoapEnvelope,
        operation: str,
        target: str,
        policy: RetryAction,
        first_fault: SoapFault | None = None,
        dead_letter_on_exhaust: bool = True,
        parent_span=None,
    ):
        """Queue a failed message for redelivery.

        Returns a simulation event that succeeds with the response envelope
        if any retry succeeds, or fails with the last
        :class:`~repro.soap.SoapFaultError` after the policy is exhausted.

        ``dead_letter_on_exhaust=False`` lets the adaptation manager keep
        the message alive while later policy actions (substitution,
        broadcast) still have a chance to deliver it.
        """
        entry = _RetryEntry(
            envelope=envelope,
            operation=operation,
            target=target,
            policy=policy,
            completion=self.env.event(),
            last_fault=first_fault,
            dead_letter_on_exhaust=dead_letter_on_exhaust,
            parent_span=parent_span,
        )
        self._pending.append(entry)
        self.env.process(self._redeliver(entry), name=("retry", target))
        return entry.completion

    def _redeliver(self, entry: _RetryEntry) -> Generator:
        span = None
        carrier = entry.envelope
        if self.tracer.enabled:
            # A live parent span (adaptation manager) wins; otherwise join
            # the wire context stamped on the envelope — this is what keeps
            # a dead-letter *replay* inside the original request's trace.
            span, carrier = start_hop_span(
                self.tracer,
                "wsbus.retry",
                entry.envelope,
                {
                    "target": entry.target,
                    "operation": entry.operation,
                    "max_retries": entry.policy.max_retries,
                },
                parent=entry.parent_span,
            )
        try:
            while entry.attempts_made < entry.policy.max_retries:
                entry.attempts_made += 1
                delay = entry.policy.delay_for_attempt(entry.attempts_made, rng=self._jitter_rng)
                if delay > 0:
                    yield delay
                self.redeliveries_attempted += 1
                self.metrics.counter("wsbus.retry.attempts").inc()
                try:
                    response = yield from self.sender(
                        carrier.copy(), entry.operation, entry.target
                    )
                except SoapFaultError as error:
                    entry.last_fault = error.fault
                    if span is not None:
                        span.add_event(
                            "attempt_failed",
                            attempt=entry.attempts_made,
                            fault=error.fault.code.value,
                        )
                    continue
                self.redeliveries_succeeded += 1
                self.metrics.counter("wsbus.retry.successes").inc()
                if span is not None:
                    span.set_attribute("attempts_made", entry.attempts_made)
                    span.end(status="recovered")
                entry.completion.succeed(response)
                return
        finally:
            if entry in self._pending:
                self._pending.remove(entry)
        # Exhausted: dead-letter and report failure to the caller.
        fault = entry.last_fault or SoapFault(
            code=FaultCode.SERVICE_UNAVAILABLE, reason="redelivery exhausted"
        )
        if span is not None:
            span.set_attribute("attempts_made", entry.attempts_made)
            span.end(status="exhausted")
        if not entry.dead_letter_on_exhaust:
            entry.completion.fail(SoapFaultError(fault))
            return
        self.metrics.counter("wsbus.retry.dead_letters").inc()
        self.dead_letters.add(
            DeadLetterEntry(
                time=self.env.now,
                envelope=entry.envelope,
                operation=entry.operation,
                target=entry.target,
                attempts_made=entry.attempts_made,
                reason=str(fault),
            )
        )
        entry.completion.fail(SoapFaultError(fault))
