"""Running process instances.

The instance interprets its own copy of the activity tree on simulated time.
It exposes exactly the control points MASC needs from the runtime:

- **suspend/resume at activity boundaries** (dynamic adaptation suspends the
  instance, edits the tree, resumes it);
- **terminate**;
- **extensible deadlines** (messaging-layer recovery can push a pending
  timeout out while it retries);
- **transient copy + apply-changes** for dynamic modification (see
  :mod:`repro.orchestration.modification`);
- the MASC ProcessInstanceID correlation header on all outgoing invokes.
"""

from __future__ import annotations

import enum
from collections.abc import Generator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.orchestration.activities import Activity, CompensationScope, Scope
from repro.orchestration.errors import ProcessFault, ProcessTerminated
from repro.simulation import Interrupt
from repro.soap import FaultCode, SoapFault, SoapFaultError
from repro.xmlutils import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.orchestration.definition import ProcessDefinition
    from repro.orchestration.engine import WorkflowEngine

__all__ = ["CompensationEntry", "DeadlineHandle", "InstanceStatus", "ProcessInstance"]


class InstanceStatus(enum.Enum):
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    FAULTED = "faulted"
    TERMINATED = "terminated"

    @property
    def is_final(self) -> bool:
        return self in (
            InstanceStatus.COMPLETED,
            InstanceStatus.FAULTED,
            InstanceStatus.TERMINATED,
        )


@dataclass
class DeadlineHandle:
    """A pending timeout that cross-layer coordination may extend."""

    activity_name: str
    deadline: float
    active: bool = True

    def extend(self, extra_seconds: float) -> None:
        self.deadline += max(0.0, extra_seconds)


@dataclass
class CompensationEntry:
    """One registered compensation: undo ``step`` by running ``activity``.

    ``scope`` names the owning :class:`CompensationScope` (None when the
    registration happened outside any saga scope); scoped unwinds only pop
    entries tagged with their scope.
    """

    step: str
    activity: Activity
    scope: str | None = None


class ProcessInstance:
    """One execution of a process definition."""

    def __init__(
        self,
        engine: "WorkflowEngine",
        instance_id: str,
        definition_name: str,
        root: Activity,
        variables: dict[str, Any],
        input: Element | None = None,
    ) -> None:
        self.engine = engine
        self.env = engine.env
        self.id = instance_id
        self.definition_name = definition_name
        self.root = root
        self._tree_revision = 0
        #: The persistence layer's memo of the dehydrated tree,
        #: ``(root, tree_revision, xml text)``; cold on a fresh instance.
        self._dehydrated_tree: tuple[Activity, int, str] | None = None
        #: How ``root`` came to be: ``(root, definition, edits)`` when it is
        #: the definition's tree plus the journaled operation records
        #: ``edits``, each a ``(kind, anchor, activity text)`` triple; None
        #: when no such description holds. Set by ``WorkflowEngine.start``,
        #: extended by ``ProcessModifier.apply``.
        self.tree_history: tuple[Activity, ProcessDefinition, tuple[tuple, ...]] | None = None
        self.variables = variables
        self.input = input
        self.result: Any = None
        self.status = InstanceStatus.RUNNING
        self.fault: SoapFault | None = None
        #: Names of activities that have started at least once.
        self.executed_activities: set[str] = set()
        #: Names currently executing (between started and completed).
        self.active_activities: set[str] = set()
        #: How many times each activity has completed (persistence state:
        #: the replay cursor for loop bodies and repeated activities).
        self.completion_counts: dict[str, int] = {}
        #: Remaining fast-forward skips per activity name while a rehydrated
        #: instance replays past already-completed work (None = live run).
        self._replay_credits: dict[str, int] | None = None
        #: Names that had already *started* before the checkpoint; their
        #: re-entry during replay does not re-emit ``activity_started``.
        self._replayed_started: frozenset[str] = frozenset()
        #: Names that were *in flight* at the checkpoint. A replayed-start
        #: activity outside this set already faulted (or was cancelled)
        #: pre-crash, so its deterministic re-fault is replay bookkeeping.
        self._replayed_active: frozenset[str] = frozenset()
        self._resume_event = None
        self._terminate_reason: str | None = None
        self._deadlines: dict[str, DeadlineHandle] = {}
        self._compensations: list[CompensationEntry] = []
        #: Enclosing CompensationScopes, innermost last (execution-time).
        self._saga_stack: list[CompensationScope] = []
        #: Pending policy-requested compensation: (reason, scope-or-None).
        #: Persisted in checkpoints so a crash mid-unwind replays the abort.
        self._compensation_request: tuple[str, str | None] | None = None
        #: Span to parent compensation spans under (the triggering
        #: violation/enactment span); transient.
        self._compensation_trace_parent = None
        #: True while running a compensation chain (suppresses re-triggering).
        self._compensating = False
        #: True once a pending request has been raised as a fault; transient
        #: on purpose — a rehydrated instance re-raises during replay.
        self._request_raised = False
        self.process = None  # the simulation Process, set by the engine
        #: The instance's trace span (None when tracing is disabled).
        self.span = None

    # -- tree lookup ------------------------------------------------------------

    @property
    def tree_revision(self) -> int:
        """How many times the live activity tree has been edited in place."""
        return self._tree_revision

    def mark_tree_modified(self) -> None:
        """Declare that the live tree is about to be edited in place.

        Every path that mutates ``root`` must call this *before* its first
        edit (a partial failure still leaves the tree changed): the
        persistence layer serialises the tree once per revision and reuses
        the text until the revision moves. The edit is one this method
        cannot describe, so it also ends the tree's history; a caller that
        can describe it (``ProcessModifier.apply``) sets a new one after.
        """
        self._tree_revision += 1
        self.tree_history = None

    def find_activity(self, name: str) -> Activity | None:
        for activity in self.root.iter_tree():
            if activity.name == name:
                return activity
        return None

    # -- lifecycle ---------------------------------------------------------------

    def run(self) -> Generator:
        """The instance's top-level simulated process."""
        try:
            yield from self.run_activity(self.root)
        except ProcessTerminated as terminated:
            self.status = InstanceStatus.TERMINATED
            self._terminate_reason = terminated.reason
            self._end_span("terminated")
            self.engine.notify("instance_terminated", self)
            return self.result
        except ProcessFault as fault:
            if self._terminate_reason is not None:
                # Termination was requested while the fault was in flight
                # (e.g. a messaging-layer policy ordered it): the explicit
                # terminate verdict wins over the incidental fault.
                self.status = InstanceStatus.TERMINATED
                self._end_span("terminated")
                self.engine.notify("instance_terminated", self)
                return self.result
            self.status = InstanceStatus.FAULTED
            self.fault = fault.fault
            self._end_span(f"fault:{fault.fault.code.value}")
            self.engine.notify("instance_faulted", self)
            raise
        self.status = InstanceStatus.COMPLETED
        self._end_span(None)
        self.engine.notify("instance_completed", self)
        return self.result

    def _end_span(self, status: str | None) -> None:
        self.engine.metrics.counter(f"engine.instances.{self.status.value}").inc()
        if self.span is not None:
            self.span.end(status=status)

    def run_activity(self, activity: Activity) -> Generator:
        """Execute one activity with gating, tracking and fault tagging.

        When the engine has a fault advisor (MASC's process-level
        corrective adaptation), a fault originating *at this activity* is
        offered to it before propagating: the advisor may order a retry
        (with delay), skip the activity, or substitute a replacement.
        """
        yield from self._gate()
        if self.engine.crashed:
            # A crashed engine schedules nothing further: the instance
            # freezes at this activity boundary, exactly the state the
            # latest checkpoint captured, until rehydrated elsewhere.
            yield self.env.event()
        credits = self._replay_credits
        if (
            credits is not None
            and credits.get(activity.name)
            and not activity.children()
            and not getattr(activity, "replay_composite", False)
        ):
            # Fast-forward: this leaf already completed before the
            # checkpoint; its effects live in the restored variables.
            self._consume_replay_credit(activity)
            return
        request = self._compensation_request
        if (
            request is not None
            and not self._request_raised
            and not self._compensating
            and not (credits is not None and credits.get(activity.name))
        ):
            # Policy-requested compensation surfaces as a fault at the next
            # *live* activity boundary (replayed work fast-forwards past the
            # guard, so a rehydrated instance re-raises at the same point).
            self._request_raised = True
            raise ProcessFault(
                SoapFault(
                    FaultCode.SERVER,
                    f"compensation requested: {request[0]}",
                    source="masc-adaptation",
                ),
                activity.name,
            )
        replayed_start = (
            self._replay_credits is not None and activity.name in self._replayed_started
        )
        self.executed_activities.add(activity.name)
        self.active_activities.add(activity.name)
        if not replayed_start:
            self.engine.notify("activity_started", self, activity)
        else:
            self.engine.notify("activity_restarted", self, activity)
        span = None
        if self.engine.tracer.enabled:
            span = self.engine.tracer.start_span(
                f"activity.{type(activity).__name__.lower()}",
                correlation_id=self.id,
                parent=self.span,
                attributes={"activity": activity.name},
            )
        attempts = 0
        try:
            while True:
                try:
                    yield from activity.execute(self)
                    break
                except ProcessFault as fault:
                    if fault.activity_name is None:
                        fault.activity_name = activity.name
                    if fault.activity_name != activity.name:
                        raise  # not ours: already consulted at the origin
                    verdict = self.engine.consult_fault_advisor(
                        self, activity, fault, attempts
                    )
                    if verdict is None or verdict.kind == "propagate":
                        if (
                            replayed_start
                            and activity.name not in self._replayed_active
                        ):
                            # The same fault already propagated (and was
                            # tracked) before the checkpoint.
                            self.engine.notify(
                                "activity_refaulted", self, activity, fault
                            )
                        else:
                            self.engine.notify(
                                "activity_faulted", self, activity, fault
                            )
                        if span is not None:
                            span.end(status=f"fault:{fault.fault.code.value}")
                        raise
                    if verdict.kind == "retry":
                        attempts += 1
                        self.engine.notify(
                            "activity_retried", self, activity, fault, attempts
                        )
                        if span is not None:
                            span.add_event(
                                "retried",
                                attempt=attempts,
                                fault=fault.fault.code.value,
                                policy=verdict.policy_name,
                            )
                        if verdict.delay_seconds > 0:
                            yield self.env.timeout(verdict.delay_seconds)
                        continue
                    if verdict.kind == "skip":
                        self.engine.notify("activity_skipped", self, activity, fault)
                        if span is not None:
                            span.set_attribute("skipped_by", verdict.policy_name)
                        break
                    if verdict.kind == "replace":
                        assert verdict.replacement is not None
                        self.engine.notify(
                            "activity_replaced", self, activity, verdict.replacement
                        )
                        if span is not None:
                            span.add_event(
                                "replaced",
                                replacement=verdict.replacement.name,
                                policy=verdict.policy_name,
                            )
                        yield from self.run_activity(verdict.replacement)
                        break
                    raise  # pragma: no cover - unknown verdict kinds propagate
        except BaseException as error:
            if span is not None and not span.ended:
                span.end(status="error")
            # The frame exited without completing — tell listeners (the
            # journal needs the active-set discard; flow-cancellation tests
            # pin the Interrupt ordering).
            self.engine.notify(
                "activity_cancelled", self, activity, isinstance(error, Interrupt)
            )
            raise
        finally:
            self.active_activities.discard(activity.name)
        if span is not None:
            span.end()
        credits = self._replay_credits
        if credits is not None and credits.get(activity.name):
            # A composite that had completed before the checkpoint just
            # re-interpreted itself (its leaves fast-forwarded): account
            # for it as replayed, not as a fresh completion.
            self._consume_replay_credit(activity)
        else:
            self.completion_counts[activity.name] = (
                self.completion_counts.get(activity.name, 0) + 1
            )
            self._maybe_register_saga_step(activity, replayed=False)
            self.engine.notify("activity_completed", self, activity)

    def _consume_replay_credit(self, activity: Activity) -> None:
        credits = self._replay_credits
        assert credits is not None
        remaining = credits[activity.name] - 1
        if remaining > 0:
            credits[activity.name] = remaining
        else:
            del credits[activity.name]
        if not credits:
            self._replay_credits = None
        self.executed_activities.add(activity.name)
        self.completion_counts[activity.name] = (
            self.completion_counts.get(activity.name, 0) + 1
        )
        self._maybe_register_saga_step(activity, replayed=True)
        self.engine.notify("activity_replayed", self, activity)

    def _gate(self) -> Generator:
        """Block while suspended; honor pending termination requests."""
        while True:
            if (
                self._terminate_reason is not None
                and self.status != InstanceStatus.TERMINATED
                and not self._compensating
            ):
                # A compensation chain already unwinding for this terminate
                # must run to completion; re-raising here would abort it.
                raise ProcessTerminated(self._terminate_reason)
            if self.status != InstanceStatus.SUSPENDED:
                return
            assert self._resume_event is not None
            yield self._resume_event

    # -- external control (used by MASC and wsBus coordination) ---------------------

    def suspend(self) -> None:
        """Pause at the next activity boundary (idempotent)."""
        if self.status.is_final or self.status == InstanceStatus.SUSPENDED:
            return
        self.status = InstanceStatus.SUSPENDED
        self._resume_event = self.env.event()
        if self.span is not None:
            self.span.add_event("suspended")
        self.engine.notify("instance_suspended", self)

    def resume(self) -> None:
        """Continue a suspended instance (idempotent)."""
        if self.status != InstanceStatus.SUSPENDED:
            return
        self.status = InstanceStatus.RUNNING
        event, self._resume_event = self._resume_event, None
        if event is not None:
            event.succeed()
        if self.span is not None:
            self.span.add_event("resumed")
        self.engine.notify("instance_resumed", self)

    def terminate(self, reason: str = "terminated externally") -> None:
        """Request termination at the next activity boundary."""
        if self.status.is_final:
            return
        self._terminate_reason = reason
        if self.status == InstanceStatus.SUSPENDED:
            self.resume()

    def extend_timeout(self, activity_name: str, extra_seconds: float) -> bool:
        """Push out a pending deadline (cross-layer coordination).

        Returns True if a pending deadline existed and was extended.
        """
        handle = self._deadlines.get(activity_name)
        if handle is None or not handle.active:
            return False
        handle.extend(extra_seconds)
        if self.span is not None:
            self.span.add_event(
                "timeout_extended", activity=activity_name, extra_seconds=extra_seconds
            )
        self.engine.notify("timeout_extended", self, activity_name, extra_seconds)
        return True

    # -- invocation with extensible deadline ----------------------------------------

    def invoke_partner(
        self,
        activity: Activity,
        to: str,
        operation: str,
        payload: Element,
        timeout_seconds: float | None,
        padding: int = 0,
    ) -> Generator:
        """Send a request on behalf of an Invoke activity.

        The timeout is enforced here (not in the transport) so that it can
        be extended mid-flight via :meth:`extend_timeout`.
        """
        invoker = self.engine.invoker
        call = self.env.process(
            invoker.invoke(
                to=to,
                operation=operation,
                payload=payload,
                # The engine enforces its own *extensible* deadline below;
                # inf disables the invoker's fixed timer.
                timeout=float("inf"),
                process_instance_id=self.id,
                padding=padding,
            ),
            name=f"{self.id}:{activity.name}",
        )
        try:
            if timeout_seconds is None:
                response = yield call
            else:
                response = yield from self._await_with_deadline(
                    call, activity.name, timeout_seconds
                )
        except SoapFaultError as error:
            raise ProcessFault(error.fault, activity.name) from error
        except (ProcessFault, ProcessTerminated):
            raise
        except BaseException:
            # Abrupt unwinding (interrupt, crashed engine tear-down): nobody
            # will observe the call's outcome any more — keep a late failure
            # from surfacing as an unhandled simulation error.
            self._abandon(call, interrupt=False)
            raise
        return response

    def run_with_deadline(
        self, scope: Scope, body: Activity, timeout_seconds: float
    ) -> Generator:
        """Run a scope body racing an extensible deadline."""
        body_process = self.env.process(
            self.run_activity(body), name=f"{self.id}:scope:{scope.name}"
        )
        try:
            yield from self._await_with_deadline(
                body_process, scope.name, timeout_seconds, interrupt_on_expiry=True
            )
        except SoapFaultError as error:
            raise ProcessFault(error.fault, scope.name) from error

    def _await_with_deadline(
        self,
        awaited,
        activity_name: str,
        timeout_seconds: float,
        interrupt_on_expiry: bool = False,
    ) -> Generator:
        handle = DeadlineHandle(activity_name, self.env.now + timeout_seconds)
        self._deadlines[activity_name] = handle
        try:
            while True:
                remaining = handle.deadline - self.env.now
                if remaining <= 0:
                    self._abandon(awaited, interrupt_on_expiry)
                    raise ProcessFault(
                        SoapFault(
                            FaultCode.TIMEOUT,
                            f"activity {activity_name!r} exceeded its "
                            f"{timeout_seconds}s deadline",
                            source="process-engine",
                        ),
                        activity_name,
                    )
                timer = self.env.timeout(remaining)
                composite = self.env.any_of([awaited, timer])
                try:
                    outcome = yield composite
                except SoapFaultError:
                    raise
                except BaseException:
                    # Abrupt unwinding while racing the deadline: defuse the
                    # composite and abandon the awaited work so their later
                    # outcomes don't raise unattended in the simulation core.
                    composite.defused = True
                    self._abandon(awaited, interrupt_on_expiry)
                    raise
                finally:
                    # However the wait ended, its timer is done: one that has
                    # not fired must not sit in the kernel until the deadline.
                    timer.cancel()
                if awaited in outcome:
                    return outcome[awaited]
                # Timer fired; if the deadline moved, loop and keep waiting.
                if self.env.now >= handle.deadline:
                    self._abandon(awaited, interrupt_on_expiry)
                    raise ProcessFault(
                        SoapFault(
                            FaultCode.TIMEOUT,
                            f"activity {activity_name!r} exceeded its "
                            f"{timeout_seconds}s deadline",
                            source="process-engine",
                        ),
                        activity_name,
                    )
        finally:
            handle.active = False

    def _abandon(self, awaited, interrupt: bool) -> None:
        if awaited.is_alive:
            if interrupt:
                awaited.interrupt("deadline expired")
            else:
                awaited.callbacks.append(_defuse)
        elif not awaited.processed:
            awaited.defused = True

    # -- compensation ------------------------------------------------------------------

    def register_compensation(self, scope: Scope) -> None:
        """Register a completed scope's compensation activity."""
        owner = self._saga_stack[-1].name if self._saga_stack else None
        assert scope.compensation is not None
        self._compensations.append(
            CompensationEntry(scope.name, scope.compensation, owner)
        )
        replayed = bool(self._replay_credits and self._replay_credits.get(scope.name))
        self.engine.notify("saga_step_registered", self, owner, scope.name, replayed)

    def _maybe_register_saga_step(self, activity: Activity, replayed: bool) -> None:
        """Register ``activity``'s compensation if a saga scope maps it."""
        for saga in reversed(self._saga_stack):
            compensation = saga.compensations.get(activity.name)
            if compensation is not None:
                self._compensations.append(
                    CompensationEntry(activity.name, compensation, saga.name)
                )
                self.engine.notify(
                    "saga_step_registered", self, saga.name, activity.name, replayed
                )
                return

    def request_compensation(
        self, reason: str, scope: str | None = None, trace_parent=None
    ) -> bool:
        """Ask the instance to unwind its sagas (policy-driven backward
        recovery).

        The request surfaces as a ``ProcessFault`` at the next *live*
        activity boundary; the enclosing :class:`CompensationScope` turns
        it into a LIFO compensation chain. It is persisted in checkpoints,
        so a crash during the unwind replays the abort deterministically.
        Returns False if the instance already finished.
        """
        if self.status.is_final:
            return False
        self._compensation_request = (reason, scope)
        self._compensation_trace_parent = trace_parent
        if self.span is not None:
            self.span.add_event("compensation_requested", reason=reason)
        if self.status == InstanceStatus.SUSPENDED:
            self.resume()
        return True

    def compensate(self, scope: str | None = None, reason: str = "compensate") -> Generator:
        """Run registered compensations in reverse (LIFO) registration order.

        With ``scope`` set, only entries registered under that saga scope
        are popped. Compensation-activity spans nest under a
        ``process.compensation`` span parented on the triggering
        violation/enactment span when one is known.
        """
        span = None
        prev_span = self.span
        prev_compensating = self._compensating
        try:
            while True:
                index = None
                for i in range(len(self._compensations) - 1, -1, -1):
                    if scope is None or self._compensations[i].scope == scope:
                        index = i
                        break
                if index is None:
                    return
                entry = self._compensations.pop(index)
                if span is None and self.engine.tracer.enabled:
                    parent = self._compensation_trace_parent or self.span
                    span = self.engine.tracer.start_span(
                        "process.compensation",
                        correlation_id=self.id,
                        parent=parent,
                        attributes={"reason": reason, "scope": scope or ""},
                    )
                    self.span = span
                replayed = bool(
                    self._replay_credits
                    and self._replay_credits.get(entry.activity.name)
                )
                self.engine.notify("compensation_started", self, entry.step, replayed)
                self._compensating = True
                try:
                    yield from self.run_activity(entry.activity)
                finally:
                    self._compensating = prev_compensating
                self.engine.notify(
                    "activity_compensated", self, entry.step, entry.activity, replayed
                )
        finally:
            self._compensating = prev_compensating
            self.span = prev_span
            if span is not None and not span.ended:
                span.end()

    def compensate_completed_scopes(self, _requesting_scope: Scope) -> Generator:
        """Run registered compensations in reverse completion order."""
        yield from self.compensate(scope=None, reason=f"scope:{_requesting_scope.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcessInstance {self.id} {self.definition_name!r} {self.status.value}>"


def _defuse(event) -> None:
    event.defused = True
