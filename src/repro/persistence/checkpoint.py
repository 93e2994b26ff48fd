"""Dehydration and rehydration of process instances.

This is the WF-style persistence service the paper's process layer relies
on: at every activity boundary (activity completion) and on suspension the
:class:`CheckpointingService` dehydrates the *complete* instance state —
activity tree, variables, execution cursor, compensation stack, pending
result — into an append-only :class:`~repro.persistence.store.CheckpointStore`.
Dynamic modifications applied between checkpoints land in the store as a
replayable journal of :class:`~repro.orchestration.modification.ModificationOperation`
records.

Recovery (:func:`rehydrate_instance`, surfaced as
``WorkflowEngine.rehydrate``) rebuilds a runnable instance in a *fresh*
engine from the latest checkpoint plus the journal tail, and schedules it
with replay credits: already-completed activities fast-forward (emitting
``activity_replayed`` instead of re-executing), so the instance resumes
mid-sequence without re-invoking partners whose effects are already in the
restored variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any
from weakref import WeakKeyDictionary

from repro.orchestration.activities import Activity, Scope
from repro.orchestration.definition import ProcessDefinition
from repro.orchestration.engine import RuntimeService, WorkflowEngine
from repro.orchestration.instance import InstanceStatus, ProcessInstance
from repro.orchestration.modification import ModificationOperation, perform_operation
from repro.orchestration.xmlio import (
    ProcessSerializationError,
    parse_activity,
    serialize_activity,
)
from repro.persistence.encoding import (
    StateEncodingError,
    decode_value,
    decode_variables,
    encode_value,
    encode_variables,
)
from repro.persistence.store import CHECKPOINT, EVENT, MODIFICATION, CheckpointStore

__all__ = [
    "CheckpointingService",
    "PersistenceError",
    "RestoredState",
    "capture_checkpoint",
    "rehydrate_instance",
    "restore_state",
]


class PersistenceError(RuntimeError):
    """Recovery failed: missing, unusable or final checkpoint state."""


#: One boundary's encoded ``(variables, result, fault)``.
EncodedState = tuple[dict[str, Any], Any, Any]


#: Dehydrated tree texts shared across instances: per definition, the text
#: of its tree after each journaled edit sequence (a ``tree_history``) an
#: instance has been checkpointed with. Entries die with the definition.
#: Like the history itself, the memo relies on a definition's tree never
#: being edited in place once instances have started from it.
_TREE_TEXTS: "WeakKeyDictionary[ProcessDefinition, dict[tuple, str]]" = WeakKeyDictionary()


def _dehydrated_tree(instance: ProcessInstance) -> str:
    """The instance tree as XML, serialised once per tree revision, and
    once per modification history across the instances that share one."""
    memo = instance._dehydrated_tree
    revision = instance.tree_revision
    root = instance.root
    if memo is not None and memo[0] is root and memo[1] == revision:
        return memo[2]
    history = instance.tree_history
    if history is None or history[0] is not root:
        text = serialize_activity(root)
    else:
        texts = _TREE_TEXTS.setdefault(history[1], {})
        text = texts.get(history[2])
        if text is None:
            text = texts[history[2]] = serialize_activity(root)
    instance._dehydrated_tree = (root, revision, text)
    return text


def _encode_state(instance: ProcessInstance) -> EncodedState:
    return (
        encode_variables(instance.variables),
        encode_value(instance.result),
        encode_value(instance.fault),
    )


def capture_checkpoint(
    instance: ProcessInstance, state: EncodedState | None = None
) -> dict[str, Any]:
    """Dehydrate one instance into a checkpoint record payload.

    ``state`` is the encoding of the instance's variables, result and fault
    when the caller already produced it at this boundary (no process code
    may have run since); otherwise it is encoded here.

    Raises :class:`~repro.orchestration.xmlio.ProcessSerializationError` if
    the activity tree is not fully declarative, or
    :class:`~repro.persistence.encoding.StateEncodingError` if a variable
    cannot be encoded — dehydration never silently drops state.
    """
    tree = _dehydrated_tree(instance)
    variables, result, fault = state if state is not None else _encode_state(instance)
    return {
        "type": CHECKPOINT,
        "instance_id": instance.id,
        "definition": instance.definition_name,
        "time": instance.env.now,
        "status": instance.status.value,
        "tree": tree,
        "variables": variables,
        "executed": sorted(instance.executed_activities),
        "active": sorted(instance.active_activities),
        "completions": dict(instance.completion_counts),
        "compensations": [entry.step for entry in instance._compensations],
        "result": result,
        "input": encode_value(instance.input),
        "fault": fault,
        "compensation_request": (
            None
            if instance._compensation_request is None
            else list(instance._compensation_request)
        ),
    }


class CheckpointingService(RuntimeService):
    """Runtime service that dehydrates instances into a checkpoint store.

    Checkpoints are written at every activity completion, on suspension and
    at instance finalization; applied tree modifications are journaled.
    Counters (``persistence.checkpoints``, ``persistence.journal_records``,
    ``persistence.checkpoint_errors``) and ``persistence.checkpoint`` spans
    are exported through the engine's observability bindings.
    """

    def __init__(self, store: CheckpointStore | None = None, strict: bool = False) -> None:
        self.store = store if store is not None else CheckpointStore()
        #: Strict mode re-raises dehydration errors; the default counts and
        #: skips them so a non-serializable test process cannot take the
        #: whole engine down.
        self.strict = strict
        self.errors: list[tuple[str, str]] = []
        self._engine: WorkflowEngine | None = None
        #: Per-instance mirror of the last journaled variable/result/status
        #: state, in encoded form — the diff basis for ``variable_set`` &co.
        self._mirrors: dict[str, dict[str, Any]] = {}
        #: Instances whose state stopped being journalable (the journal
        #: carries a ``journal_truncated`` marker for them).
        self._tainted: set[str] = set()

    def attached(self, engine: WorkflowEngine) -> None:
        self._engine = engine

    # -- hook wiring --------------------------------------------------------------

    def instance_created(self, instance) -> None:
        self._genesis(instance, "instance_created")

    def instance_rehydrated(self, instance) -> None:
        self._genesis(instance, "instance_rehydrated")

    def activity_started(self, instance, activity) -> None:
        self._sync(instance)
        self._emit(instance, "activity_started", {"activity": activity.name})

    def activity_restarted(self, instance, activity) -> None:
        self._sync(instance)
        self._emit(
            instance, "activity_started", {"activity": activity.name, "replayed": True}
        )

    def activity_completed(self, instance, activity) -> None:
        state = self._sync(instance)
        self._emit(instance, "activity_completed", {"activity": activity.name})
        self._checkpoint(instance, f"activity:{activity.name}", state)

    def activity_replayed(self, instance, activity) -> None:
        self._sync(instance)
        self._emit(instance, "activity_replayed", {"activity": activity.name})

    def activity_cancelled(self, instance, activity, interrupted) -> None:
        self._sync(instance)
        self._emit(
            instance,
            "activity_cancelled",
            {"activity": activity.name, "interrupted": bool(interrupted)},
        )

    def saga_step_registered(self, instance, scope_name, step_name, replayed) -> None:
        self._sync(instance)
        self._emit(
            instance,
            "saga_step_registered",
            {"scope": scope_name, "step": step_name, "replayed": bool(replayed)},
        )

    def compensation_started(self, instance, step_name, replayed) -> None:
        self._sync(instance)
        self._emit(
            instance,
            "compensation_started",
            {"step": step_name, "replayed": bool(replayed)},
        )

    def activity_compensated(self, instance, step_name, activity, replayed) -> None:
        self._sync(instance)
        self._emit(
            instance,
            "activity_compensated",
            {"step": step_name, "activity": activity.name, "replayed": bool(replayed)},
        )

    def instance_suspended(self, instance) -> None:
        self._checkpoint(instance, "suspended", self._sync(instance))

    def instance_resumed(self, instance) -> None:
        self._sync(instance)

    def instance_completed(self, instance) -> None:
        self._checkpoint(instance, "completed", self._sync(instance))

    def instance_faulted(self, instance) -> None:
        self._checkpoint(instance, "faulted", self._sync(instance))

    def instance_terminated(self, instance) -> None:
        self._checkpoint(instance, "terminated", self._sync(instance))

    def instance_modified(self, instance, operations, bindings) -> None:
        self._journal(instance, operations, bindings)

    # -- event journal ------------------------------------------------------------

    def _emit(self, instance: ProcessInstance, kind: str, data: dict[str, Any]) -> None:
        """Append one domain-event record for ``instance``."""
        if instance.id in self._tainted:
            return
        if instance.id not in self._mirrors and kind not in (
            "instance_created",
            "instance_rehydrated",
        ):
            # The service was attached after the instance started: open the
            # journal with a genesis snapshot so derivation has a basis.
            self._genesis(instance, "instance_created")
            if instance.id in self._tainted:
                return
        assert self._engine is not None
        self.store.append(
            {
                "type": EVENT,
                "instance_id": instance.id,
                "time": instance.env.now,
                "event": kind,
                "data": data,
            }
        )
        self._engine.metrics.counter("persistence.journal_events").inc()

    def _genesis(self, instance: ProcessInstance, kind: str) -> EncodedState | None:
        """Open an instance's journal with a full snapshot event."""
        if instance.id in self._tainted:
            return None
        try:
            payload = capture_checkpoint(instance)
        except (ProcessSerializationError, StateEncodingError) as error:
            self._taint(instance, error)
            return None
        data = {key: value for key, value in payload.items() if key != "type"}
        self._mirrors[instance.id] = {
            "variables": dict(payload["variables"]),
            "result": payload["result"],
            "fault": payload["fault"],
            "status": payload["status"],
            "request": payload["compensation_request"],
        }
        self._emit(instance, kind, data)
        return payload["variables"], payload["result"], payload["fault"]

    def _sync(self, instance: ProcessInstance) -> EncodedState | None:
        """Emit delta events for state that changed since the last sync.

        Returns the encoding it diffed, for the checkpoint that follows at
        the same boundary, or None when nothing was encoded.
        """
        if instance.id in self._tainted:
            return None
        mirror = self._mirrors.get(instance.id)
        if mirror is None:
            return self._genesis(instance, "instance_created")
        try:
            state = _encode_state(instance)
        except StateEncodingError as error:
            self._taint(instance, error)
            return None
        variables, result, fault = state
        for name, value in variables.items():
            if name not in mirror["variables"] or mirror["variables"][name] != value:
                self._emit(instance, "variable_set", {"name": name, "value": value})
                mirror["variables"][name] = value
        for name in list(mirror["variables"]):
            if name not in variables:
                self._emit(instance, "variable_deleted", {"name": name})
                del mirror["variables"][name]
        if result != mirror["result"]:
            self._emit(instance, "result_set", {"value": result})
            mirror["result"] = result
        if fault != mirror["fault"]:
            self._emit(instance, "fault_set", {"value": fault})
            mirror["fault"] = fault
        if instance.status.value != mirror["status"]:
            self._emit(instance, "status_changed", {"status": instance.status.value})
            mirror["status"] = instance.status.value
        request = (
            None
            if instance._compensation_request is None
            else list(instance._compensation_request)
        )
        if request != mirror["request"]:
            self._emit(instance, "compensation_request_set", {"value": request})
            mirror["request"] = request
        return state

    def _taint(self, instance: ProcessInstance, error: Exception) -> None:
        """Stop journaling an instance whose state cannot be encoded."""
        assert self._engine is not None
        if instance.id not in self._tainted:
            self.store.append(
                {
                    "type": EVENT,
                    "instance_id": instance.id,
                    "time": instance.env.now,
                    "event": "journal_truncated",
                    "data": {"reason": str(error)},
                }
            )
            self._tainted.add(instance.id)
            self._engine.metrics.counter("persistence.journal_errors").inc()

    # -- record writers -----------------------------------------------------------

    def _checkpoint(
        self, instance: ProcessInstance, reason: str, state: EncodedState | None = None
    ) -> None:
        assert self._engine is not None
        engine = self._engine
        span = None
        if engine.tracer.enabled:
            span = engine.tracer.start_span(
                "persistence.checkpoint",
                correlation_id=instance.id,
                parent=instance.span,
                attributes={"reason": reason},
            )
        try:
            record = capture_checkpoint(instance, state)
        except (ProcessSerializationError, StateEncodingError) as error:
            engine.metrics.counter("persistence.checkpoint_errors").inc()
            self.errors.append((instance.id, str(error)))
            if span is not None:
                span.end(status=f"error:{type(error).__name__}")
            if self.strict:
                raise PersistenceError(
                    f"cannot dehydrate instance {instance.id}: {error}"
                ) from error
            return
        stamped = self.store.append(record)
        engine.metrics.counter("persistence.checkpoints").inc()
        if span is not None:
            span.set_attribute("seq", stamped["seq"])
            span.end(status="written")

    def _journal(self, instance: ProcessInstance, operations, bindings) -> None:
        assert self._engine is not None
        engine = self._engine
        try:
            encoded_ops = [operation.to_record() for operation in operations]
            encoded_bindings = encode_variables(dict(bindings))
        except (ProcessSerializationError, StateEncodingError) as error:
            # A non-serializable operation (callable-based activity): the
            # live tree already reflects the edit, so a full checkpoint
            # supersedes the journal entry. Snapshot derivation is unsound
            # past this point, so the event journal is marked truncated.
            self._taint(instance, error)
            self._checkpoint(instance, reason="modification-fallback")
            return
        self._sync(instance)
        self._emit(
            instance,
            "modification_applied",
            {"operations": encoded_ops, "bindings": encoded_bindings},
        )
        self.store.append(
            {
                "type": MODIFICATION,
                "instance_id": instance.id,
                "time": instance.env.now,
                "operations": encoded_ops,
                "bindings": encoded_bindings,
            }
        )
        engine.metrics.counter("persistence.journal_records").inc()


@dataclass
class RestoredState:
    """Decoded recovery state: latest checkpoint + replayed journal tail."""

    instance_id: str
    definition_name: str
    status: str
    root: Activity
    variables: dict[str, Any]
    executed: set[str]
    active: set[str]
    completions: dict[str, int]
    compensations: list[str]
    result: Any
    input: Any
    checkpoint_seq: int
    checkpoint_time: float
    journal_entries: int = 0
    fault: Any = None
    compensation_request: tuple[str, str | None] | None = None
    field_errors: list[str] = field(default_factory=list)


def restore_state(store: CheckpointStore, instance_id: str) -> RestoredState:
    """Rebuild recovery state from the latest checkpoint plus the journal."""
    checkpoint = store.latest_checkpoint(instance_id)
    if checkpoint is None:
        raise PersistenceError(f"no checkpoint recorded for instance {instance_id!r}")
    root = parse_activity(checkpoint["tree"])
    variables = decode_variables(checkpoint["variables"])
    journal = store.journal_after(instance_id, checkpoint["seq"])
    for record in journal:
        for encoded in record["operations"]:
            perform_operation(root, ModificationOperation.from_record(encoded))
        variables.update(decode_variables(record.get("bindings", {})))
    return RestoredState(
        instance_id=instance_id,
        definition_name=checkpoint["definition"],
        status=checkpoint["status"],
        root=root,
        variables=variables,
        executed=set(checkpoint["executed"]),
        active=set(checkpoint["active"]),
        completions=dict(checkpoint["completions"]),
        compensations=list(checkpoint["compensations"]),
        result=decode_value(checkpoint["result"]),
        input=decode_value(checkpoint["input"]),
        checkpoint_seq=checkpoint["seq"],
        checkpoint_time=checkpoint["time"],
        journal_entries=len(journal),
        fault=decode_value(checkpoint.get("fault")),
        compensation_request=(
            None
            if checkpoint.get("compensation_request") is None
            else (
                checkpoint["compensation_request"][0],
                checkpoint["compensation_request"][1],
            )
        ),
    )


def rehydrate_instance(
    engine: WorkflowEngine, store: CheckpointStore, instance_id: str
) -> ProcessInstance:
    """Reconstruct a checkpointed instance in ``engine`` and schedule it."""
    if engine.crashed:
        raise PersistenceError("cannot rehydrate into a crashed engine")
    existing = engine.instances.get(instance_id)
    if existing is not None and not existing.status.is_final:
        raise PersistenceError(f"instance {instance_id!r} is already live in this engine")
    state = restore_state(store, instance_id)
    if state.status in ("completed", "faulted", "terminated"):
        raise PersistenceError(
            f"instance {instance_id!r} already reached final status {state.status!r}"
        )
    instance = ProcessInstance(
        engine=engine,
        instance_id=state.instance_id,
        definition_name=state.definition_name,
        root=state.root,
        variables=state.variables,
        input=state.input,
    )
    instance.result = state.result
    instance.executed_activities = set(state.executed)
    instance._replayed_started = frozenset(state.executed)
    # Activities in flight at the checkpoint re-execute for real; anything
    # started-but-not-active had already faulted or been cancelled, so its
    # deterministic re-fault during replay is bookkeeping, not news.
    instance._replayed_active = frozenset(state.active)
    instance._replay_credits = dict(state.completions) or None
    # A pending policy-requested compensation replays deterministically: it
    # re-raises at the first live (uncredited) activity boundary, which is
    # exactly where the pre-crash run aborted.
    instance._compensation_request = state.compensation_request
    # Completion counts are rebuilt credit-by-credit during replay, so a
    # later checkpoint of the recovered run stays self-consistent.
    instance.completion_counts = {}
    for scope_name in state.compensations:
        # Compensations re-register in order as their scopes replay; this
        # pre-pass only matters for scopes whose subtree was later removed
        # by a modification (their replay will never re-run).
        found = instance.find_activity(scope_name)
        if found is None:
            state.field_errors.append(f"compensation scope {scope_name!r} missing")
    if state.status == InstanceStatus.SUSPENDED.value:
        instance.status = InstanceStatus.SUSPENDED
        instance._resume_event = engine.env.event()
    engine.instances[instance.id] = instance
    engine.metrics.counter("engine.instances.rehydrated").inc()
    if engine.tracer.enabled:
        instance.span = engine.tracer.start_span(
            "process.instance",
            correlation_id=instance.id,
            attributes={
                "process": state.definition_name,
                "rehydrated": True,
                "checkpoint_seq": state.checkpoint_seq,
                "journal_entries": state.journal_entries,
            },
        )
    engine.notify("instance_rehydrated", instance)
    instance.process = engine.env.process(
        instance.run(), name=f"instance:{instance.id}:rehydrated"
    )
    return instance
