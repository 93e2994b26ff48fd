"""Dynamic modification of running process instances.

Reproduces the WF-based mechanism the paper describes: the adaptation
service "asks the WF runtime engine for a description of the process to be
adapted and gets back a **transient copy** of the process' object
representation. For this copy, MASCAdaptationService performs the changes
specified in the policies... When MASCAdaptationService passes the modified
copy back to the WF runtime, the latter **applies the changes** using
built-in algorithms."

The :class:`ProcessModifier` hands out that transient copy, records each
edit as an operation, performs it immediately on the copy (so the caller
can inspect the result), and on :meth:`~ProcessModifier.apply` replays the
operations onto the live instance tree after validating them against the
instance's execution state:

- the instance must be suspended, or not yet have executed any activity
  (static customization happens between creation and the first activity);
- activities that are *currently executing* cannot be removed or replaced;
- an insertion anchored *before* an already-executed activity is rejected —
  it could only execute out of order.

Edits on composites that are mid-execution take effect because sequences
re-read their child lists on every scheduling step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.orchestration.activities import Activity
from repro.orchestration.errors import ModificationError
from repro.orchestration.instance import InstanceStatus, ProcessInstance
from repro.orchestration.xmlio import (
    ProcessSerializationError,
    parse_activity,
    serialize_activity,
)

__all__ = [
    "ModificationOperation",
    "ProcessModifier",
    "find_with_parent",
    "perform_operation",
]


@dataclass(frozen=True)
class ModificationOperation:
    """One staged tree edit; the unit the persistence journal replays."""

    kind: str  # insert_before | insert_after | append_to | remove | replace
    anchor: str
    activity: Activity | None = None

    def to_record(self) -> dict[str, Any]:
        """The JSON form the persistence journal stores, encoded once: the
        instance's tree history and the journal read the same dict, so
        callers must not mutate it."""
        record = self.__dict__.get("_record")
        if record is None:
            activity = None if self.activity is None else serialize_activity(self.activity)
            record = {"kind": self.kind, "anchor": self.anchor, "activity": activity}
            object.__setattr__(self, "_record", record)
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ModificationOperation":
        """The operation a :meth:`to_record` dict describes."""
        activity = record["activity"]
        return cls(
            record["kind"],
            record["anchor"],
            None if activity is None else parse_activity(activity),
        )


def find_with_parent(
    root: Activity, name: str
) -> tuple[Activity | None, Activity | None]:
    """The named activity and its parent composite, or (None, None)."""
    if root.name == name:
        return root, None
    for activity in root.iter_tree():
        for child in activity.children():
            if child.name == name:
                return child, activity
    return None, None


def _child_list(
    parent: Activity, context: str, holding: Activity | None = None
) -> list[Activity]:
    """The mutable list slot of ``parent`` (the one ``holding`` a given child)."""
    for slot in parent.slots:
        children = getattr(parent, slot.name)
        if slot.kind == "list" and (holding is None or holding in children):
            return children
    raise ModificationError(
        f"{context}: parent {parent.name!r} is a {type(parent).__name__}; "
        "only the children of a list slot (Sequence, Flow) can be edited positionally"
    )


class ProcessModifier:
    """Stages and applies edits to one process instance."""

    def __init__(self, instance: ProcessInstance) -> None:
        self.instance = instance
        #: The transient copy of the process object representation.
        self.tree = instance.root.copy()
        self._operations: list[ModificationOperation] = []
        self._variable_bindings: dict[str, Any] = {}
        self.applied = False

    # -- edit operations (performed on the transient copy immediately) ------------

    def insert_before(self, anchor_name: str, activity: Activity) -> None:
        """Insert ``activity`` immediately before the named anchor."""
        self._stage(ModificationOperation("insert_before", anchor_name, activity))

    def insert_after(self, anchor_name: str, activity: Activity) -> None:
        """Insert ``activity`` immediately after the named anchor."""
        self._stage(ModificationOperation("insert_after", anchor_name, activity))

    def append_to(self, container_name: str, activity: Activity) -> None:
        """Append ``activity`` at the end of a Sequence/Flow container."""
        self._stage(ModificationOperation("append_to", container_name, activity))

    def remove(self, activity_name: str) -> None:
        """Remove the named activity from its parent container."""
        self._stage(ModificationOperation("remove", activity_name))

    def replace(self, activity_name: str, activity: Activity) -> None:
        """Replace the named activity with another one."""
        self._stage(ModificationOperation("replace", activity_name, activity))

    def bind_variables(self, bindings: dict[str, Any]) -> None:
        """Stage variable assignments (base↔variation parameter passing)."""
        self._variable_bindings.update(bindings)

    def _stage(self, operation: ModificationOperation) -> None:
        if self.applied:
            raise ModificationError("modifier already applied; create a new one")
        perform_operation(self.tree, operation)
        self._operations.append(operation)

    # -- applying to the live instance ------------------------------------------------

    def apply(self) -> None:
        """Validate and replay all staged operations onto the live tree."""
        if self.applied:
            raise ModificationError("modifier already applied")
        instance = self.instance
        history = instance.tree_history
        tracer = instance.engine.tracer
        span = None
        if tracer.enabled:
            span = tracer.start_span(
                "process.modification",
                correlation_id=instance.id,
                parent=instance.span,
                attributes={
                    "operations": len(self._operations),
                    "dynamic": bool(instance.executed_activities),
                },
            )
            for operation in self._operations:
                span.add_event("operation", kind=operation.kind, anchor=operation.anchor)
        try:
            if instance.status.is_final:
                raise ModificationError(
                    f"instance {instance.id} already {instance.status.value}"
                )
            started = bool(instance.executed_activities)
            if started and instance.status != InstanceStatus.SUSPENDED:
                raise ModificationError(
                    "dynamic modification requires the instance to be suspended "
                    "(MASC suspends, edits, then resumes)"
                )
            for operation in self._operations:
                self._validate_against_execution(operation)
            # Before the first edit: an apply that fails part-way has still
            # changed the live tree (and ended its history).
            instance.mark_tree_modified()
            for operation in self._operations:
                perform_operation(instance.root, operation)
        except BaseException as exc:
            if span is not None:
                span.end(status=f"error:{type(exc).__name__}")
            raise
        if history is not None:
            instance.tree_history = _extended(history, self._operations)
        instance.variables.update(self._variable_bindings)
        self.applied = True
        instance.engine.metrics.counter("engine.modifications.applied").inc()
        # Persistence journaling: runtime services (notably the checkpoint
        # service) record the applied operations so crash recovery can replay
        # them on top of the last dehydrated tree.
        instance.engine.notify(
            "instance_modified",
            instance,
            operations=tuple(self._operations),
            bindings=dict(self._variable_bindings),
        )
        if span is not None:
            span.end(status="applied")

    def _validate_against_execution(self, operation: ModificationOperation) -> None:
        instance = self.instance
        if operation.kind in ("remove", "replace"):
            if operation.anchor in instance.active_activities:
                raise ModificationError(
                    f"cannot {operation.kind} activity {operation.anchor!r} "
                    "while it is executing"
                )
            target = instance.find_activity(operation.anchor)
            if target is not None:
                active_descendants = {
                    child.name for child in target.iter_tree()
                } & instance.active_activities
                if active_descendants:
                    raise ModificationError(
                        f"cannot {operation.kind} {operation.anchor!r}: descendants "
                        f"{sorted(active_descendants)} are executing"
                    )
        if operation.kind == "insert_before" and (
            operation.anchor in instance.executed_activities
        ):
            raise ModificationError(
                f"cannot insert before {operation.anchor!r}: it already executed "
                "(the insertion could only run out of order)"
            )
        if (
            operation.kind == "replace"
            and operation.anchor in instance.executed_activities
            and operation.activity is not None
            and operation.activity.name != operation.anchor
        ):
            # A replacement under a *new* name is not in the enclosing
            # sequence's completed set, so the scheduler would run it now —
            # after activities that followed the executed anchor. A same-name
            # replacement is safe: it inherits the anchor's completed status.
            raise ModificationError(
                f"cannot replace executed activity {operation.anchor!r} with "
                f"{operation.activity.name!r}: the renamed replacement would "
                "re-execute out of order"
            )


def _extended(history: tuple, operations: list[ModificationOperation]) -> tuple | None:
    """``history`` plus the records of ``operations``; None when one of them
    cannot be recorded (the journal taints the instance for the same op)."""
    try:
        records = [operation.to_record() for operation in operations]
    except ProcessSerializationError:
        return None
    root, definition, edits = history
    return root, definition, edits + tuple(
        (record["kind"], record["anchor"], record["activity"]) for record in records
    )


def perform_operation(root: Activity, operation: ModificationOperation) -> None:
    """Apply one modification operation to an activity tree.

    Shared by :class:`ProcessModifier` (transient copy + live tree) and the
    persistence layer, which replays journaled operations onto a rehydrated
    tree during crash recovery.
    """
    if operation.activity is not None:
        clashes = {a.name for a in operation.activity.iter_tree()} & {
            a.name for a in root.iter_tree()
        }
        if operation.kind != "replace" and clashes:
            raise ModificationError(
                f"inserted activity names already exist in the process: {sorted(clashes)}"
            )
    if operation.kind == "append_to":
        container, _parent = find_with_parent(root, operation.anchor)
        if container is None:
            raise ModificationError(f"no container named {operation.anchor!r}")
        assert operation.activity is not None
        _child_list(container, "append_to").append(operation.activity.copy())
        return

    target, parent = find_with_parent(root, operation.anchor)
    if target is None:
        raise ModificationError(f"no activity named {operation.anchor!r}")
    if parent is None:
        raise ModificationError(f"cannot edit the process root {operation.anchor!r}")
    if operation.kind == "replace":
        assert operation.activity is not None
        replacement = operation.activity.copy()
        clashes = ({a.name for a in replacement.iter_tree()} - {target.name}) & (
            {a.name for a in root.iter_tree()} - {a.name for a in target.iter_tree()}
        )
        if clashes:
            raise ModificationError(
                f"replacement activity names already exist: {sorted(clashes)}"
            )
        parent.replace_child(target, replacement)
        return
    siblings = _child_list(parent, operation.kind, holding=target)
    if operation.kind == "remove":
        siblings.remove(target)
    elif operation.kind in ("insert_before", "insert_after"):
        assert operation.activity is not None
        after = operation.kind == "insert_after"
        siblings.insert(siblings.index(target) + after, operation.activity.copy())
    else:  # pragma: no cover - exhaustive
        raise ModificationError(f"unknown operation {operation.kind!r}")
