"""Event-sourced process journal: derive snapshots by replaying events.

The persistence layer appends a domain-event record (``type: "event"``)
for every instance state transition — ``activity_started`` /
``activity_completed`` / ``activity_compensated``, ``variable_set``,
``saga_step_registered``, ``modification_applied``, ... — alongside the
boundary checkpoints. Checkpoints are thereby *derived* state: replaying
the event journal up to a checkpoint's sequence number reconstructs the
checkpoint payload byte-identically (:func:`verify_journal` asserts
exactly that). Crash recovery, saga replay and the modification journal
all read the same log.

Event kinds and their state effects:

====================== =====================================================
``instance_created``   genesis — full snapshot of the fresh instance
``instance_rehydrated``genesis — full snapshot of the rehydrated instance
``activity_started``   ``executed`` += activity, ``active`` += activity
``activity_completed`` ``active`` -= activity, ``completions[activity]`` += 1
``activity_replayed``  like completed, plus ``executed`` += activity
``activity_cancelled`` ``active`` -= activity (abrupt unwind)
``saga_step_registered`` ``compensations`` append(step)
``compensation_started`` ``compensations`` pop last occurrence of step
``activity_compensated`` narrative only (undo ran to completion)
``variable_set``       ``variables[name] = value`` (encoded form)
``variable_deleted``   ``variables`` drop name
``result_set``         ``result = value``
``fault_set``          ``fault = value``
``status_changed``     ``status = value``
``compensation_request_set`` pending policy request recorded / cleared
``modification_applied`` apply operations to the tree, bindings to variables
``journal_truncated``  the writer could not journal further events; snapshot
                       derivation is unsound past this point
====================== =====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.orchestration.activities import Activity
from repro.orchestration.modification import ModificationOperation, perform_operation
from repro.orchestration.xmlio import (
    ProcessSerializationError,
    parse_activity,
    serialize_activity,
)
from repro.persistence.store import CHECKPOINT, EVENT, CheckpointStore
from repro.xmlutils import XmlError

__all__ = [
    "DerivedState",
    "JournalError",
    "apply_event",
    "derive_snapshot",
    "journal_events",
    "verify_journal",
]


class JournalError(RuntimeError):
    """The event journal cannot be replayed into a snapshot."""


@dataclass
class DerivedState:
    """Instance state reconstructed purely from journal events.

    All values are kept in their *encoded* (JSON) forms, exactly as a
    checkpoint record stores them, so :meth:`snapshot` is byte-comparable
    with a live ``capture_checkpoint`` payload.
    """

    instance_id: str
    definition: str = ""
    time: float = 0.0
    status: str = "running"
    tree: str = ""
    variables: dict[str, Any] = field(default_factory=dict)
    executed: set[str] = field(default_factory=set)
    active: set[str] = field(default_factory=set)
    completions: dict[str, int] = field(default_factory=dict)
    compensations: list[str] = field(default_factory=list)
    result: Any = None
    input: Any = None
    fault: Any = None
    compensation_request: Any = None
    #: True after a ``journal_truncated`` marker: the writer stopped
    #: journaling (non-serializable state), so derivation is unsound.
    tainted: bool = False
    #: Number of events applied so far.
    events_applied: int = 0
    #: ``seq`` of the record that last wrote ``tree``.
    tree_seq: int | None = None

    def root(self) -> Activity:
        """``tree``, parsed. A journal file is outside input: a malformed
        tree is a :class:`JournalError` naming the record that wrote it."""
        try:
            return parse_activity(self.tree)
        except (ProcessSerializationError, XmlError) as error:
            raise JournalError(f"record seq={self.tree_seq}: {error}") from error

    def snapshot(self) -> dict[str, Any]:
        """The state as a checkpoint-record payload (without ``seq``)."""
        return {
            "type": CHECKPOINT,
            "instance_id": self.instance_id,
            "definition": self.definition,
            "time": self.time,
            "status": self.status,
            "tree": self.tree,
            "variables": dict(self.variables),
            "executed": sorted(self.executed),
            "active": sorted(self.active),
            "completions": dict(self.completions),
            "compensations": list(self.compensations),
            "result": self.result,
            "input": self.input,
            "fault": self.fault,
            "compensation_request": self.compensation_request,
        }


def _load_genesis(state: DerivedState, data: dict[str, Any]) -> None:
    state.definition = data["definition"]
    state.status = data["status"]
    state.tree = data["tree"]
    state.variables = dict(data["variables"])
    state.executed = set(data["executed"])
    state.active = set(data["active"])
    state.completions = dict(data["completions"])
    state.compensations = list(data["compensations"])
    state.result = data["result"]
    state.input = data["input"]
    state.fault = data["fault"]
    state.compensation_request = data.get("compensation_request")


def apply_event(state: DerivedState, record: dict[str, Any]) -> DerivedState:
    """Fold one journal event record into the derived state (in place)."""
    kind = record["event"]
    data = record.get("data", {})
    state.time = record["time"]
    state.events_applied += 1
    if kind in ("instance_created", "instance_rehydrated"):
        _load_genesis(state, data)
        state.tree_seq = record.get("seq")
    elif kind == "activity_started":
        state.executed.add(data["activity"])
        state.active.add(data["activity"])
    elif kind == "activity_completed":
        state.active.discard(data["activity"])
        state.completions[data["activity"]] = (
            state.completions.get(data["activity"], 0) + 1
        )
    elif kind == "activity_replayed":
        state.executed.add(data["activity"])
        state.active.discard(data["activity"])
        state.completions[data["activity"]] = (
            state.completions.get(data["activity"], 0) + 1
        )
    elif kind == "activity_cancelled":
        state.active.discard(data["activity"])
    elif kind == "saga_step_registered":
        state.compensations.append(data["step"])
    elif kind == "compensation_started":
        step = data["step"]
        for index in range(len(state.compensations) - 1, -1, -1):
            if state.compensations[index] == step:
                del state.compensations[index]
                break
    elif kind == "activity_compensated":
        pass  # narrative only; the pop happened at compensation_started
    elif kind == "variable_set":
        state.variables[data["name"]] = data["value"]
    elif kind == "variable_deleted":
        state.variables.pop(data["name"], None)
    elif kind == "result_set":
        state.result = data["value"]
    elif kind == "fault_set":
        state.fault = data["value"]
    elif kind == "status_changed":
        state.status = data["status"]
    elif kind == "compensation_request_set":
        state.compensation_request = data["value"]
    elif kind == "modification_applied":
        root = state.root()
        state.tree_seq = record.get("seq")
        try:
            for encoded in data["operations"]:
                perform_operation(root, ModificationOperation.from_record(encoded))
        except ProcessSerializationError as error:
            raise JournalError(f"record seq={state.tree_seq}: {error}") from error
        state.tree = serialize_activity(root)
        state.variables.update(data.get("bindings", {}))
    elif kind == "journal_truncated":
        state.tainted = True
    else:
        raise JournalError(f"unknown journal event kind {kind!r}")
    return state


def journal_events(
    store: CheckpointStore, instance_id: str | None = None
) -> list[dict[str, Any]]:
    """All event records, optionally for one instance, in seq order."""
    return store.records(instance_id=instance_id, record_type=EVENT)


def derive_snapshot(
    store: CheckpointStore, instance_id: str, upto_seq: int | None = None
) -> DerivedState:
    """Replay the event journal for one instance into a derived state.

    ``upto_seq`` bounds the replay (inclusive): pass a checkpoint record's
    ``seq`` to reconstruct the state that checkpoint captured.
    """
    state = DerivedState(instance_id=instance_id)
    seen = False
    for record in journal_events(store, instance_id):
        if upto_seq is not None and record["seq"] > upto_seq:
            break
        apply_event(state, record)
        seen = True
    if not seen:
        raise JournalError(f"no journal events recorded for instance {instance_id!r}")
    return state


def verify_journal(
    store: CheckpointStore, instance_id: str | None = None
) -> list[dict[str, Any]]:
    """Check every checkpoint against its journal-derived snapshot.

    Returns a list of divergences (empty means every boundary snapshot is
    byte-identical to the journal replay and every genesis and checkpoint
    tree parses). Checkpoints past a ``journal_truncated`` marker are
    skipped — the writer stopped journaling on purpose there. Each distinct
    tree text is parsed once; one the strict reader rejects is a divergence
    of field ``tree`` at every record that holds it.
    """
    divergences: list[dict[str, Any]] = []
    #: tree text -> why the strict reader rejects it ("" when it parses).
    rejected: dict[str, str] = {}

    def check_tree(target: str, record: dict[str, Any], text: Any) -> None:
        if not isinstance(text, str):
            return  # no tree to parse; the field comparison reports it
        if text not in rejected:
            try:
                parse_activity(text)
                rejected[text] = ""
            except (ProcessSerializationError, XmlError) as error:
                rejected[text] = str(error)
        if rejected[text]:
            divergences.append(
                {
                    "instance_id": target,
                    "seq": record["seq"],
                    "field": "tree",
                    "detail": f"malformed tree: {rejected[text]}",
                }
            )

    instance_ids = [instance_id] if instance_id is not None else store.instance_ids()
    for target in instance_ids:
        state = DerivedState(instance_id=target)
        seen = False
        for record in store.records(instance_id=target):
            if record.get("type") == EVENT:
                if record["event"] in ("instance_created", "instance_rehydrated"):
                    check_tree(target, record, record["data"].get("tree"))
                apply_event(state, record)
                seen = True
                continue
            if record.get("type") != CHECKPOINT:
                continue
            if state.tainted:
                continue
            if not seen:
                divergences.append(
                    {
                        "instance_id": target,
                        "seq": record["seq"],
                        "field": "*",
                        "detail": "checkpoint precedes any journal event",
                    }
                )
                continue
            check_tree(target, record, record.get("tree"))
            stored = {key: value for key, value in record.items() if key != "seq"}
            derived = state.snapshot()
            if json.dumps(derived, sort_keys=True) != json.dumps(stored, sort_keys=True):
                for key in sorted(set(stored) | set(derived)):
                    if json.dumps(stored.get(key), sort_keys=True) != json.dumps(
                        derived.get(key), sort_keys=True
                    ):
                        divergences.append(
                            {
                                "instance_id": target,
                                "seq": record["seq"],
                                "field": key,
                                "detail": (
                                    f"stored={stored.get(key)!r} "
                                    f"derived={derived.get(key)!r}"
                                ),
                            }
                        )
    return divergences
