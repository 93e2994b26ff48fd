"""Durable process-instance persistence: dehydration and rehydration.

Reproduces the WF persistence-service role the paper's middleware depends
on: running compositions are dehydrated (checkpointed) at activity
boundaries and around suspend–modify–resume adaptation cycles, and can be
rehydrated into a fresh :class:`~repro.orchestration.WorkflowEngine` after
an engine crash, resuming mid-sequence with no lost or re-executed work.

- :class:`CheckpointStore` — append-only JSONL record log (memory or file).
- :class:`CheckpointingService` — engine runtime service appending a
  domain-event journal plus derived boundary checkpoints and a replayable
  modification journal, all in one log.
- :mod:`repro.persistence.journal` — event-sourcing core: replay the
  journal into a :class:`~repro.persistence.journal.DerivedState` and
  verify it byte-matches every stored checkpoint.
- :func:`rehydrate_instance` / ``WorkflowEngine.rehydrate`` — recovery.
- :mod:`repro.persistence.encoding` — structured variable encoding (the
  replacement for the old scalars-only snapshot filter).
"""

from repro.persistence.checkpoint import (
    CheckpointingService,
    PersistenceError,
    RestoredState,
    capture_checkpoint,
    rehydrate_instance,
    restore_state,
)
from repro.persistence.encoding import (
    StateEncodingError,
    decode_value,
    decode_variables,
    encode_value,
    encode_variables,
)
from repro.persistence.journal import (
    DerivedState,
    JournalError,
    apply_event,
    derive_snapshot,
    journal_events,
    verify_journal,
)
from repro.persistence.store import CHECKPOINT, EVENT, MODIFICATION, CheckpointStore

__all__ = [
    "CHECKPOINT",
    "EVENT",
    "MODIFICATION",
    "CheckpointStore",
    "CheckpointingService",
    "DerivedState",
    "JournalError",
    "PersistenceError",
    "RestoredState",
    "StateEncodingError",
    "apply_event",
    "capture_checkpoint",
    "decode_value",
    "decode_variables",
    "derive_snapshot",
    "encode_value",
    "encode_variables",
    "journal_events",
    "rehydrate_instance",
    "restore_state",
    "verify_journal",
]
