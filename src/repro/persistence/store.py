"""Append-only JSONL checkpoint store.

The durable medium of the persistence layer: every record — full instance
checkpoints and modification-journal entries — is appended as one JSON line
with a monotonically increasing ``seq``. Recovery reads the latest
checkpoint for an instance and replays any journal entries recorded after
it. The store works purely in memory by default; give it a ``path`` to
mirror every record to disk and to reload records written by a previous
process (the crash being recovered from).
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import IO, Any, Iterable

__all__ = ["CHECKPOINT", "EVENT", "MODIFICATION", "CheckpointStore"]

#: Record types.
CHECKPOINT = "checkpoint"
MODIFICATION = "modification"
EVENT = "event"


class CheckpointStore:
    """Append-only record log, optionally mirrored to a JSONL file.

    A file-backed store holds one **line-buffered** append handle, opened
    by the first :meth:`append`: every record is written as one complete
    line and reaches the OS before ``append`` returns, so an acknowledged
    record survives the store being dropped without :meth:`close`.
    ``fsync=True`` additionally fsyncs the file after every append, so a
    host crash cannot leave a record half-acknowledged. Either way, a
    truncated *trailing* line (a crash mid-write) is dropped with a
    warning on reload — matching ``read_spans_jsonl`` semantics — while
    corruption anywhere earlier in the file still raises. Usable as a
    context manager; :meth:`close` releases the handle and is idempotent.

    Per-instance queries (:meth:`latest_checkpoint`, :meth:`journal_after`,
    ``records(instance_id=...)``, :meth:`instance_ids`) read a per-instance
    index kept up to date by :meth:`append` and by reload, so their cost
    follows one instance's records, not the whole log.
    """

    def __init__(self, path: str | Path | None = None, fsync: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self._records: list[dict[str, Any]] = []
        #: The same record objects, per ``instance_id``, in seq order.
        self._by_instance: dict[Any, list[dict[str, Any]]] = {}
        #: Instances with a checkpoint, keyed in first-checkpoint order.
        self._checkpointed: dict[Any, None] = {}
        self._handle: IO[str] | None = None
        self._seq = 0
        if self.path is not None and self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                lines = handle.readlines()
            for number, line in enumerate(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    self._index(json.loads(line))
                except json.JSONDecodeError:
                    if number == len(lines) - 1:
                        warnings.warn(
                            f"ignoring truncated trailing checkpoint record "
                            f"({len(line)} bytes)",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        break
                    raise
            if self._records:
                self._seq = max(record["seq"] for record in self._records)

    # -- writing ------------------------------------------------------------------

    def _index(self, record: dict[str, Any]) -> None:
        instance_id = record.get("instance_id")
        self._records.append(record)
        self._by_instance.setdefault(instance_id, []).append(record)
        if record.get("type") == CHECKPOINT:
            self._checkpointed.setdefault(instance_id, None)

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Append one record; assigns and returns it with its ``seq``."""
        self._seq += 1
        stamped = dict(record)
        stamped["seq"] = self._seq
        self._index(stamped)
        if self.path is not None:
            if self._handle is None:
                # buffering=1 == line buffered: each record line reaches the
                # OS as soon as it is complete, with or without close().
                self._handle = self.path.open("a", encoding="utf-8", buffering=1)
            self._handle.write(json.dumps(stamped, sort_keys=True) + "\n")
            if self.fsync:
                self._handle.flush()
                os.fsync(self._handle.fileno())
        return stamped

    def close(self) -> None:
        """Release the file handle (idempotent); records stay readable."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ------------------------------------------------------------------

    def records(
        self, instance_id: str | None = None, record_type: str | None = None
    ) -> list[dict[str, Any]]:
        """All records, optionally filtered by instance and/or type."""
        if instance_id is None:
            candidates = self._records
        else:
            candidates = self._by_instance.get(instance_id, [])
        return [
            record
            for record in candidates
            if record_type is None or record.get("type") == record_type
        ]

    def instance_ids(self) -> list[str]:
        """Instances with at least one checkpoint, in first-seen order."""
        return list(self._checkpointed)

    def latest_checkpoint(self, instance_id: str) -> dict[str, Any] | None:
        """The most recent checkpoint record for an instance, if any."""
        for record in reversed(self._by_instance.get(instance_id, [])):
            if record.get("type") == CHECKPOINT:
                return record
        return None

    def journal_after(self, instance_id: str, seq: int) -> list[dict[str, Any]]:
        """Modification-journal records for ``instance_id`` newer than ``seq``."""
        return [
            record
            for record in self._by_instance.get(instance_id, [])
            if record.get("type") == MODIFICATION and record["seq"] > seq
        ]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterable[dict[str, Any]]:
        return iter(list(self._records))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path is not None else "memory"
        return f"<CheckpointStore {where} records={len(self._records)}>"
