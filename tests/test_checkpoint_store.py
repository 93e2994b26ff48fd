"""``CheckpointStore``: the per-instance index and the held file handle."""

import pytest

from repro.orchestration import Empty, serialize_activity
from repro.persistence import (
    CHECKPOINT,
    EVENT,
    MODIFICATION,
    CheckpointStore,
    verify_journal,
)

INSTANCES = 300
#: ``verify_journal`` parses every genesis and checkpoint tree.
TREE = serialize_activity(Empty("t"))


class _CountingList(list):
    """The store's full record log, counting every record a scan visits."""

    visits = 0

    def __iter__(self):
        self.visits += len(self)
        return super().__iter__()

    def __reversed__(self):
        self.visits += len(self)
        return super().__reversed__()


class CountingStore(CheckpointStore):
    def __init__(self, path=None):
        super().__init__(path)
        self._records = _CountingList(self._records)

    @property
    def full_scan_visits(self):
        return self._records.visits


def _genesis(instance_id):
    return {
        "definition": "p",
        "status": "running",
        "tree": TREE,
        "variables": {},
        "executed": [],
        "active": [],
        "completions": {},
        "compensations": [],
        "result": None,
        "input": None,
        "fault": None,
        "compensation_request": None,
        "instance_id": instance_id,
        "time": 0.0,
    }


def populate(store, instances=INSTANCES):
    """Interleaved instances: genesis event, checkpoint, journal entry, checkpoint."""
    ids = [f"proc-{number:06d}" for number in range(instances)]
    for instance_id in ids:
        data = _genesis(instance_id)
        store.append(
            {
                "type": EVENT,
                "instance_id": instance_id,
                "time": 0.0,
                "event": "instance_created",
                "data": data,
            }
        )
    for instance_id in reversed(ids):
        store.append({"type": CHECKPOINT, **_genesis(instance_id)})
    for instance_id in ids:
        store.append({"type": MODIFICATION, "instance_id": instance_id, "operations": []})
        store.append({"type": CHECKPOINT, **_genesis(instance_id)})
    return ids


def reference_queries(records, ids):
    """The full-scan definitions the index must reproduce exactly."""
    per_instance = {}
    first_checkpointed = {}
    for record in records:
        per_instance.setdefault(record["instance_id"], []).append(record)
        if record["type"] == CHECKPOINT:
            first_checkpointed.setdefault(record["instance_id"], None)
    return {
        "instance_ids": list(first_checkpointed),
        "records": {i: per_instance[i] for i in ids},
        "latest": {
            i: [r for r in per_instance[i] if r["type"] == CHECKPOINT][-1] for i in ids
        },
        "journal": {
            i: [r for r in per_instance[i] if r["type"] == MODIFICATION] for i in ids
        },
    }


def indexed_queries(store, ids):
    return {
        "instance_ids": store.instance_ids(),
        "records": {i: store.records(instance_id=i) for i in ids},
        "latest": {i: store.latest_checkpoint(i) for i in ids},
        "journal": {i: store.journal_after(i, 0) for i in ids},
    }


class TestStoreIndex:
    def test_per_instance_queries_do_not_scan_the_log(self):
        store = CountingStore()
        ids = populate(store)
        assert indexed_queries(store, ids) == reference_queries(store.records(), ids)
        assert verify_journal(store) == []
        for instance_id in ids:
            assert store.records(instance_id, CHECKPOINT)[-1] is store.latest_checkpoint(
                instance_id
            )
        # One full scan for the reference; everything per-instance — about
        # 1,500 queries plus verify_journal — visits no other instance's
        # records (the full-scan store visited len(store) per query).
        assert store.full_scan_visits <= 2 * len(store)

    def test_reload_rebuilds_the_same_index(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with CheckpointStore(path) as store:
            ids = populate(store, instances=20)
            expected = indexed_queries(store, ids)
        reloaded = CountingStore(path)
        assert indexed_queries(reloaded, ids) == expected
        assert reloaded.full_scan_visits == 0

    def test_results_are_fresh_lists(self):
        store = CheckpointStore()
        (instance_id,) = populate(store, instances=1)
        store.records(instance_id).clear()
        store.journal_after(instance_id, 0).clear()
        store.instance_ids().clear()
        assert len(store.records(instance_id)) == 4
        assert len(store.journal_after(instance_id, 0)) == 1
        assert store.instance_ids() == [instance_id]

    def test_unknown_instance(self):
        store = CheckpointStore()
        populate(store, instances=2)
        assert store.records("nobody") == []
        assert store.latest_checkpoint("nobody") is None
        assert store.journal_after("nobody", 0) == []

    def test_journal_after_filters_by_seq(self):
        store = CheckpointStore()
        (instance_id,) = populate(store, instances=1)
        (entry,) = store.journal_after(instance_id, 0)
        assert store.journal_after(instance_id, entry["seq"] - 1) == [entry]
        assert store.journal_after(instance_id, entry["seq"]) == []


class TestStoreHandle:
    def record(self, number=1):
        return {"type": CHECKPOINT, "instance_id": "p-1", "n": number}

    def test_acknowledged_records_are_on_disk_without_close(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = CheckpointStore(path)
        for number in range(50):
            store.append(self.record(number))
            # Visible to another reader the moment append returns.
            assert len(CheckpointStore(path)) == number + 1
        expected = store.records()
        del store  # dropped un-closed, as a crashed host would
        assert CheckpointStore(path).records() == expected

    def test_one_handle_for_all_appends(self, tmp_path):
        store = CheckpointStore(tmp_path / "log.jsonl")
        store.append(self.record(1))
        handle = store._handle
        store.append(self.record(2))
        assert store._handle is handle and not handle.closed
        store.close()
        assert handle.closed

    def test_reading_opens_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert CheckpointStore(path)._handle is None
        assert not path.exists()
        with CheckpointStore(path) as store:
            store.append(self.record())
        assert CheckpointStore(path)._handle is None

    def test_close_is_idempotent_and_keeps_records_readable(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = CheckpointStore(path)
        store.append(self.record(1))
        store.close()
        store.close()
        assert store.records() == CheckpointStore(path).records()
        # A later append reopens the log and continues the sequence.
        assert store.append(self.record(2))["seq"] == 2
        store.close()
        assert [r["n"] for r in CheckpointStore(path).records()] == [1, 2]

    def test_context_manager_closes(self, tmp_path):
        with CheckpointStore(tmp_path / "log.jsonl") as store:
            store.append(self.record())
            handle = store._handle
        assert handle.closed

    def test_in_memory_store_closes_trivially(self):
        with CheckpointStore() as store:
            store.append(self.record())
        assert len(store) == 1

    def test_fsync_through_the_held_handle(self, tmp_path, monkeypatch):
        import os

        synced = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), fsync(fd)))
        path = tmp_path / "log.jsonl"
        with CheckpointStore(path, fsync=True) as store:
            store.append(self.record(1))
            store.append(self.record(2))
            assert synced == [store._handle.fileno()] * 2
        assert len(CheckpointStore(path)) == 2

    def test_truncated_tail_tolerated_after_unclosed_writer(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = CheckpointStore(path)
        store.append(self.record(1))
        store._handle.write('{"type": "checkpoint", "instance_id": "p-1", "n"')
        store._handle.flush()
        del store
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            reloaded = CheckpointStore(path)
        assert [r["n"] for r in reloaded.records()] == [1]
