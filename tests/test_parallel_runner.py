"""The sharded experiment runner: determinism, merge order, crash reporting."""

import json
import multiprocessing
import os
from dataclasses import asdict

import pytest

from repro.experiments import (
    Cell,
    ShardError,
    fault_storm,
    regenerate_figure5,
    regenerate_table1_per_seed,
    run,
    run_cells,
)

# -- cell functions (module level: picklable by reference) ----------------------


def _double(value):
    return value * 2


def _raise(value):
    raise RuntimeError(f"cell {value} exploded")


def _die(value):
    os._exit(13)  # simulate a hard worker crash (segfault/OOM-kill)


# -- runner mechanics -----------------------------------------------------------


class TestRunCells:
    def test_merge_order_is_sorted_by_key_not_submission(self):
        cells = [Cell(("b",), _double, {"value": 2}), Cell(("a",), _double, {"value": 1})]
        merged = run_cells(cells, jobs=1)
        assert list(merged) == [("a",), ("b",)]
        assert merged == {("a",): 2, ("b",): 4}

    def test_duplicate_keys_rejected(self):
        cells = [Cell(("a",), _double, {"value": 1}), Cell(("a",), _double, {"value": 2})]
        with pytest.raises(ValueError, match="duplicate"):
            run_cells(cells, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cell_is_reported_by_key_not_dropped(self, jobs):
        # Only the bad key lands in the failure map: the cells beside it
        # ran and are not reported as failed.
        cells = [
            Cell(("a",), _double, {"value": 1}),
            Cell(("boom",), _raise, {"value": 2}),
            Cell(("c",), _double, {"value": 3}),
        ]
        with pytest.raises(ShardError) as excinfo:
            run_cells(cells, jobs=jobs)
        assert list(excinfo.value.failures) == [("boom",)]
        assert "exploded" in str(excinfo.value)

    def test_failing_cell_does_not_lose_its_chunk_mates(self):
        # More cells than workers, so the failing cell shares a worker with
        # others: the worker keeps taking cells after the failure, and only
        # the bad key lands in the failure map.
        cells = [Cell((name,), _double, {"value": i}) for i, name in enumerate("abcdef")]
        cells.insert(2, Cell(("boom",), _raise, {"value": 99}))
        with pytest.raises(ShardError) as excinfo:
            run_cells(cells, jobs=2)
        assert list(excinfo.value.failures) == [("boom",)]

    def test_dead_worker_process_surfaces_as_shard_error(self):
        # A worker that dies mid-cell (not a Python exception: the process
        # itself exits) must neither hang the merge nor silently drop the
        # cell — the pool error is attributed to the cell's key. (A second
        # cell keeps the run off the single-cell inline path.)
        cells = [
            Cell(("dead",), _die, {"value": 1}),
            Cell(("ok",), _double, {"value": 1}),
        ]
        with pytest.raises(ShardError) as excinfo:
            run_cells(cells, jobs=2)
        assert ("dead",) in excinfo.value.failures

    def test_dead_worker_discards_pool_and_next_run_recovers(self):
        # BrokenProcessPool poisons the executor; the next call must get
        # healthy workers again.
        with pytest.raises(ShardError):
            run_cells(
                [Cell(("dead",), _die, {"value": 1}), Cell(("ok",), _double, {"value": 1})],
                jobs=2,
            )
        merged = run_cells(
            [Cell(("a",), _double, {"value": 1}), Cell(("b",), _double, {"value": 2})],
            jobs=2,
        )
        assert merged == {("a",): 2, ("b",): 4}

    def test_no_worker_outlives_the_call(self):
        cells = [Cell(("a",), _double, {"value": 1}), Cell(("b",), _double, {"value": 2})]
        assert run_cells(cells, jobs=2) == {("a",): 2, ("b",): 4}
        assert multiprocessing.active_children() == []


class TestPoolFallbacks:
    def test_pool_creation_failure_falls_back_to_serial_with_warning(self, monkeypatch):
        from repro.experiments import parallel

        def _no_pool(*args, **kwargs):
            raise OSError("no process support on this platform")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        cells = [Cell(("a",), _double, {"value": 1}), Cell(("b",), _double, {"value": 2})]
        with pytest.warns(RuntimeWarning, match="running experiment cells serially"):
            merged = run_cells(cells, jobs=2)
        assert merged == {("a",): 2, ("b",): 4}


# -- experiment determinism -----------------------------------------------------


def _fingerprint(results):
    return json.dumps(
        {repr(key): asdict(result) for key, result in results.items()},
        sort_keys=True,
        default=str,
    )


def _slo_storm_cells(seed, clients, requests):
    """Both fault-storm arms; the SLO engine rides the resilience-on arm."""
    mix = dict(clients=clients, requests=requests)
    return [
        Cell((seed, arm), run, {"scenario": fault_storm(seed, on, slo=on, **mix)})
        for arm, on in (("off", False), ("on", True))
    ]


class TestShardedDeterminism:
    @pytest.mark.parametrize("jobs", [4, 8])
    def test_table1_byte_identical_to_jobs1(self, jobs):
        kwargs = dict(seeds=(11, 23), clients=2, requests=40)
        sequential = regenerate_table1_per_seed(jobs=1, **kwargs)
        sharded = regenerate_table1_per_seed(jobs=jobs, **kwargs)
        assert list(sequential) == list(sharded)
        assert _fingerprint(sequential) == _fingerprint(sharded)

    @pytest.mark.parametrize("jobs", [4, 8])
    def test_figure5_identical_to_jobs1(self, jobs):
        kwargs = dict(sizes_kb=(1, 4), requests=20)
        sequential = regenerate_figure5(jobs=1, **kwargs)
        sharded = regenerate_figure5(jobs=jobs, **kwargs)
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            sharded, sort_keys=True
        )

    def test_tracer_forces_sequential_run(self):
        from repro.observability import Tracer

        tracer = Tracer()
        rows = regenerate_table1_per_seed(
            seeds=(11,), clients=2, requests=20, tracer=tracer, jobs=4
        )
        # Spans only exist if the cells ran in-process.
        assert tracer.finished_count > 0
        assert ("VEP", 11) in rows

    @pytest.mark.parametrize("jobs", [4, 8])
    def test_slo_storm_identical_to_jobs1(self, jobs):
        # The SLO engine rides the resilience-on arm: metrics snapshots,
        # SLO event sequences, and burn-rate status must survive the
        # pickle round-trip through the pool byte-identically.
        cells = _slo_storm_cells(seed=7, clients=3, requests=25)
        sequential = run_cells(cells, jobs=1)
        sharded = run_cells(cells, jobs=jobs)
        assert list(sequential) == list(sharded)
        assert _fingerprint(sequential) == _fingerprint(sharded)
        # The live bus and the request records stay in the cell, inline too.
        assert all(r.bus is None and r.workload is None for r in sequential.values())
        on = sequential[(7, "on")]
        assert on.slo is not None and on.slo["events"]
        assert sequential[(7, "off")].slo is None
