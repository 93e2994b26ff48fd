"""The sharded experiment runner: determinism, merge order, crash reporting."""

import json
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
        cells = [
            Cell(("ok",), _double, {"value": 1}),
            Cell(("boom",), _raise, {"value": 2}),
        ]
        with pytest.raises(ShardError) as excinfo:
            run_cells(cells, jobs=jobs)
        assert ("boom",) in excinfo.value.failures
        assert "exploded" in str(excinfo.value)

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
        # BrokenProcessPool poisons the executor; run_cells must drop the
        # cached pool so the *next* call gets healthy workers again.
        from repro.experiments import parallel

        with pytest.raises(ShardError):
            run_cells(
                [Cell(("dead",), _die, {"value": 1}), Cell(("ok",), _double, {"value": 1})],
                jobs=2,
            )
        assert parallel._pool is None
        merged = run_cells(
            [Cell(("a",), _double, {"value": 1}), Cell(("b",), _double, {"value": 2})],
            jobs=2,
        )
        assert merged == {("a",): 2, ("b",): 4}

    def test_pool_persists_across_run_cells_calls(self):
        # The whole point of runner v2: fork once, reuse the workers.
        from repro.experiments import parallel

        cells = [Cell(("a",), _double, {"value": 1}), Cell(("b",), _double, {"value": 2})]
        run_cells(cells, jobs=2)
        first = parallel._pool
        assert first is not None
        run_cells(cells, jobs=2)
        assert parallel._pool is first

    def test_explicit_chunk_size_changes_batching_not_results(self):
        cells = [Cell((name,), _double, {"value": i}) for i, name in enumerate("abcdef")]
        expected = run_cells(cells, jobs=1)
        for chunk_size in (1, 2, 6, 99):
            assert run_cells(cells, jobs=2, chunk_size=chunk_size) == expected

    def test_failing_cell_does_not_lose_its_chunk_mates(self):
        # One bad cell in a multi-cell chunk: the others still report, and
        # only the bad key lands in the failure map.
        cells = [
            Cell(("a",), _double, {"value": 1}),
            Cell(("boom",), _raise, {"value": 2}),
            Cell(("c",), _double, {"value": 3}),
        ]
        with pytest.raises(ShardError) as excinfo:
            run_cells(cells, jobs=2, chunk_size=3)
        assert list(excinfo.value.failures) == [("boom",)]


class TestPoolFallbacks:
    """run_cells must degrade gracefully on platforms without fork."""

    def test_no_fork_falls_back_to_spawn_with_warning(self, monkeypatch):
        from repro.experiments import parallel

        parallel.shutdown_pool()
        monkeypatch.setattr(parallel, "_warned_no_fork", False)
        monkeypatch.setattr(
            parallel.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        cells = [Cell(("a",), _double, {"value": 1}), Cell(("b",), _double, {"value": 2})]
        with pytest.warns(RuntimeWarning, match="falling back to 'spawn'"):
            merged = run_cells(cells, jobs=2)
        assert merged == {("a",): 2, ("b",): 4}
        parallel.shutdown_pool()  # do not leave spawn workers to later tests

    def test_pool_creation_failure_falls_back_to_serial_with_warning(self, monkeypatch):
        from repro.experiments import parallel

        parallel.shutdown_pool()

        def _no_pool(*args, **kwargs):
            raise OSError("no process support on this platform")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        cells = [Cell(("a",), _double, {"value": 1}), Cell(("b",), _double, {"value": 2})]
        with pytest.warns(RuntimeWarning, match="running experiment cells serially"):
            merged = run_cells(cells, jobs=2)
        assert merged == {("a",): 2, ("b",): 4}
        assert parallel._pool is None


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
    def test_table1_jobs4_byte_identical_to_jobs1(self):
        kwargs = dict(seeds=(11, 23), clients=2, requests=40)
        sequential = regenerate_table1_per_seed(jobs=1, **kwargs)
        sharded = regenerate_table1_per_seed(jobs=4, **kwargs)
        assert list(sequential) == list(sharded)
        assert _fingerprint(sequential) == _fingerprint(sharded)

    def test_figure5_jobs4_identical_to_jobs1(self):
        kwargs = dict(sizes_kb=(1, 4), requests=20)
        sequential = regenerate_figure5(jobs=1, **kwargs)
        sharded = regenerate_figure5(jobs=4, **kwargs)
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

    def test_slo_storm_jobs4_identical_to_jobs1(self):
        # The SLO engine rides the resilience-on arm: metrics snapshots,
        # SLO event sequences, and burn-rate status must survive the
        # pickle round-trip through the pool byte-identically.
        cells = _slo_storm_cells(seed=7, clients=3, requests=25)
        sequential = run_cells(cells, jobs=1)
        sharded = run_cells(cells, jobs=4)
        assert list(sequential) == list(sharded)
        assert _fingerprint(sequential) == _fingerprint(sharded)
        # The live bus and the request records stay in the cell, inline too.
        assert all(r.bus is None and r.workload is None for r in sequential.values())
        on = sequential[(7, "on")]
        assert on.slo is not None and on.slo["events"]
        assert sequential[(7, "off")].slo is None


class TestChunkedDeterminism:
    """jobs=8 with explicit chunking stays byte-identical to jobs=1."""

    def test_table1_jobs8_chunked_byte_identical_to_jobs1(self):
        kwargs = dict(seeds=(11, 23), clients=2, requests=30)
        sequential = regenerate_table1_per_seed(jobs=1, **kwargs)
        chunked = regenerate_table1_per_seed(jobs=8, chunk_size=2, **kwargs)
        assert list(sequential) == list(chunked)
        assert _fingerprint(sequential) == _fingerprint(chunked)

    def test_figure5_jobs8_chunked_byte_identical_to_jobs1(self):
        kwargs = dict(sizes_kb=(1, 4, 16), requests=15)
        sequential = regenerate_figure5(jobs=1, **kwargs)
        chunked = regenerate_figure5(jobs=8, chunk_size=3, **kwargs)
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            chunked, sort_keys=True
        )

    def test_slo_storm_jobs8_chunked_byte_identical_to_jobs1(self):
        cells = _slo_storm_cells(seed=7, clients=3, requests=20)
        sequential = run_cells(cells, jobs=1)
        chunked = run_cells(cells, jobs=8, chunk_size=2)
        assert list(sequential) == list(chunked)
        assert _fingerprint(sequential) == _fingerprint(chunked)


class TestMetricSnapshotMerge:
    def test_counters_sum_and_histograms_combine(self):
        from repro.observability import MetricsRegistry, merge_metric_snapshots

        first = MetricsRegistry()
        first.counter("x").inc(2)
        first.histogram("h").observe(1.0)
        second = MetricsRegistry()
        second.counter("x").inc(3)
        second.counter("y").inc(1)
        second.histogram("h").observe(3.0)
        merged = merge_metric_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"] == {"x": 5, "y": 1}
        combined = merged["histograms"]["h"]
        assert combined["count"] == 2
        assert combined["min"] == 1.0 and combined["max"] == 3.0
        assert combined["mean"] == pytest.approx(2.0)

    def test_merge_is_order_independent(self):
        from repro.observability import MetricsRegistry, merge_metric_snapshots

        registries = []
        for seed in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("c").inc(seed)
            registry.histogram("h").observe(float(seed))
            registries.append(registry.snapshot())
        forward = merge_metric_snapshots(registries)
        backward = merge_metric_snapshots(list(reversed(registries)))
        assert json.dumps(forward, sort_keys=True) == json.dumps(
            backward, sort_keys=True
        )
