"""Process-pool sharded experiment runner (v2).

The Table 1 / Figure 5 / fault-storm matrices are embarrassingly parallel:
every ``(configuration, seed)`` cell builds its own seeded deployment and
simulation environment, so cells share no state and can run in separate
worker processes. This module fans cells out across a process pool and
merges the results in an order fixed by the *cell key* — never by
completion order — so ``--jobs 4`` produces per-seed results byte-identical
to ``--jobs 1``.

Three things make ``jobs=N`` actually beat ``jobs=1`` (v1 lost to serial —
see the postmortem in ``docs/performance.md``):

- **A persistent pool.** Workers are forked once and reused across every
  subsequent :func:`run_cells` call with the same worker count, so pool
  start-up (fork + interpreter bootstrap, or spawn + full re-import) is
  paid once per process lifetime instead of once per matrix.
- **Cell chunking.** Cells are grouped into chunks submitted as single
  pool tasks, amortizing the per-task submit/pickle/wakeup round trip.
  ``chunk_size=None`` picks a size that still load-balances the matrix.
- **Compact results.** A chunk ships back a plain positional list of
  ``(ok, value)`` pairs — no keys, no Cell objects — and the merge
  re-attaches keys from the submit-side order.

Design rules that keep the merge deterministic:

- A :class:`Cell` is ``(key, runner, kwargs)`` where ``runner`` is a
  module-level function (picklable by reference) returning plain data —
  for every experiment, ``Cell(key, run, {"scenario": ...})``. The live
  bus and the per-request records a :class:`~repro.experiments.RunResult`
  carries in-process are stripped here, inline and in a worker alike, so
  both modes return equal results.
- :func:`run_cells` executes cells (inline for ``jobs <= 1``; otherwise in
  a pool) and returns ``{key: result}`` ordered by sorted key. Execution
  order is irrelevant: cells are seeded and isolated.
- A crashing shard never hangs or silently drops its cell: every failure
  is collected and reported per-key through :exc:`ShardError`. A dead
  worker (``BrokenProcessPool``) additionally discards the cached pool so
  the next run starts from healthy workers.

On platforms without ``fork`` the runner falls back to ``spawn`` workers
(slower start-up, same results) with a warning; if no pool can be built at
all it degrades to an inline serial run rather than crashing.

Tracing (``--trace``) records spans in-process, so a non-None ``tracer``
forces the calling harness back to ``jobs=1``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.experiments.scenario import RunResult

__all__ = ["Cell", "ShardError", "run_cells", "shutdown_pool"]


@dataclass(frozen=True)
class Cell:
    """One independent experiment shard.

    ``key`` orders the merge and names the cell in failure reports;
    ``runner`` must be a module-level callable returning picklable data.
    """

    key: tuple
    runner: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)


class ShardError(RuntimeError):
    """One or more experiment shards failed.

    ``failures`` maps each failed cell key to the exception it raised (or
    the pool-level error, e.g. ``BrokenProcessPool``, if the worker died).
    """

    def __init__(self, failures: dict[tuple, BaseException]) -> None:
        self.failures = dict(failures)
        detail = "; ".join(
            f"{key}: {type(error).__name__}: {error}"
            for key, error in sorted(self.failures.items(), key=lambda item: item[0])
        )
        super().__init__(f"{len(self.failures)} experiment shard(s) failed: {detail}")


# -- the persistent pool ---------------------------------------------------------

_pool: ProcessPoolExecutor | None = None
_pool_signature: tuple[str, int] | None = None
_warned_no_fork = False


def _start_method() -> str:
    """Prefer fork (workers inherit the imported simulation stack)."""
    global _warned_no_fork
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    if not _warned_no_fork:
        _warned_no_fork = True
        warnings.warn(
            "the 'fork' start method is unavailable on this platform; "
            "falling back to 'spawn' workers (each worker re-imports the "
            "simulation stack, so pool start-up is slower — results are "
            "unchanged)",
            RuntimeWarning,
            stacklevel=4,
        )
    return "spawn"


def _get_pool(workers: int) -> ProcessPoolExecutor | None:
    """The shared pool, (re)built on demand; ``None`` → run serially.

    The pool persists across :func:`run_cells` calls so fork/spawn and
    worker bootstrap are paid once, not once per experiment matrix. A new
    worker count (or start method) replaces the cached pool.
    """
    global _pool, _pool_signature
    method = _start_method()
    signature = (method, workers)
    if _pool is not None and _pool_signature == signature:
        return _pool
    shutdown_pool()
    try:
        _pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(method)
        )
    except OSError as error:
        warnings.warn(
            f"cannot start a worker pool ({type(error).__name__}: {error}); "
            "running experiment cells serially in this process",
            RuntimeWarning,
            stacklevel=3,
        )
        _pool = None
        _pool_signature = None
        return None
    _pool_signature = signature
    return _pool


def shutdown_pool() -> None:
    """Dispose of the cached worker pool (idempotent).

    Called automatically at interpreter exit and after a worker death;
    long-lived embedders can call it to release the worker processes.
    """
    global _pool, _pool_signature
    pool, _pool, _pool_signature = _pool, None, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)


# -- chunked execution -----------------------------------------------------------


def _call(runner: Callable[..., Any], kwargs: dict) -> Any:
    """Run one cell; a live bus and the request records never leave it."""
    value = runner(**kwargs)
    if isinstance(value, RunResult):
        return replace(value, bus=None, workload=None)
    return value


def _run_chunk(chunk: list[tuple[Callable[..., Any], dict]]) -> list[tuple]:
    """Worker-side: run a batch of cells; compact positional results.

    Returns one ``(ok, value)`` pair per ``(runner, kwargs)`` entry, in
    submission order — keys never travel to the worker and back, the
    caller re-attaches them positionally. A failing cell is captured as
    ``(False, error)`` so its chunk-mates still report results.
    """
    out: list[tuple] = []
    for runner, kwargs in chunk:
        try:
            out.append((True, _call(runner, kwargs)))
        except Exception as error:  # noqa: BLE001 - reported per cell
            out.append((False, error))
    return out


def _chunked(cells: list[Cell], workers: int, chunk_size: int | None) -> list[list[Cell]]:
    """Split sorted cells into submission batches.

    The automatic size aims for ~4 chunks per worker: large enough to
    amortize the per-task round trip, small enough that one slow cell
    does not leave workers idle at the tail of the matrix.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-len(cells) // (workers * 4)))
    chunk_size = max(1, chunk_size)
    return [cells[i : i + chunk_size] for i in range(0, len(cells), chunk_size)]


def run_cells(
    cells: list[Cell], jobs: int = 1, chunk_size: int | None = None
) -> dict[tuple, Any]:
    """Execute every cell; return ``{key: result}`` in sorted-key order.

    ``jobs <= 1`` runs inline in the calling process (no pool, no pickling);
    ``jobs > 1`` fans chunks of cells out over the persistent process pool.
    ``chunk_size`` fixes how many cells ride in one pool task (default:
    automatic, ~4 chunks per worker). Raises :exc:`ShardError` naming every
    failed cell if any shard raised.
    """
    ordered = sorted(cells, key=lambda cell: cell.key)
    keys = [cell.key for cell in ordered]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cell keys in {keys}")
    results: dict[tuple, Any] = {}
    failures: dict[tuple, BaseException] = {}
    pool = None
    if jobs > 1 and len(ordered) > 1:
        pool = _get_pool(min(jobs, len(ordered)))
    if pool is None:
        for cell in ordered:
            try:
                results[cell.key] = _call(cell.runner, cell.kwargs)
            except Exception as error:  # noqa: BLE001 - reported per cell
                failures[cell.key] = error
    else:
        chunks = _chunked(ordered, min(jobs, len(ordered)), chunk_size)
        broken = False
        futures = []
        for chunk in chunks:
            try:
                # submit can itself raise BrokenProcessPool: a worker dying
                # on an earlier chunk poisons the executor mid-submission.
                future = pool.submit(
                    _run_chunk, [(cell.runner, cell.kwargs) for cell in chunk]
                )
            except Exception as error:  # noqa: BLE001 - attributed per cell
                broken = broken or isinstance(error, BrokenProcessPool)
                for cell in chunk:
                    failures[cell.key] = error
                continue
            futures.append((chunk, future))
        for chunk, future in futures:
            try:
                for cell, (ok, value) in zip(chunk, future.result()):
                    if ok:
                        results[cell.key] = value
                    else:
                        failures[cell.key] = value
            except Exception as error:  # noqa: BLE001 - includes BrokenProcessPool
                broken = broken or isinstance(error, BrokenProcessPool)
                for cell in chunk:
                    failures[cell.key] = error
        if broken:
            # A dead worker poisons the whole executor; drop it so the
            # next run_cells call starts from healthy workers.
            shutdown_pool()
    if failures:
        raise ShardError(failures)
    return {key: results[key] for key in keys}
