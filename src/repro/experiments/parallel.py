"""Process-pool sharded experiment runner.

The Table 1 / Figure 5 / fault-storm matrices are embarrassingly parallel:
every ``(configuration, seed)`` cell builds its own seeded deployment and
simulation environment, so cells share no state and can run in separate
worker processes. :func:`run_cells` fans cells out over a process pool and
merges the results in an order fixed by the *cell key* — never by
completion order — so ``--jobs 4`` produces per-seed results byte-identical
to ``--jobs 1``.

Design rules that keep the merge deterministic:

- A :class:`Cell` is ``(key, runner, kwargs)`` where ``runner`` is a
  module-level function (picklable by reference, so every start method
  works) returning plain data — for every experiment,
  ``Cell(key, run, {"scenario": ...})``. The live bus and the per-request
  records a :class:`~repro.experiments.RunResult` carries in-process are
  stripped here, inline and in a worker alike, so both modes return equal
  results.
- :func:`run_cells` returns ``{key: result}`` ordered by sorted key.
  Execution order is irrelevant: cells are seeded and isolated.
- A crashing shard never hangs or silently drops its cell: every failure
  is collected and reported per key through :exc:`ShardError`, a dead
  worker's ``BrokenProcessPool`` included. If no pool can be started at
  all, the cells run inline with a warning.

Tracing (``--trace``) records spans in-process, so a non-None ``tracer``
forces the calling harness back to ``jobs=1``.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
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


def shutdown_pool() -> None:
    """Do nothing: :func:`run_cells` closes its pool before it returns.

    Kept as a public no-op because callers written against the earlier
    process-lifetime pool still call it — among them ``bench/child.py``,
    which is left unedited so that it measures every revision with the
    same code.
    """


def _call(runner: Callable[..., Any], kwargs: dict) -> Any:
    """Run one cell; a live bus and the request records never leave it."""
    value = runner(**kwargs)
    if isinstance(value, RunResult):
        return replace(value, bus=None, workload=None)
    return value


def run_cells(cells: list[Cell], jobs: int = 1) -> dict[tuple, Any]:
    """Execute every cell; return ``{key: result}`` in sorted-key order.

    ``jobs <= 1`` runs inline in the calling process (no pool, no pickling);
    ``jobs > 1`` runs each cell as one task of a pool of
    ``min(jobs, len(cells))`` workers that is closed before this returns,
    so no worker outlives the call. Raises :exc:`ShardError` naming every
    failed cell if any shard raised.
    """
    ordered = sorted(cells, key=lambda cell: cell.key)
    keys = [cell.key for cell in ordered]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cell keys in {keys}")
    results: dict[tuple, Any] = {}
    failures: dict[tuple, BaseException] = {}
    pool = None
    if min(jobs, len(ordered)) > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(ordered)))
        except OSError as error:
            warnings.warn(
                f"cannot start a worker pool ({type(error).__name__}: {error}); "
                "running experiment cells serially in this process",
                RuntimeWarning,
                stacklevel=2,
            )
    if pool is None:
        for cell in ordered:
            try:
                results[cell.key] = _call(cell.runner, cell.kwargs)
            except Exception as error:  # noqa: BLE001 - reported per cell
                failures[cell.key] = error
    else:
        with pool:
            futures = {}
            for cell in ordered:
                try:
                    # A worker that died on an earlier cell breaks the
                    # pool, and submit itself raises BrokenProcessPool.
                    futures[cell.key] = pool.submit(_call, cell.runner, cell.kwargs)
                except Exception as error:  # noqa: BLE001 - reported per cell
                    failures[cell.key] = error
            for key, future in futures.items():
                try:
                    results[key] = future.result()
                except Exception as error:  # noqa: BLE001 - includes BrokenProcessPool
                    failures[key] = error
    if failures:
        raise ShardError(failures)
    return {key: results[key] for key in keys}
