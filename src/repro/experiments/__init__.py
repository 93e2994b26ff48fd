"""Experiments reproducing the paper's evaluation.

The same code drives the benchmark suite (``pytest benchmarks/``) and the
command-line interface (``python -m repro``). Every SCM run is a frozen
:class:`Scenario` value — the named constructors :func:`table1_direct`,
:func:`table1_vep`, :func:`figure5_point`, :func:`fault_storm`,
:func:`overload_storm` and :func:`fleet_storm` are the ones the paper and
the ablations make — and :func:`run` builds it on a fresh seeded
deployment and returns a :class:`RunResult` of plain data.
:func:`run_cells` fans ``Cell(key, run, {"scenario": ...})`` matrices over
worker processes; :func:`run_crash_recovery` is the engine-crash
harness.
"""

from repro.experiments.harness import (
    CrashRecoveryResult,
    count_crash_boundaries,
    run_crash_recovery,
)
from repro.experiments.parallel import Cell, ShardError, run_cells, shutdown_pool
from repro.experiments.reports import (
    regenerate_figure5,
    regenerate_table1,
    regenerate_table1_per_seed,
    render_figure5,
    render_table1,
)
from repro.experiments.scenario import (
    RunResult,
    Scenario,
    catalog_plan,
    fault_storm,
    figure5_point,
    fleet_storm,
    order_plan,
    overload_storm,
    run,
    shed_only_policy_document,
    table1_direct,
    table1_vep,
)

__all__ = [
    "Cell",
    "CrashRecoveryResult",
    "RunResult",
    "Scenario",
    "ShardError",
    "catalog_plan",
    "count_crash_boundaries",
    "fault_storm",
    "figure5_point",
    "fleet_storm",
    "order_plan",
    "overload_storm",
    "regenerate_figure5",
    "regenerate_table1",
    "regenerate_table1_per_seed",
    "render_figure5",
    "render_table1",
    "run",
    "run_cells",
    "run_crash_recovery",
    "shed_only_policy_document",
    "shutdown_pool",
    "table1_direct",
    "table1_vep",
]
