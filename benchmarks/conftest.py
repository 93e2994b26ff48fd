"""Shared fixtures for the paper-reproduction benchmarks.

The actual harnesses live in :mod:`repro.experiments` so the command-line
interface (``python -m repro``) and the benchmark suite share one
implementation: every run is a :class:`~repro.experiments.Scenario` value
driven by :func:`~repro.experiments.run`. Each benchmark regenerates one
table or figure from the paper's evaluation; assertions check the *shape*
(who wins, by what factor, how series move), not absolute numbers.
"""

from repro.experiments import (  # noqa: F401 - re-exported for benchmarks
    RunResult,
    Scenario,
    catalog_plan,
    fault_storm,
    figure5_point,
    fleet_storm,
    order_plan,
    overload_storm,
    run,
    table1_direct,
    table1_vep,
)
