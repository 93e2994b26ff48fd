"""Report builders: regenerate and render the paper's tables and figures."""

from __future__ import annotations

from repro.experiments.parallel import Cell, run_cells
from repro.experiments.scenario import figure5_point, run, table1_direct, table1_vep
from repro.metrics import Table, mean

__all__ = [
    "PAPER_TABLE1",
    "regenerate_figure5",
    "regenerate_table1",
    "regenerate_table1_per_seed",
    "render_figure5",
    "render_table1",
]

#: The paper's Table 1 values: (failures per 1000, availability).
PAPER_TABLE1 = {
    "A": (105.0, 0.952),
    "B": (81.0, 0.992),
    "C": (17.0, 0.998),
    "D": (91.0, 0.983),
    "VEP": (6.0, 0.998),
}

TABLE1_LABELS = {
    "A": "Only Retailer A used by the client",
    "B": "Only Retailer B used by the client",
    "C": "Only Retailer C used by the client",
    "D": "Only Retailer D used by the client",
    "VEP": "All 4 Retailers exposed as 1 wsBus VEP",
}


def regenerate_table1_per_seed(
    seeds=(11, 23, 47),
    clients: int = 4,
    requests: int = 250,
    tracer=None,
    jobs: int = 1,
    chunk_size: int | None = None,
):
    """Run every Table 1 cell; returns {(config, seed): RunResult}.

    ``config`` is one of ``"A"``–``"D"`` (direct) or ``"VEP"``. With
    ``jobs > 1`` the cells fan out over a process pool (``chunk_size``
    cells per pool task; default automatic); the merged mapping is
    identical to the sequential run because every cell is independently
    seeded and the merge order is fixed by the cell key. A non-None
    ``tracer`` forces ``jobs=1`` (spans are recorded in-process).
    """
    if tracer is not None:
        jobs = 1
    fields = dict(clients=clients, requests=requests)
    cells = [
        Cell((retailer, seed), run, {"scenario": table1_direct(retailer, seed, **fields)})
        for retailer in "ABCD"
        for seed in seeds
    ]
    cells += [
        Cell(("VEP", seed), run, {"scenario": table1_vep(seed, **fields), "tracer": tracer})
        for seed in seeds
    ]
    return run_cells(cells, jobs=jobs, chunk_size=chunk_size)


def regenerate_table1(
    seeds=(11, 23, 47),
    clients: int = 4,
    requests: int = 250,
    tracer=None,
    jobs: int = 1,
    chunk_size: int | None = None,
):
    """Run all five Table 1 configurations; returns {key: (f/1000, avail)}.

    ``tracer`` records spans of the VEP runs (the direct configurations
    bypass the bus and produce none). ``jobs`` shards the (config, seed)
    matrix across worker processes without changing the results.
    """
    per_seed = regenerate_table1_per_seed(
        seeds,
        clients=clients,
        requests=requests,
        tracer=tracer,
        jobs=jobs,
        chunk_size=chunk_size,
    )
    rows: dict[str, tuple[float, float]] = {}
    for key in ("A", "B", "C", "D", "VEP"):
        runs = [per_seed[(key, seed)] for seed in seeds]
        rows[key] = (
            mean([r.failures_per_1000 for r in runs]),
            mean([r.availability for r in runs]),
        )
    return rows


def render_table1(rows) -> str:
    table = Table(
        ["Configuration", "Reliability (ours)", "Paper", "Availability (ours)", "Paper"],
        title="Table 1 — Reliability and availability, direct vs wsBus VEP",
    )
    for key in ("A", "B", "C", "D", "VEP"):
        failures, availability = rows[key]
        paper_failures, paper_availability = PAPER_TABLE1[key]
        table.add_row(
            [
                TABLE1_LABELS[key],
                f"{failures:.0f} failures/1000",
                f"{paper_failures:.0f}",
                f"{availability:.3f}",
                f"{paper_availability:.3f}",
            ]
        )
    return table.render()


DEFAULT_SIZES_KB = (1, 2, 4, 8, 16, 32, 64)


def regenerate_figure5(
    sizes_kb=DEFAULT_SIZES_KB,
    operations=("getCatalog", "submitOrder"),
    requests: int = 150,
    tracer=None,
    jobs: int = 1,
    chunk_size: int | None = None,
):
    """Figure 5 series: {operation: (direct RTTs, wsBus RTTs)} in seconds.

    ``jobs`` shards the (operation, size, direct|bus) sweep across worker
    processes (``chunk_size`` cells per pool task; default automatic); a
    non-None ``tracer`` forces ``jobs=1``.
    """
    if tracer is not None:
        jobs = 1
    cells = [
        Cell(
            (operation, size_kb, path),
            run,
            {
                "scenario": figure5_point(
                    path == "bus", operation=operation, padding=size_kb * 1024, requests=requests
                ),
                "tracer": tracer if path == "bus" else None,
            },
        )
        for operation in operations
        for size_kb in sizes_kb
        for path in ("direct", "bus")
    ]
    points = run_cells(cells, jobs=jobs, chunk_size=chunk_size)
    series = {}
    for operation in operations:
        direct = [points[(operation, size_kb, "direct")].rtt_stats["mean"] for size_kb in sizes_kb]
        mediated = [points[(operation, size_kb, "bus")].rtt_stats["mean"] for size_kb in sizes_kb]
        series[operation] = (direct, mediated)
    return series


def render_figure5(series, sizes_kb=DEFAULT_SIZES_KB) -> str:
    parts = []
    for operation, (direct, mediated) in series.items():
        table = Table(
            ["Request size", "Direct RTT (ms)", "wsBus RTT (ms)", "Overhead"],
            title=f"Figure 5 — RTT vs request size: {operation}",
        )
        for size_kb, direct_rtt, bus_rtt in zip(sizes_kb, direct, mediated):
            overhead = (bus_rtt - direct_rtt) / direct_rtt
            table.add_row(
                [
                    f"{size_kb} KB",
                    f"{direct_rtt * 1000:.2f}",
                    f"{bus_rtt * 1000:.2f}",
                    f"{overhead * 100:+.1f}%",
                ]
            )
        parts.append(table.render())
    return "\n\n".join(parts)
