"""The exact cost ledger: kernel events and Python calls per op, per workload.

For each workload of ``bench/workloads.py``, at scale 0.25 and seed 7, the
ledger runs one warm-up drive and then one counted drive. The counted
drive records

- the kernel events the simulation processed (``Environment.
  total_events_processed``), and
- the Python calls into code under ``src/repro``, by package, counted with
  ``sys.setprofile``; a generator resume counts as a call, as the profiler
  reports it.

Both are exact: the same tree gives the same numbers in any fresh
interpreter and under any hash seed, so a change that moves either names
its delta as a number rather than a timing. What is not counted, and why:

- frames outside ``src/repro`` (the standard library, dataclass-generated
  methods) differ between Python versions;
- list, dict and set comprehensions run inline from Python 3.12 on, so
  their frames are left out on every version;
- the cyclic collector is emptied and held off around the counted drive,
  because a collection would run every ``gc.callbacks`` entry inside it;
- allocations are not exact, and are not recorded.

``tests/golden/cost/<workload>.json`` holds each workload's ledger;
``tests/test_cost_ledger.py`` re-counts in a fresh interpreter and compares
exactly. Re-record (only when a change is meant to move the ledger, and
then state the per-package delta) with::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/cost_corpus.py

``--print`` writes the ledgers to stdout as one JSON object instead.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "cost"
PACKAGE_DIR = str(ROOT / "src" / "repro")
SCALE = 0.25
SEED = 7

#: Code objects that Python 3.12 runs inline in their enclosing frame.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def _package_of(filename: str) -> str | None:
    """``simulation`` for ``.../src/repro/simulation/core.py``; None outside."""
    if not filename.startswith(PACKAGE_DIR):
        return None
    relative = filename[len(PACKAGE_DIR) + 1 :]
    return relative.split("/", 1)[0].removesuffix(".py")


def _counted(function) -> tuple[object, dict]:
    """Run ``function`` under the profiler: (its result, calls per code object)."""
    calls: defaultdict = defaultdict(int)

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = function()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, calls


def ledger(workload) -> dict:
    """One workload's ledger: a warm-up drive, then the counted one."""
    from repro.simulation import Environment

    sizes = workload.sizes(SCALE)
    workload.drive(workload.build(SEED, sizes))
    state = workload.build(SEED, sizes)
    before = Environment.total_events_processed
    outcome, calls = _counted(lambda: workload.drive(state))
    events = Environment.total_events_processed - before
    packages: defaultdict = defaultdict(int)
    for code, count in calls.items():
        package = _package_of(code.co_filename)
        if package is not None and code.co_name not in _INLINED:
            packages[package] += count
    ops = workload.ops(sizes)
    return {
        "workload": workload.name,
        "scale": SCALE,
        "seed": SEED,
        "ops": ops,
        "delivered": outcome.delivered,
        "events": events,
        "events_per_op": round(events / ops, 4),
        "calls": sum(packages.values()),
        "calls_per_op": round(sum(packages.values()) / ops, 2),
        "calls_by_package": dict(sorted(packages.items())),
    }


def ledgers() -> dict[str, dict]:
    """Every workload's ledger, by workload name, in ``WORKLOADS`` order."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    return {name: ledger(workload) for name, workload in WORKLOADS.items()}


def _encode(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"


def main(argv: list[str]) -> None:
    recorded = ledgers()
    if "--print" in argv:
        print(json.dumps(recorded))
        return
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, record in recorded.items():
        (GOLDEN_DIR / f"{name}.json").write_text(_encode(record))
        print(f"{name}: {record['events_per_op']} events/op, {record['calls_per_op']} calls/op")


if __name__ == "__main__":
    main(sys.argv[1:])
