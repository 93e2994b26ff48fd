#!/usr/bin/env python3
"""The stack benchmark: seven workloads, host-time and simulated-time metrics.

    python3 bench/run.py                         every workload, end-to-end metrics
    python3 bench/run.py --traced                ... plus the per-layer passes
    python3 bench/run.py --aa                    two full sets, compared
    python3 bench/run.py --workload clean_small --seed 3 --seconds 10 --trace 0

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Each workload runs in its own child interpreter (``child.py``), one at a
time. The program under test is ``src/repro`` of the checkout this file
sits in; nothing is installed and nothing outside the checkout is read.
See ``bench/README.md`` for what the numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from catalogue import END_TO_END, PER_LAYER  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_RUNS = 5
#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {path}: {error}") from error


def run_child(mode: str, workload: str, seed: int, seconds: float, scale: float) -> dict:
    """Start ``child.py`` in a fresh interpreter and parse its last line."""
    command = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--scale", str(scale),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload}/{mode} exceeded {CHILD_TIMEOUT:.0f}s") from error
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}/{mode} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as error:
        raise BenchmarkError(f"{workload}/{mode} printed no result") from error


def measure_end_to_end(workload: str, seed: int, seconds: float, scale: float) -> dict:
    setups = [
        run_child("setup", workload, seed, seconds, scale)["setup_s"] for _ in range(SETUP_RUNS)
    ]
    timed = run_child("timed", workload, seed, seconds, scale)
    metrics = dict(timed["metrics"])
    metrics["peak_rss_mb"] = timed["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(setups)
    quartiles = dict(timed["quartiles"])
    quartiles["setup_s"] = statistics.quantiles(setups, n=4)
    return {
        "metrics": {name: metrics[name] for name in END_TO_END},
        "quartiles": quartiles,
        "attempted": timed["attempted"],
        "failed": timed["lost"],
        "problems": timed["problems"],
        "reps": len(timed["reps"]),
        "sizes": timed["sizes"],
        "raw": {"setup_s": setups, "reps": timed["reps"]},
    }


def measure_per_layer(workload: str, seed: int, seconds: float, scale: float) -> dict:
    traced = run_child("trace", workload, seed, seconds, scale)
    missing = sorted(set(PER_LAYER) - set(traced["metrics"]))
    problems = list(traced["problems"])
    if missing:
        problems.append(f"per-layer metrics not produced: {missing}")
    if traced["missing_names"]:
        print(
            f"warning: the program no longer has {traced['missing_names']}; "
            "the metrics counted from them read 0",
            file=sys.stderr,
        )
    return {
        "metrics": {name: traced["metrics"].get(name, 0.0) for name in PER_LAYER},
        "attempted": traced["attempted"],
        "failed": traced["lost"],
        "problems": problems,
        "sizes": traced["sizes"],
        "spans": traced["spans"],
    }


def result_line(result: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


# -- reporting -----------------------------------------------------------------------


def hygiene(seed: int, seconds: float, scale: float) -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "load_1m": round(os.getloadavg()[0], 2),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "children": "PYTHONHASHSEED=0, one at a time",
    }


def _format(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}"


def print_end_to_end(results: dict[str, dict]) -> None:
    header = ["workload", "reps"] + [f"{name} [{END_TO_END[name][0]}]" for name in END_TO_END]
    rows = [
        [workload, str(result["reps"])] + [_format(result["metrics"][name]) for name in END_TO_END]
        for workload, result in results.items()
    ]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print("host rates and costs: fastest timed rep; sim metrics: pooled over the sub-seeds")
    for workload, result in results.items():
        print(f"sizes {workload}: {json.dumps(result['sizes'])}")


def print_per_layer(results: dict[str, dict]) -> None:
    names = list(results)
    print("per-layer metric [unit]".ljust(52) + "  ".join(name[:14].rjust(14) for name in names))
    for metric, spec in PER_LAYER.items():
        cells = [_format(results[name]["metrics"][metric]).rjust(14) for name in names]
        print(f"{metric} [{spec[0]}]".ljust(52) + "  ".join(cells))
    for name in names:
        print(f"spans {name}: {results[name]['spans']} in bench/out/spans-{name}.jsonl")


def report_problems(results: dict[str, dict]) -> bool:
    failed = False
    for workload, result in results.items():
        for problem in result["problems"]:
            failed = True
            print(f"CHECK FAILED {workload}: {problem}", file=sys.stderr)
    return failed


def _spread(quartiles: list[float]) -> float:
    return (quartiles[2] - quartiles[0]) / quartiles[1] if quartiles[1] else 0.0


def compare_sets(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """Print both sets side by side; True when they disagree beyond the bounds."""
    disagree = False
    print("A/A: two complete sets of the same code")
    print(f"{'workload':20s}{'metric':24s}{'set A':>16s}{'set B':>16s}{'worse by':>10s}{'bound':>8s}  verdict")
    for workload in first:
        for name, (unit, better, bound, side, _why) in END_TO_END.items():
            a = first[workload]["metrics"][name]
            b = second[workload]["metrics"][name]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            spreads = [
                _spread(result[workload]["quartiles"][name])
                for result in (first, second)
                if name in result[workload]["quartiles"]
            ]
            if side == "sim":
                verdict = "identical" if a == b else "SIM DIFFERS"
            elif spreads and max(spreads) > bound:
                verdict = f"unresolved (rep IQR/median {max(spreads):.3f} > bound)"
            elif abs(worse) > bound:
                verdict = "DISAGREE"
            else:
                verdict = "agree"
            disagree = disagree or verdict in ("SIM DIFFERS", "DISAGREE")
            unresolved = verdict.startswith("unresolved")
            shown = ("unresolved", "unresolved") if unresolved else (_format(a), _format(b))
            print(
                f"{workload:20s}{name:24s}{shown[0]:>16s}{shown[1]:>16s}"
                f"{worse:>+10.3f}{bound:>8.2f}  {verdict}"
            )
            for label, result in (("A", first), ("B", second)):
                quartiles = result[workload]["quartiles"].get(name)
                if quartiles:
                    print(f"{'':44s}set {label} quartiles: " + " / ".join(_format(q) for q in quartiles))
    return disagree


def save_raw(tag: str, payload: dict) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps(payload, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="end-to-end metrics, then the per-layer passes")
    parser.add_argument("--aa", action="store_true", help="two complete sets; non-zero exit if they disagree")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink request counts (self-test)")
    args = parser.parse_args(argv)

    try:
        spec = manifest()
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        known = [entry["name"] for entry in spec["workloads"]]
        if args.workload is not None and args.workload not in known:
            raise BenchmarkError(f"unknown workload {args.workload!r}; known: {known}")
        selected = [args.workload] if args.workload else known
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        info = hygiene(args.seed, seconds, args.scale)
        print("# " + json.dumps(info))
        started = time.perf_counter()

        end_to_end: dict[str, dict] = {}
        second_set: dict[str, dict] = {}
        per_layer: dict[str, dict] = {}
        only_layers = args.trace == 1 and not args.traced
        if not only_layers:
            for workload in selected:
                end_to_end[workload] = measure_end_to_end(workload, args.seed, seconds, args.scale)
            print_end_to_end(end_to_end)
        if args.aa:
            for workload in selected:
                second_set[workload] = measure_end_to_end(workload, args.seed, seconds, args.scale)
        if args.traced or only_layers:
            for workload in selected:
                per_layer[workload] = measure_per_layer(workload, args.seed, seconds, args.scale)
            print_per_layer(per_layer)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2

    failed = report_problems(end_to_end) | report_problems(second_set) | report_problems(per_layer)
    if args.aa:
        failed = compare_sets(end_to_end, second_set) or failed
    save_raw(
        f"results-seed{args.seed}",
        {"hygiene": info, "end_to_end": end_to_end, "second_set": second_set, "per_layer": per_layer},
    )
    print(f"# {time.perf_counter() - started:.1f}s", flush=True)
    if args.workload:
        results, catalogue = (per_layer, PER_LAYER) if only_layers else (end_to_end, END_TO_END)
        units = {name: entry[0] for name, entry in catalogue.items()}
        print(result_line(results[args.workload], units))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
