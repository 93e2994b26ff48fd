"""Simulation-kernel and sharded-runner benchmarks (kernel v2).

Measures each layer of the kernel-v2 optimization stack and the end-to-end
win, and writes the numbers to ``BENCH_kernel.json`` (repo root) so CI can
archive them:

- events/sec through the raw simulation core (timeout churn), and through
  the timed-exchange shape (deadline churn: short processes under a far
  deadline, with what they leave in the heap),
- ``SoapEnvelope.copy`` (header-shallow, cache-carrying) against the
  reference ``deep_copy`` it replaced,
- compiled policy-condition expressions against the reference AST walker,
- the Table 1 workload end to end: wall-clock, true events/sec (via the
  kernel's event counter), and the speedup against the frozen PR 3
  baseline,
- a jobs-scaling sweep (1, 2, 4, 8 workers) over the same workload.

Shape assertions are deliberately loose (CI machines vary); the honest
numbers live in the JSON artifact. The jobs=4-beats-jobs=1 gate is
conditioned on ``cpu_count > 1``: on a single-core box the pool can only
add overhead, so the hard assertion there is "bounded overhead".
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.experiments import regenerate_table1
from repro.orchestration.expressions import Expression, _compiled, _evaluate
from repro.simulation import Environment
from repro.soap import SoapEnvelope
from repro.xmlutils import Element

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: The PR 3 numbers this branch is measured against, frozen from the
#: BENCH_kernel.json that PR 3 committed (same reduced Table 1 workload:
#: seeds (11, 23, 47), 2 clients, 80 requests/client, 1-CPU CI box).
PR3_BASELINE = {
    "event_throughput_events_per_sec": 518_506.0,
    "table1_jobs1_seconds": 0.682,
    "table1_jobs4_seconds": 1.241,
    "table1_jobs4_speedup": 0.549,
}

_RESULTS: dict = {"baseline_pr3": PR3_BASELINE}


def _record(section: str, payload: dict) -> None:
    _RESULTS[section] = payload
    RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ticker(env, count):
    for _ in range(count):
        yield env.timeout(0.001)


def test_event_throughput_microbench(benchmark):
    """Raw kernel speed: schedule and process timeout events."""
    events = 20_000

    def run():
        env = Environment()
        for _ in range(8):
            env.process(_ticker(env, events // 8))
        env.run()
        return env.now

    benchmark.pedantic(run, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.min
    events_per_sec = events / seconds
    _record(
        "event_throughput",
        {
            "events": events,
            "seconds_min": seconds,
            "events_per_sec": events_per_sec,
            "vs_pr3": events_per_sec / PR3_BASELINE["event_throughput_events_per_sec"],
        },
    )
    print(f"\n  {events_per_sec:,.0f} events/sec")
    assert events_per_sec > 50_000  # loose floor: a laptop does millions


def _round_trip(env):
    yield env.timeout(0.001)


def _timed_caller(env, count):
    for _ in range(count):
        yield env.process(_round_trip(env)).expire_after(30.0)


def test_deadline_churn_microbench(benchmark):
    """Short processes under a far deadline: every one cancels its timer."""
    round_trips = 20_000

    def run():
        env = Environment()
        callers = [env.process(_timed_caller(env, round_trips // 8)) for _ in range(8)]
        env.run(env.all_of(callers))  # not to exhaustion: what is left is the point
        return env

    env = benchmark.pedantic(run, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.min
    events_per_sec = env.events_processed / seconds
    heap_length = len(env._queue)
    _record(
        "deadline_churn",
        {
            "round_trips": round_trips,
            "events": env.events_processed,
            "seconds_min": seconds,
            "events_per_sec": events_per_sec,
            "final_heap_length": heap_length,
        },
    )
    print(f"\n  {events_per_sec:,.0f} events/sec, {heap_length} heap entries at the end")
    assert env.now < 30.0  # no deadline was ever reached, or waited for
    assert heap_length <= 40  # left to fire dead they would all still be there
    assert events_per_sec > 50_000


def _sample_envelope() -> SoapEnvelope:
    envelope = SoapEnvelope.request(
        "http://svc/a", "urn:op:x", Element("q", text="x" * 64), padding=4096
    )
    envelope.add_header(Element("h", text="meta"))
    envelope.size_bytes  # warm the cache, as middleware hot paths do
    return envelope


def test_envelope_copy_fast_path(benchmark):
    """Header-shallow copy vs the deep reference implementation."""
    envelope = _sample_envelope()
    iterations = 2_000

    def fast():
        for _ in range(iterations):
            envelope.copy().size_bytes

    def deep():
        for _ in range(iterations):
            envelope.deep_copy().size_bytes

    start = time.perf_counter()
    deep()
    deep_seconds = time.perf_counter() - start
    benchmark.pedantic(fast, rounds=3, iterations=1)
    fast_seconds = benchmark.stats.stats.mean
    speedup = deep_seconds / fast_seconds
    _record(
        "envelope_copy",
        {
            "iterations": iterations,
            "deep_copy_seconds": deep_seconds,
            "copy_seconds": fast_seconds,
            "speedup": speedup,
        },
    )
    print(f"\n  copy() {speedup:.1f}x faster than deep_copy()")
    assert speedup > 2.0


def test_expression_compile_fast_path(benchmark):
    """Compiled policy conditions vs the reference AST walker."""
    source = "response_time > threshold * 1.5 and (failures >= 3 or availability < 0.95)"
    variables = {
        "response_time": 2.5,
        "threshold": 1.0,
        "failures": 4,
        "availability": 0.99,
    }
    expression = Expression(source)
    body, _run = _compiled(source)
    iterations = 5_000

    def compiled():
        for _ in range(iterations):
            expression.evaluate(variables)

    def walker():
        for _ in range(iterations):
            _evaluate(body, variables)

    start = time.perf_counter()
    walker()
    walker_seconds = time.perf_counter() - start
    benchmark.pedantic(compiled, rounds=3, iterations=1)
    compiled_seconds = benchmark.stats.stats.mean
    speedup = walker_seconds / compiled_seconds
    _record(
        "expression_eval",
        {
            "iterations": iterations,
            "walker_seconds": walker_seconds,
            "compiled_seconds": compiled_seconds,
            "speedup": speedup,
        },
    )
    print(f"\n  compiled conditions {speedup:.1f}x faster than the AST walker")
    assert speedup > 1.5
    assert expression.evaluate(variables) is _evaluate(body, variables)


TABLE1_KWARGS = dict(seeds=(11, 23, 47), clients=2, requests=80)


def test_table1_end_to_end_jobs1_vs_jobs4(benchmark):
    """The sharded runner on the real Table 1 workload (reduced volume)."""
    regenerate_table1(jobs=1, **TABLE1_KWARGS)  # warm import/intern caches

    jobs1_seconds = float("inf")
    events_per_run = 0
    for _ in range(3):
        before = Environment.total_events_processed
        start = time.perf_counter()
        sequential = regenerate_table1(jobs=1, **TABLE1_KWARGS)
        elapsed = time.perf_counter() - start
        events_per_run = Environment.total_events_processed - before
        jobs1_seconds = min(jobs1_seconds, elapsed)

    def sharded():
        return regenerate_table1(jobs=4, **TABLE1_KWARGS)

    rows = benchmark.pedantic(sharded, rounds=2, iterations=1)
    jobs4_seconds = benchmark.stats.stats.min
    cpus = _cpu_count()
    events_per_sec = events_per_run / jobs1_seconds
    speedup_vs_pr3 = PR3_BASELINE["table1_jobs1_seconds"] / jobs1_seconds
    _record(
        "table1_end_to_end",
        {
            "seeds": list(TABLE1_KWARGS["seeds"]),
            "clients": TABLE1_KWARGS["clients"],
            "requests": TABLE1_KWARGS["requests"],
            "cpu_count": cpus,
            "jobs1_seconds": jobs1_seconds,
            "jobs4_seconds": jobs4_seconds,
            "speedup": jobs1_seconds / jobs4_seconds,
            "events_processed": events_per_run,
            "events_per_sec": events_per_sec,
            "workload_speedup_vs_pr3_jobs1": speedup_vs_pr3,
            "byte_identical": rows == sequential,
        },
    )
    print(
        f"\n  jobs=1 {jobs1_seconds:.2f}s ({events_per_sec:,.0f} events/sec, "
        f"{speedup_vs_pr3:.2f}x the PR 3 wall-clock)  jobs=4 {jobs4_seconds:.2f}s "
        f"({jobs1_seconds / jobs4_seconds:.2f}x on {cpus} CPU(s))"
    )
    # Identical merged rows — the pool must not change the science.
    assert rows == sequential
    # The same workload that took PR 3 0.682s of kernel time must now clear
    # 3x; wall-clock on the same box is the comparable ratio (the event
    # *count* also dropped — fewer wrapper processes per request).
    assert speedup_vs_pr3 > 2.0  # loose floor for slow CI; honest number in JSON
    # The speedup scales with cores; on a single-core box the pool can only
    # add overhead, so the hard assertion is "bounded overhead" there and
    # "actually faster" wherever a second core exists.
    if cpus and cpus >= 2:
        assert jobs4_seconds < jobs1_seconds
    else:
        assert jobs4_seconds < jobs1_seconds * 2.0


def test_table1_jobs_scaling(benchmark):
    """Speedup-vs-serial across worker counts, recorded over time in CI."""
    regenerate_table1(jobs=1, **TABLE1_KWARGS)  # warm

    def timed(jobs: int) -> float:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            regenerate_table1(jobs=jobs, **TABLE1_KWARGS)
            best = min(best, time.perf_counter() - start)
        return best

    benchmark.pedantic(lambda: timed(1), rounds=1, iterations=1)
    serial = timed(1)
    cpus = _cpu_count()
    scaling = {}
    for jobs in (2, 4, 8):
        seconds = timed(jobs)
        scaling[str(jobs)] = {
            "seconds": seconds,
            "speedup_vs_serial": serial / seconds,
        }
    _record(
        "jobs_scaling",
        {"cpu_count": cpus, "jobs1_seconds": serial, "jobs": scaling},
    )
    for jobs, entry in scaling.items():
        print(
            f"\n  jobs={jobs}: {entry['seconds']:.2f}s "
            f"({entry['speedup_vs_serial']:.2f}x vs serial)"
        )
    if cpus and cpus >= 2:
        assert scaling["4"]["speedup_vs_serial"] > 1.0
