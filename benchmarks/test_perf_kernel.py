"""Simulation-kernel benchmarks (kernel v2).

Measures the kernel and the two hot-path fast paths, and writes the
numbers to ``BENCH_kernel.json`` (repo root) so CI can archive them:

- events/sec through the raw simulation core (wait churn: processes
  yielding delays), and through the timed-exchange shape (deadline churn:
  short processes under a far deadline, with what they leave in the heap),
- a yielded delay against the ``Timeout`` event it replaced, per wait,
- ``SoapEnvelope.copy`` (header-shallow, cache-carrying) against the
  reference ``deep_copy`` it replaced,
- compiled policy-condition expressions against the reference AST walker.

Shape assertions are deliberately loose (CI machines vary); the honest
numbers live in the JSON artifact. The end-to-end workloads, Table 1
included, are measured by ``bench/run.py``.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.orchestration.expressions import Expression, _compiled, _evaluate
from repro.simulation import Environment
from repro.soap import SoapEnvelope
from repro.xmlutils import Element

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: The PR 3 numbers this branch is measured against, frozen from the
#: BENCH_kernel.json committed then (1-CPU CI box).
PR3_BASELINE = {
    "event_throughput_events_per_sec": 518_506.0,
}

_RESULTS: dict = {"baseline_pr3": PR3_BASELINE}


def _record(section: str, payload: dict) -> None:
    _RESULTS[section] = payload
    RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


def _ticker(env, count):
    for _ in range(count):
        yield 0.001


def _timeout_ticker(env, count):
    for _ in range(count):
        yield env.timeout(0.001)


def test_event_throughput_microbench(benchmark):
    """Raw kernel speed: schedule and process waits.

    The frozen baseline was measured with ``yield env.timeout(0.001)``; the
    ticker now yields the delay, so ``vs_pr3`` includes that change of idiom.
    """
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
    yield 0.001


def _timed_caller(env, count):
    for _ in range(count):
        yield env.call(_round_trip(env), 30.0)


def test_deadline_churn_microbench(benchmark):
    """Short calls under a far deadline: none ever puts its timer in the heap."""
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


def test_wait_fast_path():
    """One wait as a yielded delay against the Timeout event it replaced."""
    events = 20_000

    def us_per_event(ticker) -> float:
        best = float("inf")
        for _ in range(3):
            env = Environment()
            for _ in range(8):
                env.process(ticker(env, events // 8))
            start = time.perf_counter()
            env.run()
            best = min(best, time.perf_counter() - start)
        return best * 1e6 / env.events_processed

    timeout_us = us_per_event(_timeout_ticker)
    delay_us = us_per_event(_ticker)
    _record(
        "wait",
        {
            "events": events,
            "delay_us_per_event": delay_us,
            "timeout_us_per_event": timeout_us,
            "speedup": timeout_us / delay_us,
        },
    )
    print(f"\n  delay {delay_us:.2f} us/event, timeout {timeout_us:.2f} us/event")
    assert delay_us < timeout_us


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
