"""Render BENCH_kernel.json as a markdown summary.

Usage::

    python benchmarks/render_bench.py [BENCH_kernel.json [BENCH_kernel.md]]

CI runs this after the kernel benchmarks and uploads the markdown next to
the JSON (and into the job's step summary). Missing sections are skipped
so the renderer keeps working as the benchmark suite evolves.
"""

from __future__ import annotations

import json
import pathlib
import sys

__all__ = ["render_markdown"]


def _row(cells: list[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = [_row(headers), _row(["---"] * len(headers))]
    lines.extend(_row(row) for row in rows)
    return lines


def render_markdown(results: dict) -> str:
    """The BENCH_kernel.json payload as a readable markdown report."""
    lines = ["# Kernel benchmark summary", ""]
    baseline = results.get("baseline_pr3", {})

    throughput = results.get("event_throughput")
    if throughput:
        pr3 = baseline.get("event_throughput_events_per_sec")
        rows = [
            [
                "raw kernel (timeout churn)",
                f"{throughput['events_per_sec']:,.0f} events/sec",
                f"{throughput['events_per_sec'] / pr3:.2f}x vs PR 3" if pr3 else "—",
            ]
        ]
        churn = results.get("deadline_churn")
        if churn:
            rows.append(
                [
                    "deadline churn (short processes under a far deadline)",
                    f"{churn['events_per_sec']:,.0f} events/sec",
                    f"{churn['final_heap_length']} heap entries left of {churn['round_trips']:,}",
                ]
            )
        lines += ["## Throughput", ""]
        lines += _table(["workload", "throughput", "vs baseline"], rows)
        lines.append("")

    micro_rows = []
    copy = results.get("envelope_copy")
    if copy:
        micro_rows.append(
            ["`SoapEnvelope.copy` vs `deep_copy`", f"{copy['speedup']:.1f}x"]
        )
    expr = results.get("expression_eval")
    if expr:
        micro_rows.append(
            ["compiled conditions vs AST walker", f"{expr['speedup']:.1f}x"]
        )
    if micro_rows:
        lines += ["## Hot-path fast paths", ""]
        lines += _table(["fast path", "speedup"], micro_rows)
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str]) -> int:
    source = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("BENCH_kernel.json")
    target = pathlib.Path(argv[2]) if len(argv) > 2 else source.with_suffix(".md")
    markdown = render_markdown(json.loads(source.read_text()))
    target.write_text(markdown)
    print(markdown)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
