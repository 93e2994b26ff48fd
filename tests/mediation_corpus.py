"""The mediation-path golden corpus.

Five seeded runs that between them stand every stage of the VEP and send
chains in the path: a traced fault storm under the resilience tier and
the SLO engine, an overload storm under the traffic tier and under
shedding alone, a traced fleet storm (mediation gate, bus crash, endpoint outage), and a
traced Table 1 VEP cell on a bare bus. ``tests/golden/mediation/<name>.json``
holds, per run, SHA-256 digests of the full span stream in export order
(name, ids, parent, correlation, attributes, events, status, times), of
``metrics.snapshot()`` and of ``stats_summary()``, as recorded on the
commit *before* the hand-nested wrappers became one composed chain
(PR 14); ``test_mediation_golden.py`` compares them. Re-record (only when
the mediation path is meant to change what it emits) with
``PYTHONPATH=src python tests/mediation_corpus.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from repro.experiments import fault_storm, fleet_storm, overload_storm, run, table1_vep
from repro.faultinjection import BusCrash, EndpointFault
from repro.observability import InMemoryExporter, Tracer
from repro.soap import addressing

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "mediation"


def _traced():
    tracer = Tracer()
    exporter = InMemoryExporter()
    tracer.add_exporter(exporter)
    return tracer, exporter


def _fault_storm():
    tracer, exporter = _traced()
    result = run(fault_storm(5, resilience=True, slo=True), tracer=tracer)
    return exporter.spans, result.metrics, result.stats


def _overload_storm(traffic: bool):
    result = run(overload_storm(5, traffic=traffic))
    return [], result.metrics, result.stats


#: The crash+outage fleet storm (``tests/decision_corpus.py`` and
#: ``tests/test_trace_continuity.py`` run it too): bus-1 crashes at t=1.5
#: while retailerA is dark for t∈[0.5, 3.5), so SLO violations and VEP
#: failover overlap.
FLEET_STORM = fleet_storm(
    7,
    3,
    slo=True,
    clients=2,
    faults=(BusCrash("bus-1", 1.5), EndpointFault("http://scm/retailerA", 0.5, 3.0, cycles=1)),
)


def _fleet_storm():
    tracer, exporter = _traced()
    result = run(FLEET_STORM, tracer=tracer)
    return exporter.spans, result.metrics, result.stats


def _table1_vep_cell():
    tracer, exporter = _traced()
    result = run(table1_vep(11, clients=4, requests=120), tracer=tracer)
    return exporter.spans, result.metrics, result.stats


SCENARIOS = {
    "fault-storm-resilient-slo": _fault_storm,
    "overload-storm-traffic": lambda: _overload_storm(traffic=True),
    "overload-storm-shed-only": lambda: _overload_storm(traffic=False),
    "fleet-storm-crash-outage": _fleet_storm,
    "table1-vep-cell": _table1_vep_cell,
}


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(name: str) -> dict:
    """Run one scenario from a fresh message-ID counter and digest what it emitted."""
    # Correlation ids fall back to ``wsa:MessageID``, minted from a
    # process-wide counter: restart it so the digest does not depend on
    # what else ran in this interpreter.
    addressing._message_counter = itertools.count(1)
    spans, metrics, stats = SCENARIOS[name]()
    return {
        "span_count": len(spans),
        "spans": _sha256([span.to_dict() for span in spans]),
        "metrics": _sha256(metrics),
        "stats_summary": _sha256(stats),
    }


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIOS:
        recorded = digests(scenario)
        (GOLDEN_DIR / f"{scenario}.json").write_text(
            json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(scenario, recorded["span_count"], "spans")
