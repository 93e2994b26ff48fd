"""The endpoint-fault golden corpus.

Every endpoint fault the SCM experiments inject ends in assignments to a
Retailer endpoint's ``available`` or ``added_delay_seconds``. This corpus
records each such assignment as ``(time, attribute, value)``, per Retailer,
through a ``__setattr__`` recorder swapped onto the endpoints after the
deployment is built:

- the Table 1 mix at seeds 11 and 23 and the fault-storm mix at seed 7,
  each injected on a fresh deployment and run to a fixed horizon with no
  workload;
- the fleet storm's endpoint outage (``FLEET_STORM``), run as a scenario;
- for the Table 1 seeds, the availability each direct configuration reads
  off the fault log (:attr:`RunResult.availability` of ``table1_direct``).

``tests/golden/faults/<name>.json`` holds the recorded values, compared
with ``==`` by ``test_fault_golden.py``. They were recorded before the
endpoint injectors became one fault spec and one driver; do not re-record
them. (``PYTHONPATH=src python tests/fault_corpus.py`` writes them.)
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import repro.experiments.scenario as scenario_module
from mediation_corpus import FLEET_STORM
from repro.casestudies.scm import build_scm_deployment
from repro.experiments import run, table1_direct
from repro.transport import NetworkEndpoint

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "faults"

#: Simulated seconds each no-workload fault mix runs for.
TABLE1_HORIZON = 20_000.0
STORM_HORIZON = 2_000.0

_RECORDED = ("available", "added_delay_seconds")


class _RecordingEndpoint(NetworkEndpoint):
    """A :class:`NetworkEndpoint` that logs every fault-visible assignment."""

    def __setattr__(self, name, value):
        if name in _RECORDED:
            env, log = self._fault_recorder
            log.append([env.now, name, value])
        object.__setattr__(self, name, value)


def _record(deployment) -> dict[str, list]:
    """Swap the recorder onto every Retailer endpoint; return the logs."""
    logs: dict[str, list] = {}
    for name, retailer in sorted(deployment.retailers.items()):
        endpoint = deployment.network.endpoint(retailer.address)
        endpoint.__class__ = _RecordingEndpoint
        object.__setattr__(endpoint, "_fault_recorder", (deployment.env, logs.setdefault(name, [])))
    return logs


def _mix(seed: int, inject, horizon: float) -> dict[str, list]:
    deployment = build_scm_deployment(seed=seed, log_events=False)
    logs = _record(deployment)
    inject(deployment)
    deployment.env.run(until=horizon)
    return logs


def _table1(seed: int) -> dict:
    return {
        "horizon": TABLE1_HORIZON,
        "assignments": _mix(seed, lambda d: d.inject_table1_mix(), TABLE1_HORIZON),
        "direct_availability": {
            name: run(table1_direct(name, seed, clients=2, requests=40)).availability
            for name in "ABCD"
        },
    }


def _storm() -> dict:
    return {
        "horizon": STORM_HORIZON,
        "assignments": _mix(7, lambda d: d.inject_fault_storm(), STORM_HORIZON),
    }


def _fleet_outage() -> dict:
    recorded: list[dict] = []

    def recording_deployment(**options):
        deployment = build_scm_deployment(**options)
        recorded.append(_record(deployment))
        return deployment

    original = scenario_module.build_scm_deployment
    scenario_module.build_scm_deployment = recording_deployment
    try:
        result = run(FLEET_STORM)
    finally:
        scenario_module.build_scm_deployment = original
    (assignments,) = recorded
    return {"assignments": assignments, "delivered": result.delivered}


SCENARIOS = {
    "table1-seed11": lambda: _table1(11),
    "table1-seed23": lambda: _table1(23),
    "storm-seed7": _storm,
    "fleet-storm-outage": _fleet_outage,
}


def record(name: str) -> dict:
    """Run one corpus entry and return its JSON-ready values."""
    return json.loads(json.dumps(SCENARIOS[name]()))


def _dump(recorded: dict) -> str:
    """Indented JSON with each assignment on one line."""
    text = json.dumps(recorded, indent=1, sort_keys=True)
    return re.sub(r"\[[^\[\]{}]+\]", lambda m: json.dumps(json.loads(m.group())), text) + "\n"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIOS:
        recorded = record(scenario)
        (GOLDEN_DIR / f"{scenario}.json").write_text(_dump(recorded), encoding="utf-8")
        print(scenario, sum(len(log) for log in recorded["assignments"].values()), "assignments")
