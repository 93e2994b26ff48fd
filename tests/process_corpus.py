"""The process-document golden corpus.

Every process document the repository builds, plus two hand-built trees
holding every activity class — once with every attribute and child slot
set, once from its required arguments only.
``tests/golden/process_xml/<name>`` holds each document's serialised text
as recorded on the commit *before* activities were declared once and the
XML codec became declaration-driven (PR 17); ``test_process_golden.py``
compares byte for byte. The documents:

- ``definition-*.xml``: ``serialize_process_definition`` of every
  case-study builder;
- ``customized-*.xml``: ``serialize_activity(instance.root)`` of a trading
  instance once its customizations (static, then dynamic) are applied, one
  per order profile;
- ``variation-*.xml``: every activity an ``AddActivity``/``ReplaceActivity``
  assertion of the policy corpus builds;
- ``every-field.xml`` / ``every-default.xml``: the two hand-built trees;
- ``modification-journal.json``: the ``modification_applied`` journal
  payloads of that customized trading run (pins the operation records).

Re-record (only when the wire format is meant to change) with
``PYTHONPATH=src python tests/process_corpus.py``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from policy_corpus import corpus as policy_corpus
from test_dehydration import _declarative_activities, customized_trading_deployment

from repro.casestudies.scm.process import build_scm_process, build_scm_saga_process
from repro.casestudies.stocktrading import ORDER_PROFILES
from repro.casestudies.stocktrading.process import (
    build_trading_process,
    build_trading_saga_process,
)
from repro.orchestration import (
    Assign,
    Compensate,
    CompensationScope,
    Delay,
    Empty,
    Flow,
    IfElse,
    Invoke,
    Receive,
    Reply,
    Scope,
    Sequence,
    Terminate,
    Throw,
    While,
    serialize_activity,
    serialize_process_definition,
)
from repro.persistence import EVENT
from repro.soap import FaultCode

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "process_xml"


def every_field_tree() -> Sequence:
    """Every class, every attribute away from its default, every slot filled."""
    return Sequence(
        "every-field",
        _declarative_activities()
        + [
            Invoke(
                "invoke-abstract",
                operation="rate",
                service_type="CreditRating",
                output_variable="rating_response",
                timeout_seconds=None,
                padding_variable="padding",
            ),
            While("while-bounded", "x < 3", body=Empty("w-body"), max_iterations=7),
            Assign("assign-literal", "greeting", value="it's <here> & \"there\""),
            Assign("assign-number", "ratio", value=0.25),
        ],
    )


def every_default_tree() -> Sequence:
    """Every class built from its required arguments only."""
    return Sequence(
        "every-default",
        [
            Empty("empty"),
            Assign("assign", "x"),
            Delay("delay", 0),
            Sequence("sequence"),
            Flow("flow"),
            IfElse("if", "x", then=Empty("then")),
            While("while", "x", body=Empty("body")),
            Invoke("invoke", operation="op", to="http://svc"),
            Receive("receive"),
            Reply("reply", variable="x"),
            Throw("throw", FaultCode.CLIENT, ""),
            Terminate("terminate"),
            Scope("scope", body=Empty("scope-body")),
            CompensationScope("saga", body=Empty("saga-body")),
            Compensate("compensate"),
        ],
    )


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


def _customized_trading_run() -> dict[str, str]:
    """Customized trees per order profile, and the journal of their edits."""
    deployment, store = customized_trading_deployment(seed=7)
    documents, instances = {}, []
    for name, profile in ORDER_PROFILES.items():
        instances.append(deployment.place_order(investor_id=f"investor-{name}", **profile))
    deployment.env.run(deployment.env.all_of([i.process for i in instances]))
    for name, instance in zip(ORDER_PROFILES, instances):
        documents[f"customized-{name}.xml"] = serialize_activity(instance.root)
    payloads = [
        {"instance_id": record["instance_id"], **record["data"]}
        for record in store.records(record_type=EVENT)
        if record["event"] == "modification_applied"
    ]
    assert payloads, "the customization policies must have edited some instance"
    documents["modification-journal.json"] = json.dumps(payloads, indent=1, sort_keys=True)
    return documents


def corpus() -> dict[str, str]:
    """``file name -> text the current code produces`` for every golden file."""
    retailer, logging = "http://scm/retailerC", "http://scm/logging"
    trading = ("http://trading/fund", "http://trading/analysis")
    definitions = {
        "scm": build_scm_process(retailer, logging),
        "scm-saga": build_scm_saga_process(retailer, logging),
        "scm-saga-abort": build_scm_saga_process(retailer, logging, abort=True),
        "trading": build_trading_process(
            *trading, "http://trading/compliance", "http://trading/market"
        ),
        "trading-saga": build_trading_saga_process(
            *trading, "http://trading/market", "http://trading/payment"
        ),
        "trading-saga-abort": build_trading_saga_process(
            *trading, "http://trading/market", "http://trading/payment", abort=True
        ),
    }
    documents = {
        f"definition-{name}.xml": serialize_process_definition(definition)
        for name, definition in definitions.items()
    }
    documents.update(_customized_trading_run())
    for document_name, document in policy_corpus().items():
        for policy in document.adaptation_policies:
            for index, action in enumerate(policy.actions):
                if hasattr(action, "build_activity"):
                    name = _safe(f"variation-{document_name}-{policy.name}-{index}")
                    documents[f"{name}.xml"] = serialize_activity(action.build_activity())
    documents["every-field.xml"] = serialize_activity(every_field_tree())
    documents["every-default.xml"] = serialize_activity(every_default_tree())
    return documents


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in corpus().items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(name)
