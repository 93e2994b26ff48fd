"""The simulation-kernel fast path must not change simulated metrics.

The envelope copy-on-write and measured-size optimizations only touch *how*
values are computed, never the values: these tests pin that down by running
the same seeded experiment twice — once on the fast path, once with the
reference implementations (``deep_copy`` and the serialize-and-count size
oracle) monkeypatched back in — and asserting the per-record metric streams
are identical, float for float. A count-based guard then pins the *how*:
sizing a message never serializes it.
"""

import sys
from dataclasses import asdict

from conftest import serialized_size

from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    build_scm_deployment,
    traffic_policy_document,
)
from repro.experiments import order_plan, run_vep_configuration
from repro.policy import PolicyRepository
from repro.soap import SOAP_ENV_NS, SoapEnvelope
from repro.workload import WorkloadRunner
from repro.wsbus import WsBus
from repro.xmlutils import Element, QName, serialize_xml


def _run(seed):
    row, _bus, result = run_vep_configuration(seed, clients=2, requests=40)
    records = [
        (
            record.caller,
            record.target,
            record.operation,
            record.started_at,
            record.finished_at,
            record.outcome.value,
            record.fault_code.value if record.fault_code else None,
            record.request_bytes,
            record.response_bytes,
        )
        for record in result.records
    ]
    return asdict(row), records


def test_fast_path_metrics_identical_to_reference(monkeypatch):
    fast = _run(seed=11)
    with monkeypatch.context() as patch:
        patch.setattr(SoapEnvelope, "copy", SoapEnvelope.deep_copy)
        patch.setattr(SoapEnvelope, "size_bytes", property(serialized_size))
        reference = _run(seed=11)
    assert fast[0] == reference[0]  # Table1Row
    assert fast[1] == reference[1]  # full per-record stream


def test_copy_and_deep_copy_serialize_identically():
    envelope = SoapEnvelope.request(
        "http://svc/a", "urn:op:x", Element("q", text="payload"), padding=256
    )
    envelope.add_header(Element("h", text="meta"))
    assert envelope.copy().to_xml() == envelope.deep_copy().to_xml()
    assert envelope.copy().size_bytes == envelope.deep_copy().size_bytes


def _serialized_envelopes(monkeypatch):
    """Replace every ``repro`` module's binding of ``serialize_xml`` with a
    wrapper that counts the SOAP envelopes passed to it (set-up serializes
    policy documents; messages are the concern here); the returned one-item
    list holds the count."""
    calls = [0]

    def counted(element, *args, **kwargs):
        calls[0] += element.name == QName(SOAP_ENV_NS, "Envelope")
        return serialize_xml(element, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "serialize_xml", None) is serialize_xml:
            monkeypatch.setattr(module, "serialize_xml", counted)
    return calls


def test_the_counter_sees_envelope_serialization(monkeypatch):
    calls = _serialized_envelopes(monkeypatch)
    SoapEnvelope.request("http://svc/a", "urn:op:x", Element("q")).to_xml()
    assert calls == [1]


def test_table1_vep_run_never_serializes(monkeypatch):
    calls = _serialized_envelopes(monkeypatch)
    _row, _bus, result = run_vep_configuration(11, clients=2, requests=40)
    assert len(result.records) == 80
    assert all(record.request_bytes > 0 for record in result.records)
    assert calls == [0]


def test_keyed_overload_run_never_serializes(monkeypatch):
    """Keyed writes carry a stamped ``masc:IdempotencyKey`` header, which
    used to force a serialization per sizing."""
    calls = _serialized_envelopes(monkeypatch)
    deployment = build_scm_deployment(seed=11, log_events=False)
    repository = PolicyRepository()
    repository.load(traffic_policy_document())
    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=repository,
        registry=deployment.registry,
        random_source=deployment.random_source,
    )
    vep = bus.create_vep(
        "retailers",
        RETAILER_CONTRACT,
        members=deployment.retailer_addresses,
        selection_strategy="round_robin",
    )
    result = WorkloadRunner(deployment.env, deployment.network).run(
        order_plan(vep.address), clients=6, requests_per_client=10
    )
    assert len(result.successes) > 0
    assert deployment.container.idempotency.stats()["recorded"] > 0
    assert calls == [0]
