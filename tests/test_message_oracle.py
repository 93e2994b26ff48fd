"""Measured message sizes and message-tree lifetimes on real traffic.

The transport's latency model reads ``SoapEnvelope.size_bytes``, which is
measured (a body summary plus a memoized frame), never serialized. These
tests wrap ``Network.send`` while whole runs execute and compare every
request and reply envelope that crosses it with the serializer's bytes:
unique bodies (every body summarized afresh), keyed writes (a visible
``masc:IdempotencyKey`` header) and policy-customized trading processes.
A second test checks that the element trees of those messages are freed
by reference counting, never left for the cyclic collector.
"""

import gc

import pytest
from conftest import serialized_size

from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    build_scm_deployment,
    traffic_policy_document,
)
from repro.casestudies.stocktrading import (
    ORDER_PROFILES,
    build_trading_deployment,
    customization_policy_documents,
)
from repro.experiments import order_plan
from repro.policy import PolicyRepository, serialize_policy_document
from repro.transport import Network
from repro.workload import WorkloadRunner
from repro.wsbus import WsBus
from repro.xmlutils import Element


@pytest.fixture
def checked_sends(monkeypatch):
    """Wrap ``Network.send``: every request and reply crossing it is checked
    against the serializer; the fixture's value lists the mismatches and
    counts the envelopes checked."""
    report = {"checked": 0, "mismatches": []}
    send = Network.send

    def check(envelope):
        report["checked"] += 1
        measured, expected = envelope.size_bytes, serialized_size(envelope)
        if measured != expected:
            report["mismatches"].append((envelope.action, measured, expected))

    def checked(self, envelope, timeout=None):
        check(envelope)
        response = yield from send(self, envelope, timeout)
        check(response)
        return response

    monkeypatch.setattr(Network, "send", checked)
    return report


def _unique_order_run(seed, clients, requests, padding):
    """The bare forwarding path with a fresh ``submitOrder`` body per
    request, as the stack benchmark's ``clean_large`` drives it."""
    deployment = build_scm_deployment(seed=seed, log_events=False)
    bus = WsBus(
        deployment.env,
        deployment.network,
        repository=PolicyRepository(),
        registry=deployment.registry,
        member_timeout=30.0,
        colocated_with_clients=True,
    )
    vep = bus.create_vep(
        "retailers",
        RETAILER_CONTRACT,
        members=[deployment.retailers["C"].address],
        selection_strategy="primary",
    )
    return WorkloadRunner(deployment.env, deployment.network).run(
        order_plan(vep.address, timeout=30.0, padding=padding),
        clients=clients,
        requests_per_client=requests,
    )


def _keyed_write_run(seed):
    deployment = build_scm_deployment(seed=seed, log_events=False)
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
    assert deployment.container.idempotency.stats()["recorded"] > 0
    return result


def _customized_trading_run(seed):
    deployment = build_trading_deployment(seed=seed)
    for document in customization_policy_documents():
        deployment.masc.load_policies(serialize_policy_document(document))
    instances = [
        deployment.place_order(investor_id=f"investor-{index}", **profile)
        for index in range(3)
        for profile in ORDER_PROFILES.values()
    ]
    deployment.env.run(deployment.env.all_of([instance.process for instance in instances]))
    return instances


class TestMeasuredSizeOnTraffic:
    def test_unique_bodies(self, checked_sends):
        result = _unique_order_run(seed=11, clients=2, requests=40, padding=32 * 1024)
        assert len(result.successes) == 80
        assert checked_sends["checked"] >= 80 * 8  # four hops per order, both ways
        assert checked_sends["mismatches"] == []

    def test_keyed_writes(self, checked_sends):
        result = _keyed_write_run(seed=11)
        assert len(result.successes) > 0
        assert checked_sends["checked"] >= 2 * len(result.successes)
        assert checked_sends["mismatches"] == []

    def test_customized_trading(self, checked_sends):
        instances = _customized_trading_run(seed=3)
        assert all(instance.status.value == "completed" for instance in instances)
        assert checked_sends["checked"] >= 8 * len(instances)
        assert checked_sends["mismatches"] == []


def test_message_trees_leave_no_cyclic_garbage():
    """Every element tree the run builds is freed by reference counting:
    with ``DEBUG_SAVEALL`` the cyclic collector keeps what it would have
    freed, and no ``Element`` is among it."""
    gc.collect()
    saved_flags = gc.get_debug()
    del gc.garbage[:]
    gc.set_debug(saved_flags | gc.DEBUG_SAVEALL)
    try:
        result = _unique_order_run(seed=11, clients=2, requests=50, padding=0)
        assert len(result.successes) == 100
        del result
        gc.collect()
        leaked = sum(isinstance(item, Element) for item in gc.garbage)
    finally:
        gc.set_debug(saved_flags)
        del gc.garbage[:]
    assert leaked == 0
