"""Cross-shard trace continuity under crash, failover and adaptation.

The tentpole scenario: a sharded fleet mediates a partitioned Retailer
workload while one member service goes dark (burning the SLO budget) and
one bus is crashed mid-run (forcing VEP failover and leader-driven
recovery). The ``masc:TraceContext`` wire header must keep each of those
journeys a *single* trace: client mediation root → VEP → send → SLO
violation (via the latency exemplar) → the leader's Adaptation Manager —
even when the chain crosses buses. Asserted from the exported JSONL, the
same artifact ``python -m repro trace`` consumes.
"""

import json

import pytest
from mediation_corpus import FLEET_STORM

from repro.experiments import run
from repro.observability import JsonlExporter, Tracer, read_spans_jsonl


def _run_traced(path):
    tracer = Tracer()
    tracer.add_exporter(JsonlExporter(path))
    result = run(FLEET_STORM, tracer=tracer)
    tracer.close()
    return result


@pytest.fixture(scope="module")
def continuity(tmp_path_factory):
    path = tmp_path_factory.mktemp("continuity") / "spans.jsonl"
    result = _run_traced(path)
    return result, read_spans_jsonl(path)


class TestScenarioFires:
    def test_crash_outage_and_slo_all_happened(self, continuity):
        result, spans = continuity
        assert result.crash_time == 1.5
        assert result.slo_events > 0
        assert result.forwarded_events > 0
        names = {span.name for span in spans}
        assert "federation.bus.crash" in names
        assert "federation.vep.failover" in names
        assert "slo.violation" in names
        assert "wsbus.adaptation.event" in names


class TestTraceContinuity:
    def test_one_trace_id_spans_client_to_leader_adaptation(self, continuity):
        result, spans = continuity
        by_id = {span.span_id: span for span in spans}
        events = [span for span in spans if span.name == "wsbus.adaptation.event"]
        assert events
        cross_bus_chains = 0
        for event in events:
            # Every adaptation event handled during the run must chain,
            # without a broken parent link, back to a client request root.
            chain = [event]
            cursor = event
            while cursor.parent_id is not None:
                assert cursor.parent_id in by_id, (
                    f"{cursor.name} {cursor.span_id} has an unexported parent"
                )
                cursor = by_id[cursor.parent_id]
                chain.append(cursor)
            root = chain[-1]
            assert root.name == "wsbus.mediate"
            assert len({span.trace_id for span in chain}) == 1
            assert "slo.violation" in {span.name for span in chain}
            # The event landed on the leader's Adaptation Manager.
            assert event.attributes.get("bus") == result.leader
            buses = {span.attributes.get("bus") for span in chain} - {None}
            if len(buses) >= 2:
                cross_bus_chains += 1
        # At least one chain crossed buses: the violation was observed on
        # a follower shard and adapted on the leader.
        assert cross_bus_chains > 0

    def test_member_leg_spans_join_the_client_trace(self, continuity):
        _result, spans = continuity
        by_id = {span.span_id: span for span in spans}
        exchanges = [span for span in spans if span.name == "net.exchange"]
        assert exchanges
        for exchange in exchanges:
            parent = by_id[exchange.parent_id]
            assert parent.name == "wsbus.send"
            assert parent.trace_id == exchange.trace_id

    def test_faulted_sends_carry_error_status_in_the_same_trace(self, continuity):
        _result, spans = continuity
        failed = [
            span
            for span in spans
            if span.name == "wsbus.send" and span.status != "ok"
        ]
        # The outage produced failed deliveries, traced like the rest.
        assert failed
        traces = {span.trace_id for span in spans}
        assert all(span.trace_id in traces for span in failed)


class TestDeterminism:
    def test_same_seed_same_spans_byte_for_byte(self, continuity, tmp_path):
        _result, first = continuity
        path = tmp_path / "repeat.jsonl"
        _run_traced(path)
        second = read_spans_jsonl(path)

        def canonical(spans):
            # Message ids come from a process-global counter, so a repeat
            # run in the same process numbers them differently; rename by
            # first appearance (a bijection) and compare everything else
            # byte for byte.
            renames = {}
            out = []
            for span in spans:
                record = span.to_dict()
                correlation = record["correlation_id"]
                if correlation is not None:
                    record["correlation_id"] = renames.setdefault(
                        correlation, f"corr-{len(renames):06d}"
                    )
                out.append(json.dumps(record, sort_keys=True))
            return out

        assert canonical(first) == canonical(second)
