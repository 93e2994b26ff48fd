"""The ``masc:TraceContext`` wire header and policy-driven sampling."""

import pytest

from repro.observability import (
    InMemoryExporter,
    TraceContext,
    Tracer,
    context_of_span,
    format_traceparent,
    parse_traceparent,
    stamp_trace_context,
    trace_context_of,
)
from repro.observability.sampling import TraceSampler, TracingService
from repro.policy import PolicyRepository
from repro.policy.actions import ActionError, TracingAction
from repro.soap import SoapEnvelope
from repro.xmlutils import Element


def make_envelope():
    return SoapEnvelope.request("http://svc", "urn:op:ping", Element("q", text="v"))


class TestTraceparent:
    def test_round_trip(self):
        context = TraceContext(trace_id="tr-000042", span_id="sp-000007")
        text = format_traceparent(context)
        assert text == "00-tr-000042-sp-000007-01"
        parsed = parse_traceparent(text)
        assert parsed.trace_id == "tr-000042"
        assert parsed.span_id == "sp-000007"
        assert parsed.sampled is True

    def test_unsampled_flag_round_trips(self):
        context = TraceContext(trace_id="tr-000001", span_id="sp-000001", sampled=False)
        text = format_traceparent(context)
        assert text.endswith("-00")
        assert parse_traceparent(text).sampled is False

    def test_dashes_inside_the_trace_id_survive(self):
        # The span id (always ``sp-<digits>``) anchors the split, so a
        # trace id may itself contain dashes.
        parsed = parse_traceparent("00-tr-000009-sp-000011-01")
        assert parsed.trace_id == "tr-000009"
        assert parsed.span_id == "sp-000011"

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "",
            "garbage",
            "00-tr-000001-xx-01",  # span id not sp-<digits>
            "00-tr-000001-sp-000001",  # flags missing
            "zz-tr-000001-sp-000001-01",  # non-hex version
            "ff-tr-000001-sp-000001-01",  # forbidden version
        ],
    )
    def test_malformed_values_yield_none_not_errors(self, text):
        assert parse_traceparent(text) is None

    def test_context_of_live_span(self):
        tracer = Tracer(clock=lambda: 0.0)
        span = tracer.start_span("wsbus.mediate", correlation_id="msg-9")
        context = context_of_span(span)
        assert context.trace_id == span.trace_id
        assert context.span_id == span.span_id
        assert context.correlation_id == "msg-9"
        assert context.sampled is True

    def test_trace_context_duck_types_as_start_span_parent(self):
        tracer = Tracer(clock=lambda: 0.0)
        context = TraceContext(
            trace_id="tr-000321", span_id="sp-000123", correlation_id="msg-5"
        )
        child = tracer.start_span("vep.handle", parent=context)
        assert child.trace_id == "tr-000321"
        assert child.parent_id == "sp-000123"
        assert child.correlation_id == "msg-5"


class TestWireHeader:
    def test_stamp_and_read_back(self):
        envelope = make_envelope()
        assert trace_context_of(envelope) is None
        context = TraceContext("tr-000001", "sp-000001", correlation_id="msg-1")
        stamp_trace_context(envelope, context)
        assert trace_context_of(envelope) == context

    def test_header_survives_xml_serialization(self):
        envelope = make_envelope()
        context = TraceContext("tr-000002", "sp-000003", correlation_id="msg-2")
        stamp_trace_context(envelope, context)
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert trace_context_of(parsed) == context

    def test_header_is_size_transparent(self):
        bare = make_envelope()
        stamped = make_envelope()
        stamp_trace_context(
            stamped, TraceContext("tr-000001", "sp-000001", correlation_id="msg-1")
        )
        # On the wire but not in the size model: a traced run keeps the
        # transport's size-dependent latencies byte-identical.
        assert stamped.size_bytes == bare.size_bytes
        assert "TraceContext" in stamped.to_xml()
        assert "TraceContext" not in bare.to_xml()

    def test_restamp_replaces_rather_than_accumulates(self):
        envelope = make_envelope()
        stamp_trace_context(envelope, TraceContext("tr-000001", "sp-000001"))
        stamp_trace_context(envelope, TraceContext("tr-000001", "sp-000009"))
        assert trace_context_of(envelope).span_id == "sp-000009"
        assert envelope.to_xml().count("TraceContext") == 2  # open + close tag

    def test_restamping_a_copy_never_mutates_the_original(self):
        # Envelope copies share header blocks; replacement must drop the
        # stale entry from the copy's own list, not edit the shared block.
        original = make_envelope()
        stamp_trace_context(original, TraceContext("tr-000001", "sp-000001"))
        attempt = original.copy()
        stamp_trace_context(attempt, TraceContext("tr-000001", "sp-000044"))
        assert trace_context_of(original).span_id == "sp-000001"
        assert trace_context_of(attempt).span_id == "sp-000044"

    def test_malformed_header_reads_as_absent(self):
        envelope = make_envelope()
        from repro.observability.trace_context import TRACE_CONTEXT_HEADER

        envelope.add_header(
            Element(TRACE_CONTEXT_HEADER, text="not-a-traceparent"), transparent=True
        )
        assert trace_context_of(envelope) is None


class TestTraceSampler:
    def test_rate_extremes(self):
        assert TraceSampler(sample_rate=1.0).sample("tr-000001") is True
        assert TraceSampler(sample_rate=0.0).sample("tr-000001") is False

    def test_mid_rate_is_deterministic_and_roughly_proportional(self):
        sampler = TraceSampler(sample_rate=0.25)
        ids = [f"tr-{index:06d}" for index in range(1, 2001)]
        decisions = [sampler.sample(trace_id) for trace_id in ids]
        assert decisions == [sampler.sample(trace_id) for trace_id in ids]
        share = sum(decisions) / len(decisions)
        assert 0.18 < share < 0.32

    def test_fault_and_violation_promotion_flags(self):
        from types import SimpleNamespace

        fault = SimpleNamespace(status="error:Unavailable", name="net.exchange")
        violation = SimpleNamespace(status="ok", name="slo.violation")
        ok = SimpleNamespace(status="ok", name="wsbus.send")
        sampler = TraceSampler(sample_rate=0.0)
        assert sampler.promotes(fault)
        assert sampler.promotes(violation)
        assert not sampler.promotes(ok)
        strict = TraceSampler(
            sample_rate=0.0,
            always_sample_faults=False,
            always_sample_slo_violations=False,
        )
        assert not strict.promotes(fault)
        assert not strict.promotes(violation)

    def test_action_validates_rate(self):
        with pytest.raises(ActionError):
            TracingAction(sample_rate=1.5)
        with pytest.raises(ActionError):
            TracingAction(sample_rate=-0.1)


class TestSamplingTracer:
    def _tracer(self, rate):
        tracer = Tracer(clock=lambda: 0.0)
        memory = tracer.add_exporter(InMemoryExporter())
        tracer.configure_sampling(TraceSampler(sample_rate=rate))
        return tracer, memory

    def test_unsampled_spans_are_buffered_not_exported(self):
        tracer, memory = self._tracer(rate=0.0)
        span = tracer.start_span("wsbus.mediate")
        span.end()
        assert memory.spans == []

    def test_fault_promotes_the_whole_buffered_trace(self):
        tracer, memory = self._tracer(rate=0.0)
        root = tracer.start_span("wsbus.mediate")
        child = tracer.start_span("net.exchange", parent=root)
        child.end(status="error:Unavailable")
        root.end()
        # The fault flushes retroactively and keeps the trace flowing:
        # the root, finishing after promotion, exports directly.
        assert [span.name for span in memory.spans] == [
            "net.exchange",
            "wsbus.mediate",
        ]

    def test_slo_violation_promotes_buffered_ancestors(self):
        tracer, memory = self._tracer(rate=0.0)
        root = tracer.start_span("wsbus.send")
        root.end()
        assert memory.spans == []
        violation = tracer.start_span("slo.violation", parent=root)
        violation.end()
        assert [span.name for span in memory.spans] == ["wsbus.send", "slo.violation"]

    def test_sampled_traces_export_immediately(self):
        tracer, memory = self._tracer(rate=1.0)
        tracer.start_span("wsbus.mediate").end()
        assert [span.name for span in memory.spans] == ["wsbus.mediate"]

    def test_buffer_of_unsampled_traces_is_bounded(self):
        tracer, _memory = self._tracer(rate=0.0)
        for _ in range(Tracer.MAX_BUFFERED_TRACES + 40):
            tracer.start_span("wsbus.mediate").end()
        assert len(tracer._buffered) <= Tracer.MAX_BUFFERED_TRACES


class TestTracingPolicy:
    def test_tracing_policy_document_round_trips(self):
        from repro.casestudies.scm import tracing_policy_document

        document = tracing_policy_document(
            sample_rate=0.25,
            always_sample_faults=True,
            always_sample_slo_violations=False,
        )
        policy = next(
            p
            for p in document.adaptation_policies
            if "observability.tracing" in p.triggers
        )
        action = next(a for a in policy.actions if isinstance(a, TracingAction))
        # The builder round-trips through WS-Policy4MASC XML internally,
        # so these values survived serialize → parse.
        assert action.sample_rate == 0.25
        assert action.always_sample_faults is True
        assert action.always_sample_slo_violations is False

    def test_tracing_service_materializes_the_policy(self):
        from repro.casestudies.scm import tracing_policy_document

        repository = PolicyRepository()
        repository.load(tracing_policy_document(sample_rate=0.0))
        tracer = Tracer(clock=lambda: 0.0)
        memory = tracer.add_exporter(InMemoryExporter())
        service = TracingService(tracer, repository)
        assert service.action is not None
        assert service.action.sample_rate == 0.0
        tracer.start_span("wsbus.mediate").end()
        assert memory.spans == []

    def test_refresh_picks_up_hot_loaded_documents(self):
        from repro.casestudies.scm import tracing_policy_document

        repository = PolicyRepository()
        tracer = Tracer(clock=lambda: 0.0)
        memory = tracer.add_exporter(InMemoryExporter())
        service = TracingService(tracer, repository)
        assert service.action is None  # record-everything default
        tracer.start_span("wsbus.mediate").end()
        assert len(memory.spans) == 1
        repository.load(tracing_policy_document(sample_rate=0.0))
        service.refresh_from_policies()
        tracer.start_span("wsbus.mediate").end()
        assert len(memory.spans) == 1  # the new trace was not sampled


def fixed_envelope():
    """An envelope whose serialized bytes do not depend on the process-wide
    message counter."""
    from repro.soap.addressing import AddressingHeaders

    return SoapEnvelope(
        addressing=AddressingHeaders(
            to="http://svc", action="urn:op:ping", message_id="urn:uuid:msg-fixed"
        ),
        body=Element("q", text="v"),
    )


def stamped_once():
    envelope = fixed_envelope()
    stamp_trace_context(envelope, TraceContext("tr-000001", "sp-000002", correlation_id="msg-1"))
    return envelope


def restamped():
    # The re-stamp lands after the header added between the two stamps.
    from repro.xmlutils import QName

    envelope = fixed_envelope()
    stamp_trace_context(envelope, TraceContext("tr-000001", "sp-000002"))
    envelope.add_header(Element(QName("urn:app", "Audit"), text="x"))
    stamp_trace_context(envelope, TraceContext("tr-000001", "sp-000009", sampled=False))
    return envelope


def stamped_then_keyed():
    from repro.traffic.idempotency import stamp_idempotency_key

    envelope = fixed_envelope()
    stamp_trace_context(envelope, TraceContext("tr-000003", "sp-000004", correlation_id="pi-7"))
    stamp_idempotency_key(envelope)
    return envelope


def must_understand_with_correlation():
    from repro.xmlutils import QName

    envelope = fixed_envelope()
    envelope.add_header(Element(QName("urn:app", "Auth"), text="token"), must_understand=True)
    stamp_trace_context(
        envelope, TraceContext("tr-000005", "sp-000006", correlation_id='pi-<&>"')
    )
    return envelope


_HEAD = (
    '<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"'
    ' xmlns:ns1="http://www.w3.org/2005/08/addressing"'
)
_ADDRESSING = (
    "<ns0:Header><ns1:To>http://svc</ns1:To><ns1:Action>urn:op:ping</ns1:Action>"
    "<ns1:MessageID>urn:uuid:msg-fixed</ns1:MessageID>"
)
_TAIL = "</ns0:Header><ns0:Body><q>v</q></ns0:Body></ns0:Envelope>"

#: The exact bytes the header-list implementation produced for each case.
WIRE_FORMS = {
    stamped_once: _HEAD
    + ' xmlns:ns2="http://masc.web.cse.unsw.edu.au/ns/masc">'
    + _ADDRESSING
    + '<ns2:TraceContext correlationId="msg-1">00-tr-000001-sp-000002-01</ns2:TraceContext>'
    + _TAIL,
    restamped: _HEAD
    + ' xmlns:ns2="urn:app" xmlns:ns3="http://masc.web.cse.unsw.edu.au/ns/masc">'
    + _ADDRESSING
    + "<ns2:Audit>x</ns2:Audit>"
    + "<ns3:TraceContext>00-tr-000001-sp-000009-00</ns3:TraceContext>"
    + _TAIL,
    stamped_then_keyed: _HEAD
    + ' xmlns:ns2="http://masc.web.cse.unsw.edu.au/ns/masc">'
    + _ADDRESSING
    + '<ns2:TraceContext correlationId="pi-7">00-tr-000003-sp-000004-01</ns2:TraceContext>'
    + "<ns2:IdempotencyKey>urn:uuid:msg-fixed</ns2:IdempotencyKey>"
    + _TAIL,
    must_understand_with_correlation: _HEAD
    + ' xmlns:ns2="urn:app" xmlns:ns3="http://masc.web.cse.unsw.edu.au/ns/masc">'
    + _ADDRESSING
    + '<ns2:Auth ns0:mustUnderstand="1">token</ns2:Auth>'
    + '<ns3:TraceContext correlationId="pi-&lt;&amp;&gt;&quot;">'
    + "00-tr-000005-sp-000006-01</ns3:TraceContext>"
    + _TAIL,
}


class TestSerializationFidelity:
    """The context becomes a header only when the envelope is serialized;
    these pin that form byte for byte."""

    @pytest.mark.parametrize("build", list(WIRE_FORMS), ids=lambda build: build.__name__)
    def test_exact_wire_bytes(self, build):
        from repro.xmlutils import serialize_xml

        envelope = build()
        assert envelope.to_xml() == WIRE_FORMS[build]
        assert serialize_xml(envelope.to_element()) == WIRE_FORMS[build]

    @pytest.mark.parametrize("build", list(WIRE_FORMS), ids=lambda build: build.__name__)
    def test_parse_serialize_round_trip(self, build):
        envelope = build()
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        expected = trace_context_of(envelope)
        assert trace_context_of(parsed) == TraceContext(
            expected.trace_id, expected.span_id, expected.sampled, expected.correlation_id
        )
        assert parsed.to_xml() == WIRE_FORMS[build]
        assert parsed.size_bytes == envelope.size_bytes

    def test_header_view_matches_the_wire(self):
        from repro.observability.trace_context import TRACE_CONTEXT_HEADER

        header = stamped_once().header(TRACE_CONTEXT_HEADER)
        assert header.text == "00-tr-000001-sp-000002-01"
        assert header.attributes == {"correlationId": "msg-1"}
        assert fixed_envelope().header(TRACE_CONTEXT_HEADER) is None

    def test_deep_copy_keeps_the_context(self):
        envelope = stamped_then_keyed()
        duplicate = envelope.deep_copy()
        assert trace_context_of(duplicate) == trace_context_of(envelope)
        assert duplicate.to_xml() == WIRE_FORMS[stamped_then_keyed]

    def test_restamping_a_copy_leaves_the_original_bytes_alone(self):
        original = stamped_once()
        attempt = original.copy()
        assert attempt == original
        stamp_trace_context(attempt, TraceContext("tr-000001", "sp-000077"))
        assert attempt != original
        assert trace_context_of(original).span_id == "sp-000002"
        assert original.to_xml() == WIRE_FORMS[stamped_once]
        assert "sp-000077" in attempt.to_xml()


class TestForwardedEventContext:
    """A follower forwards an event's span reference to the leader as the
    value a serialized MASC event would carry."""

    @pytest.mark.parametrize("rate", [1.0, 0.0], ids=["sampled", "unsampled"])
    def test_forwarded_parent_equals_the_wire_round_trip(self, env, network, rate):
        from types import SimpleNamespace

        from repro.core.events import MASCEvent
        from repro.federation import BusFleet

        tracer = Tracer()
        tracer.rebind_clock(env)
        fleet = BusFleet(env, network, shards=2, tracer=tracer)
        tracer.configure_sampling(TraceSampler(sample_rate=rate))
        follower = fleet.buses["bus-1"].adaptation
        received = []
        follower.forward_to = SimpleNamespace(handle_event=received.append)
        span = tracer.start_span("slo.violation", correlation_id="msg-3")
        assert span.sampled is (rate == 1.0)
        follower.handle_event(MASCEvent(name="fleet.alarm", time=env.now, trace_parent=span))
        (forwarded,) = received
        round_trip = parse_traceparent(format_traceparent(context_of_span(span)))
        assert forwarded.trace_parent == round_trip
        assert forwarded.trace_parent.correlation_id is None


class TestHotPathGuard:
    """Mediation carries the context as a value: a whole traced fleet storm
    never formats or parses a traceparent, and still exports the recorded
    span stream."""

    def test_fleet_storm_never_touches_the_codec(self, monkeypatch):
        import json
        import sys

        import repro.soap.traceparent as codec
        from mediation_corpus import GOLDEN_DIR, digests

        calls = {"format_traceparent": 0, "parse_traceparent": 0}

        def counting(name):
            original = getattr(codec, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return original, wrapper

        for name in calls:
            original, wrapper = counting(name)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, wrapper)
        name = "fleet-storm-crash-outage"
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert digests(name) == golden
        assert calls == {"format_traceparent": 0, "parse_traceparent": 0}
