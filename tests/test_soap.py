"""Unit tests for the SOAP envelope model."""

import xml.etree.ElementTree as ET

import pytest
from conftest import serialized_size

from repro.observability.trace_context import TraceContext, stamp_trace_context
from repro.soap import (
    MASC_NS,
    SOAP_ENV_NS,
    WSA_NS,
    AddressingHeaders,
    FaultCode,
    SoapEnvelope,
    SoapFault,
    SoapFaultError,
    new_message_id,
)
from repro.soap.addressing import HEADER_BLOCKS
from repro.soap.envelope import _BODY_SIZE_MEMO
from repro.soap.faults import TRANSIENT_FAULT_CODES, timeout, unavailable
from repro.traffic.idempotency import stamp_idempotency_key
from repro.xmlutils import Element, QName


class TestAddressing:
    def test_message_ids_unique(self):
        assert new_message_id() != new_message_id()

    def test_for_reply_correlates(self):
        request = AddressingHeaders(to="http://svc", action="urn:op:go", reply_to="http://me")
        reply = request.for_reply()
        assert reply.relates_to == request.message_id
        assert reply.to == "http://me"
        assert reply.action == "urn:op:goResponse"

    def test_with_process_instance(self):
        headers = AddressingHeaders().with_process_instance("proc-1")
        assert headers.process_instance_id == "proc-1"

    def test_process_instance_survives_reply(self):
        request = AddressingHeaders().with_process_instance("proc-9")
        assert request.for_reply().process_instance_id == "proc-9"

    def test_retargeted_mints_new_message_id(self):
        original = AddressingHeaders(to="http://a")
        copy = original.retargeted("http://b")
        assert copy.to == "http://b"
        assert copy.message_id != original.message_id

    def test_element_round_trip(self):
        headers = AddressingHeaders(
            to="http://svc", action="urn:x", reply_to="http://me"
        ).with_process_instance("proc-3")
        rebuilt = AddressingHeaders.from_elements(headers.to_elements())
        assert rebuilt == headers


class TestEnvelope:
    def test_request_reply_cycle(self):
        body = Element("ping", children=[Element("x", text="1")])
        request = SoapEnvelope.request("http://svc", "urn:op:ping", body)
        reply = request.reply(Element("pong"))
        assert reply.addressing.relates_to == request.addressing.message_id
        assert reply.body.name.local == "pong"

    def test_body_and_fault_mutually_exclusive(self):
        with pytest.raises(ValueError):
            SoapEnvelope(
                body=Element("x"),
                fault=SoapFault(FaultCode.SERVER, "boom"),
            )

    def test_fault_reply(self):
        request = SoapEnvelope.request("http://svc", "urn:a", Element("q"))
        fault_reply = request.reply_fault(SoapFault(FaultCode.TIMEOUT, "too slow"))
        assert fault_reply.is_fault
        assert fault_reply.fault.code is FaultCode.TIMEOUT

    def test_copy_is_header_shallow(self):
        # copy() shares the body tree (the per-attempt fast path) but owns
        # its headers list: adding headers to the copy never leaks back.
        envelope = SoapEnvelope.request("http://svc", "urn:a", Element("q", text="v"))
        duplicate = envelope.copy()
        assert duplicate.body is envelope.body
        duplicate.add_header(Element("extra"))
        assert envelope.headers == []
        # Replacing the copy's body never touches the original.
        duplicate.body = Element("q", text="changed")
        assert envelope.body.text == "v"

    def test_deep_copy_is_private(self):
        envelope = SoapEnvelope.request("http://svc", "urn:a", Element("q", text="v"))
        envelope.add_header(Element("h", text="x"))
        duplicate = envelope.deep_copy()
        assert duplicate.to_xml() == envelope.to_xml()
        duplicate.body.text = "changed"
        duplicate.headers[0].element.text = "y"
        assert envelope.body.text == "v"
        assert envelope.headers[0].element.text == "x"

    def test_xml_round_trip(self):
        body = Element("order", children=[Element("amount", text="99")])
        envelope = SoapEnvelope.request("http://svc", "urn:op:order", body, padding=0)
        envelope.addressing = envelope.addressing.with_process_instance("proc-5")
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert parsed.addressing.to == "http://svc"
        assert parsed.addressing.process_instance_id == "proc-5"
        assert parsed.body.structurally_equal(envelope.body)

    def test_fault_xml_round_trip(self):
        envelope = SoapEnvelope(fault=SoapFault(FaultCode.SERVICE_UNAVAILABLE, "down", actor="http://x"))
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert parsed.is_fault
        assert parsed.fault.code is FaultCode.SERVICE_UNAVAILABLE
        assert parsed.fault.reason == "down"
        assert parsed.fault.actor == "http://x"

    def test_extension_header_round_trip(self):
        envelope = SoapEnvelope(body=Element("b"))
        envelope.add_header(Element("{urn:ext}Token", text="secret"), must_understand=True)
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        header = parsed.header("{urn:ext}Token")
        assert header is not None and header.text == "secret"
        assert parsed.headers[0].must_understand

    def test_padding_inflates_size(self):
        envelope = SoapEnvelope(body=Element("b"))
        bare = envelope.size_bytes
        envelope.padding = 1024
        assert envelope.size_bytes == bare + 1024

    def test_size_reflects_body_content(self):
        small = SoapEnvelope(body=Element("b"))
        big_body = Element("b")
        for index in range(50):
            big_body.add(f"part{index}", text="x" * 50)
        big = SoapEnvelope(body=big_body)
        assert big.size_bytes > small.size_bytes


class TestFaults:
    def test_transient_classification(self):
        assert FaultCode.TIMEOUT in TRANSIENT_FAULT_CODES
        assert SoapFault(FaultCode.SERVICE_UNAVAILABLE, "x").is_transient
        assert not SoapFault(FaultCode.CLIENT, "x").is_transient

    def test_exception_carries_fault(self):
        fault = SoapFault(FaultCode.SERVER, "oops")
        error = fault.to_exception()
        assert isinstance(error, SoapFaultError)
        assert error.fault is fault
        assert "oops" in str(error)

    def test_unknown_fault_code_parses_as_server(self):
        element = SoapFault(FaultCode.SERVER, "r").to_element()
        element.find("faultcode").text = "{urn:custom}Weird"
        parsed = SoapFault.from_element(element)
        assert parsed.code is FaultCode.SERVER

    def test_fault_detail_round_trip(self):
        detail = Element("info", children=[Element("k", text="v")])
        fault = SoapFault(FaultCode.SERVICE_FAILURE, "bad", detail=detail)
        parsed = SoapFault.from_element(fault.to_element())
        assert parsed.detail.structurally_equal(detail)

    def test_convenience_constructors(self):
        assert unavailable("down").code is FaultCode.SERVICE_UNAVAILABLE
        assert timeout("slow").code is FaultCode.TIMEOUT

    def test_qname_namespaced(self):
        assert FaultCode.SLA_VIOLATION.qname.local == "SLAViolation"
        assert FaultCode.SLA_VIOLATION.qname.namespace


class TestEnvelopeSharingSafety:
    """Envelope interning/borrowing must never leak state across messages."""

    def test_wire_serialization_matches_copying_reference(self):
        from repro.xmlutils import serialize_xml_reference

        envelope = SoapEnvelope.request(
            "http://svc/a", "urn:op:x", Element("q", text="5 < 6 & more")
        )
        envelope.add_header(Element("{urn:ext}h", text="meta"), must_understand=True)
        assert envelope.to_xml() == serialize_xml_reference(envelope.to_element())

    def test_fault_wire_serialization_matches_copying_reference(self):
        from repro.xmlutils import serialize_xml_reference

        request = SoapEnvelope.request("http://svc/a", "urn:op:x", Element("q"))
        reply = request.reply_fault(SoapFault(FaultCode.TIMEOUT, "too slow"))
        assert reply.to_xml() == serialize_xml_reference(reply.to_element())

    def test_must_understand_serialization_does_not_mutate_the_header(self):
        header_element = Element("{urn:ext}h", text="meta")
        envelope = SoapEnvelope.request("http://svc/a", "urn:op:x", Element("q"))
        envelope.add_header(header_element, must_understand=True)
        assert "mustUnderstand" in envelope.to_xml()
        # The wire view wraps the header; the caller's element is untouched.
        assert header_element.attributes == {}
        assert header_element.parent is None

    def test_serialization_does_not_reparent_the_shared_body(self):
        body = Element("q", text="payload")
        envelope = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        envelope.to_xml()
        envelope.size_bytes
        assert body.parent is None
        assert envelope.body is body

    def test_reply_gets_fresh_headers_not_the_request_headers(self):
        request = SoapEnvelope.request("http://svc/a", "urn:op:x", Element("q"))
        request.add_header(Element("{urn:ext}h", text="meta"))
        reply = request.reply(Element("ok"))
        assert reply.headers == []
        reply.add_header(Element("{urn:ext}other"))
        assert len(request.headers) == 1

    def test_shared_body_size_memo_tracks_addressing_shape(self):
        # Two envelopes sharing one body tree but differing in the length
        # of an addressing field must not share a memoized size.
        body = Element("q", text="payload")
        short = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        long = SoapEnvelope.request("http://svc/a-much-longer-address", "urn:op:x", body)
        delta = len("http://svc/a-much-longer-address") - len("http://svc/a")
        assert long.size_bytes - short.size_bytes == delta
        assert short.size_bytes == len(short.to_xml().encode("utf-8"))
        assert long.size_bytes == len(long.to_xml().encode("utf-8"))

    def test_size_memo_same_shape_is_exact_not_stale(self):
        # Same presence pattern and field lengths -> memo hit; the hit must
        # still equal a from-scratch serialization of the second envelope
        # (message ids are fixed-width, so the shapes genuinely match).
        body = Element("q", text="payload")
        first = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        second = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        assert first.size_bytes == second.size_bytes
        assert second.size_bytes == len(second.to_xml().encode("utf-8"))

    def test_copy_on_write_body_replacement_invalidates_size(self):
        body = Element("q", text="x")
        original = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        duplicate = original.copy()
        baseline = original.size_bytes
        assert duplicate.size_bytes == baseline
        duplicate.body = Element("q", text="x" * 100)
        assert duplicate.size_bytes == baseline + 99
        assert original.size_bytes == baseline
        assert original.body is body

    def test_padding_applied_after_memoized_size(self):
        body = Element("q", text="payload")
        plain = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        padded = SoapEnvelope.request("http://svc/a", "urn:op:x", body, padding=4096)
        assert padded.size_bytes == plain.size_bytes + 4096

    def test_interned_payloads_are_shared_but_validation_safe(self):
        # Workload generators intern constant payloads: same parts, same
        # Element object. Envelopes built around it must still serialize
        # and size independently.
        from repro.casestudies.scm import RETAILER_CONTRACT

        schema = RETAILER_CONTRACT.operation("getCatalog").input
        first = schema.build_interned()
        second = schema.build_interned()
        assert first is second
        distinct = schema.build()
        assert distinct is not first
        assert distinct.structurally_equal(first)
        a = SoapEnvelope.request("http://svc/a", "urn:op:getCatalog", first)
        b = SoapEnvelope.request("http://svc/b-longer", "urn:op:getCatalog", second)
        assert a.size_bytes == len(a.to_xml().encode("utf-8"))
        assert b.size_bytes == len(b.to_xml().encode("utf-8"))


def _trace_context():
    return TraceContext(trace_id="ab" * 16, span_id="cd" * 8, correlation_id="corr-1")


class TestMeasuredSize:
    """``size_bytes`` is arithmetic; ``serialized_size`` (serialize, encode,
    count) is the oracle it must agree with on every kind of envelope."""

    def _request(self, body=None, **kwargs):
        body = Element("q", text="payload") if body is None else body
        return SoapEnvelope.request("http://svc/a", "urn:op:x", body, **kwargs)

    def test_plain_request_and_reply(self):
        request = self._request(reply_to="http://client/1", process_instance_id="proc-7")
        reply = request.reply(Element(QName("urn:app", "ok"), text="fine"))
        assert request.size_bytes == serialized_size(request)
        assert reply.size_bytes == serialized_size(reply)

    @pytest.mark.parametrize("field", [field for field, _, _ in HEADER_BLOCKS])
    @pytest.mark.parametrize("value", [None, "", "urn:x&y<z>", "ünï-cödé"])
    def test_each_addressing_field_absent_empty_escaped_non_ascii(self, field, value):
        envelope = SoapEnvelope(
            addressing=AddressingHeaders(**{field: value}), body=Element("q")
        )
        assert envelope.size_bytes == serialized_size(envelope)

    def test_no_addressing_and_no_content_uses_the_short_forms(self):
        envelope = SoapEnvelope(addressing=AddressingHeaders(message_id=None))
        assert "Header />" in envelope.to_xml() and "Body />" in envelope.to_xml()
        assert envelope.size_bytes == serialized_size(envelope)
        envelope.add_header(Element("only-extension"))
        assert "Header>" in envelope.to_xml()
        assert envelope.size_bytes == serialized_size(envelope)

    def test_process_instance_without_wsa_fields_numbers_masc_first(self):
        envelope = SoapEnvelope(
            addressing=AddressingHeaders(message_id=None, process_instance_id="p-1"),
            body=Element(QName(WSA_NS, "late")),
        )
        xml = envelope.to_xml()
        assert f'xmlns:ns1="{MASC_NS}"' in xml and f'xmlns:ns2="{WSA_NS}"' in xml
        assert envelope.size_bytes == serialized_size(envelope)

    def test_extension_headers_count_in_document_order(self):
        envelope = self._request(Element(QName("urn:h2", "body"), attributes={"{urn:h1}a": "1"}))
        envelope.add_header(Element(QName("urn:h1", "first"), text="1"))
        envelope.add_header(Element(QName("urn:h2", "second"), attributes={"k": 'v"&'}))
        envelope.add_header(Element("plain"))
        assert envelope.size_bytes == serialized_size(envelope)

    def test_must_understand_attribute_is_counted_once(self):
        envelope = self._request()
        envelope.add_header(Element(QName("urn:sec", "token"), text="t"), must_understand=True)
        assert envelope.size_bytes == serialized_size(envelope)
        assert envelope.size_bytes - self._request().size_bytes > len("mustUnderstand")
        # Parsed back, the block carries the attribute itself *and* the flag.
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert parsed.headers[0].must_understand
        assert parsed.size_bytes == serialized_size(parsed) == envelope.size_bytes

    def test_stamped_idempotency_key(self):
        envelope = self._request()
        plain = envelope.size_bytes
        key = stamp_idempotency_key(envelope)
        assert key == envelope.addressing.message_id
        assert envelope.size_bytes == serialized_size(envelope) > plain

    def test_fault_envelopes(self):
        request = self._request()
        bare = request.reply_fault(timeout("no answer <in time> & counting"))
        detailed = request.reply_fault(
            SoapFault(
                FaultCode.SERVICE_FAILURE,
                "bad",
                actor="http://svc/a",
                detail=Element(QName("urn:app", "why"), text="détail"),
            )
        )
        for envelope in (bare, detailed):
            assert envelope.size_bytes == serialized_size(envelope)
        bare.add_header(Element(QName("urn:h", "x")), must_understand=True)
        assert bare.size_bytes == serialized_size(bare)

    def test_body_sharing_the_envelope_namespaces(self):
        body = Element(QName(SOAP_ENV_NS, "NotAFault"), attributes={f"{{{MASC_NS}}}a": "1"})
        body.add(QName(WSA_NS, "To"), text="shadow")
        envelope = self._request(body, process_instance_id="p")
        assert envelope.size_bytes == serialized_size(envelope)

    def test_many_namespaces_widen_the_generated_prefixes(self):
        body = Element("wide")
        for index in range(12):
            body.add(QName(f"urn:n{index}", "c"), text=str(index))
        envelope = self._request(body)
        assert "ns12:c" in envelope.to_xml()
        assert envelope.size_bytes == serialized_size(envelope)

    def test_registered_prefix_for_the_envelope_namespace(self):
        # (A fresh body per envelope: finished sums, like cached sizes, are
        # not revisited when the prefix registry changes under them.)
        generated = self._request(Element(QName("urn:app", "q"))).size_bytes
        ET.register_namespace("soapenv", SOAP_ENV_NS)
        try:
            envelope = self._request(Element(QName("urn:app", "q")))
            assert "<soapenv:Envelope" in envelope.to_xml()
            assert envelope.size_bytes == serialized_size(envelope) != generated
        finally:
            del ET.register_namespace._namespace_map[SOAP_ENV_NS]

    def test_padding_and_copy_then_retarget(self):
        envelope = self._request(padding=4096)
        envelope.add_header(Element(QName("urn:h", "x"), text="1"))
        attempt = envelope.copy()
        assert attempt.size_bytes == envelope.size_bytes == serialized_size(envelope)
        attempt.addressing = attempt.addressing.retargeted("http://svc/a-much-longer-address")
        delta = len("http://svc/a-much-longer-address") - len("http://svc/a")
        assert attempt.size_bytes == envelope.size_bytes + delta == serialized_size(attempt)

    def test_one_memo_entry_per_body_serves_plain_and_headered_envelopes(self):
        body = Element(QName("urn:app", "q"), text="shared")
        plain = self._request(body)
        headered = self._request(body)
        headered.add_header(Element(QName("urn:h", "x"), text="1"))
        assert headered.size_bytes == serialized_size(headered)
        summary, shapes = _BODY_SIZE_MEMO[body]
        assert shapes == {}  # a headered sizing is never remembered as a shape
        assert plain.size_bytes == serialized_size(plain)
        assert _BODY_SIZE_MEMO[body][0] is summary
        assert list(shapes.values()) == [plain.size_bytes]

    def test_transparent_header_keeps_the_cached_size(self):
        envelope = self._request()
        before = envelope.size_bytes
        assert envelope._size_cache == before
        stamp_trace_context(envelope, _trace_context())
        assert envelope._size_cache == before  # survived the stamp
        assert envelope.size_bytes == before == serialized_size(envelope)
        assert "TraceContext" in envelope.to_xml()
        stamp_trace_context(envelope, _trace_context())  # re-stamp at the next hop
        assert envelope._size_cache == before
        envelope.add_header(Element("visible"))
        assert envelope._size_cache is None
        assert envelope.size_bytes == serialized_size(envelope) > before
