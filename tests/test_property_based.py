"""Property-based tests (hypothesis) on core data structures and invariants."""

import string
from dataclasses import MISSING, dataclass

from conftest import serialized_size
from hypothesis import assume, given, settings, strategies as st

from repro.metrics import availability_from_records, failures_per_1000
from repro.orchestration import Expression
from repro.policy import (
    AdaptationPolicy,
    BusinessValue,
    InvokeSpec,
    MessageCondition,
    MonitoringPolicy,
    PolicyDocument,
    PolicyScope,
    parse_policy_document,
    serialize_policy_document,
)
from repro.policy.actions import ActionError, AdaptationAction, attr, schema
from repro.services import InvocationOutcome, InvocationRecord
from repro.soap import (
    MASC_NS,
    WSA_NS,
    AddressingHeaders,
    FaultCode,
    SoapEnvelope,
    SoapFault,
)
from repro.simulation import Environment
from repro.traffic.idempotency import stamp_idempotency_key
from repro.xmlutils import (
    Element,
    QName,
    combined_size,
    parse_xml,
    serialize_xml,
    size_summary,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=12)
texts = st.text(
    alphabet=string.ascii_letters + string.digits + " -_.", min_size=0, max_size=30
).map(str.strip)


#: Namespaces an element or attribute may be drawn in: none, generated
#: prefixes, one of ElementTree's well-known prefixes, and two the SOAP
#: envelope itself uses. Attributes may also be ``xml:`` ones.
namespaces = st.sampled_from(
    ["", "", "urn:a", "urn:b", "urn:c", "http://schemas.xmlsoap.org/wsdl/", WSA_NS, MASC_NS]
)
attribute_namespaces = namespaces | st.just("http://www.w3.org/XML/1998/namespace")


@st.composite
def elements(draw, depth=0, names=names, texts=texts):
    element = Element(QName(draw(namespaces), draw(names)))
    for key in draw(st.lists(names, max_size=3, unique=True)):
        namespace = draw(attribute_namespaces)
        element.attributes[f"{{{namespace}}}{key}" if namespace else key] = draw(texts)
    text = draw(texts)
    if text:
        element.text = text
    if depth < 3:
        for child in draw(
            st.lists(elements(depth=depth + 1, names=names, texts=texts), max_size=3)
        ):
            element.append(child)
    return element


@st.composite
def invocation_records(draw):
    start = draw(st.floats(min_value=0, max_value=1000, allow_nan=False))
    duration = draw(st.floats(min_value=0.001, max_value=10, allow_nan=False))
    ok = draw(st.booleans())
    return InvocationRecord(
        caller="c",
        target="http://a",
        operation="op",
        started_at=start,
        finished_at=start + duration,
        outcome=InvocationOutcome.SUCCESS if ok else InvocationOutcome.FAULT,
    )


def attribute_values(spec):
    """Values of one declared attribute, from its type and bounds."""
    rules = spec.rules
    if "choices" in rules:
        values = st.sampled_from(rules["choices"])
    elif spec.type is bool:
        values = st.booleans()
    elif spec.type is int:
        low = rules.get("ge", rules.get("gt", -1000) + ("gt" in rules))
        values = st.integers(low, rules.get("le", rules.get("lt", low + 1001) - ("lt" in rules)))
    elif spec.type is float:
        values = st.floats(
            min_value=rules.get("ge", rules.get("gt", -1e6)),
            max_value=rules.get("le", rules.get("lt", 1e6)),
            exclude_min="gt" in rules,
            exclude_max="lt" in rules,
            allow_nan=False,
        )
    else:
        values = names if rules.get("nonempty") or spec.default is MISSING else texts
    return st.none() | values if spec.optional else values


@st.composite
def declared(draw, cls):
    """An instance of an assertion dataclass with *every* field drawn from
    its declaration; a draw that a cross-field rule rejects is redrawn."""
    attributes, children = schema(cls)
    for _ in range(12):
        values = {spec.name: draw(attribute_values(spec)) for spec in attributes}
        for spec in children:
            child = spec.rules["child"]
            least = 1 if spec.rules.get("nonempty") else 0
            if isinstance(child, type):
                items = st.lists(declared(child), min_size=least, max_size=2)
                values[spec.name] = tuple(draw(items))
            elif len(child) == 2:
                values[spec.name] = tuple(draw(st.lists(names, min_size=least, max_size=3)))
            else:
                values[spec.name] = draw(st.dictionaries(names, texts, min_size=least, max_size=3))
        try:
            return cls(**values)
        except ActionError:
            continue
    assume(False)


def any_action():
    """Every declared action class, every field."""
    return st.sampled_from(sorted(set(AdaptationAction.by_element.values()), key=str)).flatmap(
        declared
    )


@st.composite
def policy_documents(draw):
    document = PolicyDocument(draw(names))
    for index in range(draw(st.integers(0, 3))):
        document.monitoring_policies.append(
            MonitoringPolicy(
                name=f"m{index}-{draw(names)}",
                events=tuple(draw(st.lists(names, min_size=1, max_size=3))),
                scope=PolicyScope(service_type=draw(st.none() | names)),
                conditions=tuple(
                    MessageCondition(draw(names), "eq", draw(texts))
                    for _ in range(draw(st.integers(0, 2)))
                ),
                extract={draw(names): draw(names) for _ in range(draw(st.integers(0, 2)))},
                emits=tuple(draw(st.lists(names, max_size=2))),
                priority=draw(st.integers(0, 999)),
            )
        )
    for index in range(draw(st.integers(1, 3))):
        actions = draw(st.lists(any_action(), min_size=1, max_size=3))
        document.adaptation_policies.append(
            AdaptationPolicy(
                name=f"a{index}-{draw(names)}",
                triggers=tuple(draw(st.lists(names, min_size=1, max_size=2))),
                actions=tuple(actions),
                priority=draw(st.integers(0, 999)),
                business_value=draw(
                    st.none()
                    | st.builds(
                        BusinessValue,
                        amount=st.floats(
                            min_value=-1e6, max_value=1e6, allow_nan=False
                        ),
                        currency=st.sampled_from(["AUD", "USD"]),
                        reason=texts,
                    )
                ),
            )
        )
    return document


# ---------------------------------------------------------------------------
# XML round-trip properties
# ---------------------------------------------------------------------------


@given(elements())
@settings(max_examples=50)
def test_element_xml_round_trip(element):
    parsed = parse_xml(serialize_xml(element))
    assert parsed.structurally_equal(element)


@given(elements())
@settings(max_examples=30)
def test_element_copy_is_structurally_equal_but_distinct(element):
    duplicate = element.copy()
    assert duplicate.structurally_equal(element)
    assert all(a is not b for a, b in zip(duplicate.iter(), element.iter()))


#: Anything the serializer will write, valid XML or not: names and values
#: with non-ASCII characters and every character an escaper rewrites.
wild_names = st.text(min_size=1, max_size=8)
wild_texts = st.text(max_size=20) | st.text(alphabet="&<>\"\r\n\t'aé中", max_size=12)


@given(elements(names=names | wild_names, texts=texts | wild_texts))
@settings(max_examples=200)
def test_measured_size_is_the_serialized_size(element):
    """combiner(summary(tree)) == the UTF-8 length of serialize_xml(tree)."""
    expected = len(serialize_xml(element).encode("utf-8"))
    assert combined_size([size_summary(element)]) == expected


@given(policy_documents())
@settings(max_examples=30)
def test_policy_document_round_trip_fixed_point(document):
    """parse(serialize(d)) == d, and serialize(parse(serialize(d))) ==
    serialize(d): one round trip loses nothing and is a fixed point of
    the XML mapping."""
    once = serialize_policy_document(document)
    reparsed = parse_policy_document(once)
    assert reparsed == document
    assert serialize_policy_document(reparsed) == once


@given(st.data())
@settings(max_examples=10)
def test_every_action_class_round_trips(data):
    """Exhaustive, not sampled: one drawn instance of *each* declared class."""
    for cls in set(AdaptationAction.by_element.values()):
        action = data.draw(declared(cls))
        document = PolicyDocument("d")
        document.adaptation_policies.append(AdaptationPolicy("p", ("e",), (action,)))
        assert parse_policy_document(serialize_policy_document(document)) == document


@given(st.data())
@settings(max_examples=20)
def test_a_new_assertion_is_one_declaration(data):
    """A class declared here, unknown to ``xml.py``, round-trips."""

    @dataclass(frozen=True)
    class ThrowAwayAction(AdaptationAction):
        """Exists only in this test."""

        label: str
        ratio: float = attr(0.5, gt=0, le=1)
        attempts: int | None = attr(None, ge=1)
        verbose: bool = False
        mode: str = attr("a", choices=("a", "b"))
        tags: tuple[str, ...] = attr((), child=("Tag", "name"))

        element = "ThrowAway"

    try:
        action = data.draw(declared(ThrowAwayAction))
        document = PolicyDocument("d")
        document.adaptation_policies.append(AdaptationPolicy("p", ("e",), (action,)))
        text = serialize_policy_document(document)
        assert ":ThrowAway label=" in text
        assert parse_policy_document(text) == document
    finally:
        del AdaptationAction.by_element["ThrowAway"]


@given(policy_documents())
@settings(max_examples=30)
def test_policy_document_parse_preserves_counts_and_priorities(document):
    reparsed = parse_policy_document(serialize_policy_document(document))
    assert len(reparsed) == len(document)
    assert [p.priority for p in reparsed.adaptation_policies] == [
        p.priority for p in document.adaptation_policies
    ]


# ---------------------------------------------------------------------------
# Envelope properties
# ---------------------------------------------------------------------------


@given(elements(), st.integers(0, 10_000))
@settings(max_examples=30)
def test_envelope_round_trip_preserves_body(body, padding):
    envelope = SoapEnvelope.request("http://svc", "urn:op:x", body, padding=padding)
    parsed = SoapEnvelope.from_xml(envelope.to_xml())
    assert parsed.body.structurally_equal(body)
    assert envelope.size_bytes >= padding


addressing_values = st.none() | st.just("") | texts | wild_texts


@st.composite
def envelopes(draw):
    """Any envelope the middleware can build: each addressing field absent,
    empty or set; a payload, a fault or an empty body; visible,
    ``mustUnderstand`` and transparent extension headers; padding."""
    addressing = AddressingHeaders(
        to=draw(addressing_values),
        action=draw(addressing_values),
        message_id=draw(addressing_values),
        relates_to=draw(addressing_values),
        reply_to=draw(addressing_values),
        process_instance_id=draw(addressing_values),
    )
    content = draw(st.sampled_from(["body", "fault", "empty"]))
    envelope = SoapEnvelope(
        addressing=addressing,
        body=draw(elements()) if content == "body" else None,
        fault=SoapFault(
            draw(st.sampled_from(FaultCode)),
            draw(wild_texts),
            actor=draw(st.none() | texts),
            detail=draw(st.none() | elements(depth=2)),
        )
        if content == "fault"
        else None,
        padding=draw(st.integers(0, 10_000)),
    )
    for header in draw(st.lists(elements(depth=2, texts=texts | wild_texts), max_size=3)):
        envelope.add_header(
            header, must_understand=draw(st.booleans()), transparent=draw(st.booleans())
        )
    return envelope


@given(envelopes(), st.booleans(), texts)
@settings(max_examples=200)
def test_envelope_size_is_its_serialized_size(envelope, keyed, new_target):
    assert envelope.size_bytes == serialized_size(envelope)
    if keyed:
        stamp_idempotency_key(envelope)
        assert envelope.size_bytes == serialized_size(envelope)
    # The per-attempt working copy: shares trees and the cached size, then
    # is retargeted; a second envelope around the same body hits the memo.
    attempt = envelope.copy()
    assert attempt.size_bytes == envelope.size_bytes
    attempt.addressing = attempt.addressing.retargeted(new_target)
    assert attempt.size_bytes == serialized_size(attempt)
    assert envelope.size_bytes == serialized_size(envelope)


@given(elements())
@settings(max_examples=30)
def test_reply_always_correlates(body):
    request = SoapEnvelope.request("http://svc", "urn:op:x", body)
    reply = request.reply(Element("ok"))
    assert reply.addressing.relates_to == request.addressing.message_id


# ---------------------------------------------------------------------------
# Expression safety property
# ---------------------------------------------------------------------------


@given(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.sampled_from(["+", "-", "*", "<", "<=", ">", ">=", "==", "!="]),
)
def test_expression_agrees_with_python(a, b, op):
    expected = eval(f"a {op} b", {"a": a, "b": b})  # noqa: S307 - test oracle
    assert Expression(f"a {op} b").evaluate({"a": a, "b": b}) == expected


# ---------------------------------------------------------------------------
# Metrics invariants
# ---------------------------------------------------------------------------


@given(st.lists(invocation_records(), max_size=60))
@settings(max_examples=50)
def test_metrics_bounds(records):
    assert 0.0 <= failures_per_1000(records) <= 1000.0
    assert 0.0 <= availability_from_records(records) <= 1.0


@given(st.lists(invocation_records(), min_size=1, max_size=60))
@settings(max_examples=50)
def test_all_success_means_perfect_metrics(records):
    successes = [
        InvocationRecord(
            caller=r.caller,
            target=r.target,
            operation=r.operation,
            started_at=r.started_at,
            finished_at=r.finished_at,
            outcome=InvocationOutcome.SUCCESS,
        )
        for r in records
    ]
    assert failures_per_1000(successes) == 0.0
    assert availability_from_records(successes) == 1.0


# ---------------------------------------------------------------------------
# Simulation kernel invariant
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=50)
def test_simulation_time_is_monotone(delays):
    env = Environment()
    observed = []

    def waiter(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(waiter(delay))
    env.run()
    assert observed == sorted(observed)
    assert env.now == max(delays)
