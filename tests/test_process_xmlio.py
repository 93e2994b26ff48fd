"""Unit tests for XML process definition serialization."""

import pytest

from conftest import EchoService
from repro.casestudies.scm import build_scm_process
from repro.orchestration import (
    Assign,
    Delay,
    Empty,
    Flow,
    IfElse,
    Invoke,
    ProcessDefinition,
    ProcessSerializationError,
    Receive,
    Reply,
    Scope,
    Sequence,
    Terminate,
    Throw,
    While,
    WorkflowEngine,
    parse_activity,
    parse_process_definition,
    serialize_process_definition,
)
from repro.soap import FaultCode

NS = 'xmlns="http://masc.web.cse.unsw.edu.au/ns/process"'


def full_definition() -> ProcessDefinition:
    return ProcessDefinition(
        "everything",
        Sequence(
            "main",
            [
                Receive("rcv", variable="incoming"),
                Assign("init", "counter", expression="0"),
                Delay("pause", 1.5),
                While(
                    "loop",
                    "counter < 3",
                    body=Assign("inc", "counter", expression="counter + 1"),
                    max_iterations=50,
                ),
                IfElse(
                    "branch",
                    "counter >= 3",
                    then=Empty("yes"),
                    orelse=Throw("no", FaultCode.SERVER, "impossible"),
                ),
                Flow("parallel", [Delay("p1", 0.1), Delay("p2", 0.2)]),
                Scope(
                    "guarded",
                    body=Invoke(
                        "call",
                        operation="echo",
                        to="http://test/echo",
                        inputs={"text": "$greeting"},
                        extract={"echoed": "text"},
                        output_variable="raw",
                        timeout_seconds=12.0,
                    ),
                    fault_handlers={
                        FaultCode.TIMEOUT: Empty("on-timeout"),
                        None: Empty("on-anything"),
                    },
                    compensation=Empty("undo"),
                    timeout_seconds=30.0,
                    compensate_on_fault=True,
                ),
                Terminate("halt", reason="end of demo"),
                Reply("answer", variable="echoed"),
            ],
        ),
        initial_variables={"greeting": "hi", "limit": 3, "rate": 1.5, "flag": True},
    )


class TestRoundTrip:
    def test_fixed_point(self):
        definition = full_definition()
        once = serialize_process_definition(definition)
        twice = serialize_process_definition(parse_process_definition(once))
        assert once == twice

    def test_structure_preserved(self):
        reparsed = parse_process_definition(serialize_process_definition(full_definition()))
        assert reparsed.activity_names() == full_definition().activity_names()

    def test_variables_typed(self):
        reparsed = parse_process_definition(serialize_process_definition(full_definition()))
        assert reparsed.initial_variables == {
            "greeting": "hi",
            "limit": 3,
            "rate": 1.5,
            "flag": True,
        }

    def test_scope_details_preserved(self):
        reparsed = parse_process_definition(serialize_process_definition(full_definition()))
        scope = reparsed.find("guarded")
        assert scope.timeout_seconds == 30.0
        assert scope.compensate_on_fault is True
        assert FaultCode.TIMEOUT in scope.fault_handlers
        assert None in scope.fault_handlers
        assert scope.compensation.name == "undo"

    def test_invoke_details_preserved(self):
        reparsed = parse_process_definition(serialize_process_definition(full_definition()))
        invoke = reparsed.find("call")
        assert invoke.inputs == {"text": "$greeting"}
        assert invoke.extract == {"echoed": "text"}
        assert invoke.output_variable == "raw"
        assert invoke.timeout_seconds == 12.0

    def test_scm_process_round_trips(self):
        definition = build_scm_process("http://retailer", "http://logging")
        reparsed = parse_process_definition(serialize_process_definition(definition))
        assert reparsed.activity_names() == definition.activity_names()

    def test_reparsed_definition_executes(self, env, network, container):
        container.deploy(EchoService(env, "echo1", "http://test/echo"))
        xml = serialize_process_definition(
            ProcessDefinition(
                "runnable",
                Sequence(
                    "main",
                    [
                        Invoke(
                            "call",
                            operation="echo",
                            to="http://test/echo",
                            inputs={"text": "$greeting"},
                            extract={"echoed": "text"},
                        ),
                        Reply("r", variable="echoed"),
                    ],
                ),
                initial_variables={"greeting": "parsed"},
            )
        )
        engine = WorkflowEngine(env, network=network)
        definition = parse_process_definition(xml)
        instance = engine.start(definition)
        assert engine.run_to_completion(instance) == "parsed@echo1"


class TestErrors:
    def test_callable_condition_rejected(self):
        definition = ProcessDefinition(
            "p",
            Sequence("main", [IfElse("if", lambda v: True, then=Empty("t"))]),
        )
        with pytest.raises(ProcessSerializationError):
            serialize_process_definition(definition)

    def test_input_builder_rejected(self):
        definition = ProcessDefinition(
            "p",
            Sequence(
                "main",
                [
                    Invoke(
                        "call",
                        operation="op",
                        to="http://x",
                        input_builder=lambda v: None,
                    )
                ],
            ),
        )
        with pytest.raises(ProcessSerializationError):
            serialize_process_definition(definition)

    def test_callable_assign_rejected(self):
        definition = ProcessDefinition(
            "p", Sequence("main", [Assign("a", "x", expression=lambda v: 1)])
        )
        with pytest.raises(ProcessSerializationError):
            serialize_process_definition(definition)

    def test_not_a_process_document(self):
        with pytest.raises(ProcessSerializationError):
            parse_process_definition("<SomethingElse/>")

    def test_missing_required_attribute(self):
        xml = (
            '<Process xmlns="http://masc.web.cse.unsw.edu.au/ns/process" name="p">'
            "<Sequence/></Process>"
        )
        with pytest.raises(ProcessSerializationError):
            parse_process_definition(xml)

    def test_unknown_activity_element(self):
        xml = (
            '<Process xmlns="http://masc.web.cse.unsw.edu.au/ns/process" name="p">'
            '<Teleport name="t"/></Process>'
        )
        with pytest.raises(ProcessSerializationError):
            parse_process_definition(xml)

    # -- a malformed document fails loudly and locally -----------------------
    # Each case parsed (or died with a bare ValueError) before the reader
    # became declaration-driven; the message names element, activity and
    # the offending attribute or child.

    @pytest.mark.parametrize(
        "body, complaint",
        [
            pytest.param(  # the typo used to yield an Invoke with no deadline
                '<Invoke name="call" operation="op" to="http://x" timeoutSecond="5"/>',
                "Invoke 'call' has an undeclared attribute 'timeoutSecond'",
                id="undeclared-attribute",
            ),
            pytest.param(
                '<Invoke name="call" operation="op" to="http://x"><Retry/></Invoke>',
                "Invoke 'call' has an undeclared child element <Retry>",
                id="undeclared-child",
            ),
            pytest.param(
                '<Invoke name="call" operation="op" to="http://x">'
                '<Input part="p" value="v" kid="literal"/></Invoke>',
                "Invoke 'call' <Input> has an undeclared attribute 'kid'",
                id="undeclared-part-attribute",
            ),
            pytest.param(
                '<Scope name="s"><Body><Empty name="a"/></Body><Finally/></Scope>',
                "Scope 's' has an undeclared child element <Finally>",
                id="undeclared-child-beside-wrappers",
            ),
            pytest.param(  # the second activity used to be dropped
                '<Scope name="s"><Body><Empty name="a"/><Empty name="b"/></Body></Scope>',
                "Scope 's' <Body> must hold exactly one activity, not 2",
                id="two-activities-in-a-wrapper",
            ),
            pytest.param(
                '<Scope name="s"><Body/></Scope>',
                "Scope 's' <Body> must hold exactly one activity, not 0",
                id="empty-wrapper",
            ),
            pytest.param(
                '<Scope name="s"/>',
                "Scope 's' needs exactly one Body, not 0",
                id="missing-required-slot",
            ),
            pytest.param(
                '<If name="i" condition="x"><Then><Empty name="a"/></Then>'
                '<Else><Empty name="b"/></Else><Else><Empty name="c"/></Else></If>',
                "If 'i' needs at most one Else, not 2",
                id="repeated-single-wrapper",
            ),
            pytest.param(
                '<While name="w" condition="x"><Empty name="a"/><Empty name="b"/></While>',
                "While 'w' needs exactly one child activity, not 2",
                id="two-inline-children",
            ),
            pytest.param(
                '<CompensationScope name="s"><Body><Empty name="a"/></Body>'
                '<CompensationFor><Empty name="u"/></CompensationFor></CompensationScope>',
                "CompensationScope 's' <CompensationFor> is missing attribute 'step'",
                id="missing-map-key",
            ),
            pytest.param(
                '<Scope name="s"><Body><Empty name="a"/></Body>'
                '<FaultHandler><Empty name="h1"/></FaultHandler>'
                '<FaultHandler><Empty name="h2"/></FaultHandler></Scope>',
                "Scope 's' <FaultHandler> is repeated for None",
                id="repeated-map-key",
            ),
            pytest.param(
                '<Invoke name="call" operation="op" to="http://x" timeoutSeconds="abc"/>',
                "Invoke 'call' attribute timeoutSeconds='abc' is not a valid float",
                id="unparsable-float",
            ),
            pytest.param(
                '<While name="w" condition="x" maxIterations="many"><Empty name="a"/></While>',
                "While 'w' attribute maxIterations='many' is not a valid int",
                id="unparsable-int",
            ),
            pytest.param(
                '<Scope name="s" compensateOnFault="yes"><Body><Empty name="a"/></Body></Scope>',
                "Scope 's' attribute compensateOnFault='yes' is not a valid bool",
                id="unparsable-flag",
            ),
            pytest.param(
                '<Throw name="t" fault="Bogus"/>',
                "Throw 't' attribute fault='Bogus' is not a valid FaultCode",
                id="unknown-fault-code",
            ),
            pytest.param(
                '<Scope name="s"><Body><Empty name="a"/></Body>'
                '<FaultHandler fault="Bogus"><Empty name="h"/></FaultHandler></Scope>',
                "Scope 's' <FaultHandler> attribute fault='Bogus' is not a valid FaultCode",
                id="unknown-fault-code-key",
            ),
            pytest.param(
                '<Assign name="a" variable="x" expression="__import__(1)"/>',
                "Assign 'a' attribute expression='__import__(1)' is not a valid Expression",
                id="unsafe-expression",
            ),
            pytest.param(
                '<Reply name="r" variable="x" expression="x"/>',
                "Reply 'r': Reply 'r' needs exactly one of expression/variable",
                id="cross-attribute-rule",
            ),
        ],
    )
    def test_malformed_document_names_what_is_wrong(self, body, complaint):
        document = body.replace(" ", f" {NS} ", 1)
        with pytest.raises(ProcessSerializationError) as error:
            parse_activity(document)
        assert str(error.value).startswith(complaint)

    def test_unparsable_initial_variable(self):
        xml = (
            f'<Process {NS} name="p"><Variables><Variable name="n" type="int">many'
            '</Variable></Variables><Empty name="e"/></Process>'
        )
        with pytest.raises(ProcessSerializationError, match="Variable 'n': 'many' is not a valid int"):
            parse_process_definition(xml)
