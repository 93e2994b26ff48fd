"""Unit tests for service contracts and message validation."""

import dataclasses

import pytest

from repro.soap import FaultCode
from repro.wsdl import ContractViolation, MessageSchema, Operation, PartSchema, ServiceContract
from repro.xmlutils import Element

SCHEMA = MessageSchema(
    "orderRequest",
    (
        PartSchema("orderId"),
        PartSchema("amount", "float"),
        PartSchema("count", "int"),
        PartSchema("rush", "bool", required=False),
    ),
)

CONTRACT = ServiceContract(
    service_type="Orders",
    operations=(
        Operation(
            "submit",
            SCHEMA,
            MessageSchema("orderResponse", (PartSchema("status"),)),
        ),
    ),
)


class TestMessageSchema:
    def test_build_produces_valid_payload(self):
        payload = SCHEMA.build(orderId="o-1", amount=9.5, count=2)
        assert SCHEMA.validate(payload) == []
        assert payload.child_text("amount") == "9.5"

    def test_build_serializes_booleans(self):
        payload = SCHEMA.build(orderId="o", amount=1, count=1, rush=True)
        assert payload.child_text("rush") == "true"

    def test_build_rejects_unknown_part(self):
        with pytest.raises(ContractViolation):
            SCHEMA.build(orderId="o", amount=1, count=1, bogus="x")

    def test_build_rejects_missing_required(self):
        with pytest.raises(ContractViolation):
            SCHEMA.build(orderId="o")

    def test_optional_part_may_be_absent(self):
        payload = SCHEMA.build(orderId="o", amount=1, count=1)
        assert SCHEMA.validate(payload) == []

    def test_wrong_root_element(self):
        assert SCHEMA.validate(Element("somethingElse"))

    def test_type_violations_reported(self):
        payload = SCHEMA.build(orderId="o", amount=1, count=1)
        payload.find("count").text = "many"
        violations = SCHEMA.validate(payload)
        assert any("count" in violation for violation in violations)

    def test_missing_required_part_reported(self):
        payload = Element("orderRequest")
        payload.add("orderId", text="o")
        violations = SCHEMA.validate(payload)
        assert any("amount" in v for v in violations)


class TestServiceContract:
    def test_operation_lookup(self):
        assert CONTRACT.operation("submit").name == "submit"
        with pytest.raises(KeyError):
            CONTRACT.operation("ghost")

    def test_has_operation(self):
        assert CONTRACT.has_operation("submit")
        assert not CONTRACT.has_operation("cancel")

    def test_soap_action_round_trip(self):
        action = CONTRACT.operation("submit").soap_action("Orders")
        assert CONTRACT.operation_for_action(action).name == "submit"
        assert CONTRACT.operation_for_action("urn:other:thing") is None

    def test_lookups_agree_with_a_scan_of_the_operations(self):
        # The maps are built once per contract; the scan is the reference,
        # the first of two same-named operations winning as it would.
        first, second = Operation("get", SCHEMA, SCHEMA), Operation("get", SCHEMA, SCHEMA)
        put = Operation("put", SCHEMA, SCHEMA)
        contract = ServiceContract("Store", (first, second, put))
        renamed = dataclasses.replace(contract, service_type="Shop")
        for subject in (contract, renamed):
            for operation in subject.operations:
                action = operation.soap_action(subject.service_type)
                expected = next(
                    o
                    for o in subject.operations
                    if o.soap_action(subject.service_type) == action
                )
                assert subject.operation_for_action(action) is expected
                assert subject.operation(operation.name) is expected
                assert subject.has_operation(operation.name)
        assert contract.operation("get") is first
        assert renamed.operation_for_action("urn:Store:put") is None
        assert renamed.operation_for_action("urn:Shop:put") is put
        assert contract == ServiceContract("Store", (first, second, put))

    def test_validate_request_raises_with_details(self):
        bad = Element("orderRequest")
        with pytest.raises(ContractViolation) as excinfo:
            CONTRACT.validate_request("submit", bad)
        assert excinfo.value.violations

    def test_validate_response(self):
        good = Element("orderResponse", children=[Element("status", text="ok")])
        CONTRACT.validate_response("submit", good)  # no raise
        with pytest.raises(ContractViolation):
            CONTRACT.validate_response("submit", Element("orderResponse"))

    def test_default_declared_faults(self):
        assert FaultCode.SERVICE_FAILURE in CONTRACT.operation("submit").declared_faults
