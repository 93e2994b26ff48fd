"""Service contract model and message validation.

A :class:`ServiceContract` plays the role of an abstract WSDL: it names the
service type, its operations, and the shape of each operation's input and
output messages. Functionally-equivalent services (the members of a wsBus
Virtual End Point) share a contract, which is what lets the VEP "expose an
abstract WSDL for accessing the configured services".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from weakref import WeakKeyDictionary

from repro.soap import FaultCode
from repro.xmlutils import Element, QName

__all__ = [
    "ContractViolation",
    "MessageSchema",
    "Operation",
    "PartSchema",
    "ServiceContract",
]


class ContractViolation(Exception):
    """A message failed validation against its contract."""

    def __init__(self, message: str, violations: list[str] | None = None) -> None:
        super().__init__(message)
        self.violations = violations or [message]


_CASTS = {
    "string": str,
    "int": int,
    "float": float,
    "bool": lambda v: v in ("true", "1", "True"),
}


@dataclass(frozen=True)
class PartSchema:
    """One child element of an operation message.

    ``kind`` is one of ``string``, ``int``, ``float``, ``bool`` — enough to
    type the case studies' payloads and to catch value-mismatch faults.
    """

    name: str
    kind: str = "string"
    required: bool = True

    def validate(self, parent: Element) -> list[str]:
        child = parent.find(self.name)
        if child is None:
            return [f"missing part {self.name!r}"] if self.required else []
        if self.kind == "string":
            return []
        text = child.text or ""
        try:
            _CASTS[self.kind](text)
        except (KeyError, ValueError):
            return [f"part {self.name!r} is not a valid {self.kind}: {text!r}"]
        return []


@dataclass(frozen=True)
class MessageSchema:
    """The shape of one message: a root element name plus typed parts."""

    element_name: str
    parts: tuple[PartSchema, ...] = ()

    def validate(self, payload: Element) -> list[str]:
        violations: list[str] = []
        if payload.name.local != self.element_name:
            violations.append(
                f"expected root element {self.element_name!r}, got {payload.name.local!r}"
            )
            return violations
        for part in self.parts:
            violations.extend(part.validate(payload))
        return violations

    def build(self, namespace: str = "", **parts: object) -> Element:
        """Construct a conforming payload from keyword parts."""
        root = Element(QName(namespace, self.element_name))
        known = {part.name for part in self.parts}
        for name, value in parts.items():
            if name not in known:
                raise ContractViolation(f"unknown part {name!r} for {self.element_name!r}")
            text = "true" if value is True else "false" if value is False else str(value)
            root.add(name, text=text)
        missing = [
            part.name for part in self.parts if part.required and part.name not in parts
        ]
        if missing:
            raise ContractViolation(f"missing required parts {missing} for {self.element_name!r}")
        return root

    def build_interned(self, namespace: str = "", **parts: object) -> Element:
        """Like :meth:`build`, but returns a shared, memoized payload tree.

        Workloads and services that emit the same payload thousands of times
        (every ``getCatalog`` request, every catalog reply) get one element
        tree back for all of them, which lets the SOAP layer's per-body size
        memo measure the tree once and sum an envelope around it once per
        addressing shape. The returned tree is shared: callers must treat it
        as immutable and follow the middleware's copy-on-write discipline
        (replace bodies, never edit them in place — exactly what the
        envelope fast-path ``copy`` already requires). Unhashable part
        values fall back to a fresh :meth:`build`.
        """
        try:
            return _build_interned(self, namespace, tuple(parts.items()))
        except TypeError:
            return self.build(namespace, **parts)


#: Payload trees that already validated cleanly, per message schema (matched
#: by identity). Interned payloads repeat for thousands of requests, so the
#: per-request contract walk runs once per shared tree. Only clean results
#: are cached — violations always re-validate — and entries die with the
#: payload. Relies on the middleware-wide copy-on-write discipline for
#: shared trees.
_VALIDATED_OK: "WeakKeyDictionary[Element, list[MessageSchema]]" = WeakKeyDictionary()


@lru_cache(maxsize=4096)
def _build_interned(
    schema: MessageSchema, namespace: str, parts: tuple[tuple[str, object], ...]
) -> Element:
    # ``parts`` preserves keyword order, so a cache hit returns a tree with
    # the same child order ``build`` would have produced for that call.
    return schema.build(namespace, **dict(parts))


@dataclass(frozen=True)
class Operation:
    """A request/response operation with declared faults."""

    name: str
    input: MessageSchema
    output: MessageSchema
    declared_faults: tuple[FaultCode, ...] = (
        FaultCode.SERVER,
        FaultCode.SERVICE_FAILURE,
    )

    def soap_action(self, service_type: str) -> str:
        return f"urn:{service_type}:{self.name}"


@dataclass(frozen=True)
class ServiceContract:
    """An abstract service interface: a service type plus its operations."""

    service_type: str
    operations: tuple[Operation, ...] = ()
    namespace: str = ""

    def operation(self, name: str) -> Operation:
        for operation in self.operations:
            if operation.name == name:
                return operation
        raise KeyError(f"contract {self.service_type!r} has no operation {name!r}")

    def has_operation(self, name: str) -> bool:
        return any(operation.name == name for operation in self.operations)

    def operation_for_action(self, action: str) -> Operation | None:
        """Resolve a WSA action URI back to an operation."""
        for operation in self.operations:
            if operation.soap_action(self.service_type) == action:
                return operation
        return None

    def validate_request(self, operation_name: str, payload: Element) -> None:
        schema = self.operation(operation_name).input
        validated = _VALIDATED_OK.get(payload)
        if validated is not None and any(entry is schema for entry in validated):
            return
        violations = schema.validate(payload)
        if violations:
            raise ContractViolation(
                f"request to {self.service_type}.{operation_name} violates contract",
                violations,
            )
        if validated is None:
            _VALIDATED_OK[payload] = [schema]
        else:
            validated.append(schema)

    def validate_response(self, operation_name: str, payload: Element) -> None:
        violations = self.operation(operation_name).output.validate(payload)
        if violations:
            raise ContractViolation(
                f"response from {self.service_type}.{operation_name} violates contract",
                violations,
            )
