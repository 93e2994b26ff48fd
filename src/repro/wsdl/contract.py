"""Service contract model and message validation.

A :class:`ServiceContract` plays the role of an abstract WSDL: it names the
service type, its operations, and the shape of each operation's input and
output messages. Functionally-equivalent services (the members of a wsBus
Virtual End Point) share a contract, which is what lets the VEP "expose an
abstract WSDL for accessing the configured services".
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    #: Each part's element name, computed once per schema for :meth:`build`.
    _part_names: dict[str, QName] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = {part.name: QName("", part.name) for part in self.parts}
        object.__setattr__(self, "_part_names", names)

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
        names = self._part_names
        for name, value in parts.items():
            qname = names.get(name)
            if qname is None:
                raise ContractViolation(f"unknown part {name!r} for {self.element_name!r}")
            text = "true" if value is True else "false" if value is False else str(value)
            root.append(Element(qname, None, text))
        if len(parts) < len(names):  # every part is known, so only then can one be missing
            missing = [
                part.name for part in self.parts if part.required and part.name not in parts
            ]
            if missing:
                raise ContractViolation(
                    f"missing required parts {missing} for {self.element_name!r}"
                )
        return root

    def build_interned(self, namespace: str = "", **parts: object) -> Element:
        """Like :meth:`build`, but returns a shared, memoized payload tree.

        Workloads and services that emit the same payload thousands of times
        (every ``getCatalog`` request, every catalog reply) get one element
        tree back for all of them, which lets the SOAP layer's per-body size
        memo measure the tree once (and the contract validate it once). The
        returned tree is shared: callers must treat it
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
    #: Each operation by name and by SOAP action, built once per contract;
    #: the first of two operations sharing a name or action wins.
    _by_name: dict[str, Operation] = field(init=False, repr=False, compare=False)
    _by_action: dict[str, Operation] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, Operation] = {}
        by_action: dict[str, Operation] = {}
        for operation in self.operations:
            by_name.setdefault(operation.name, operation)
            by_action.setdefault(operation.soap_action(self.service_type), operation)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_action", by_action)

    def operation(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"contract {self.service_type!r} has no operation {name!r}") from None

    def has_operation(self, name: str) -> bool:
        return name in self._by_name

    def operation_for_action(self, action: str) -> Operation | None:
        """Resolve a WSA action URI back to an operation."""
        return self._by_action.get(action)

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
