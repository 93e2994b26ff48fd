"""XML serialization of process definitions.

The paper keeps process definitions in external documents ("WF processes
are defined in Microsoft's Extensible Applications Markup Language (XAML)"
/ "all business processes, including base processes and variation
processes, are defined in appropriate other documents (e.g., BPEL files),
so they are only referenced in WS-Policy4MASC policies"). This module
provides that externalized document format: a BPEL-flavoured XML dialect
that round-trips every declarative activity type.

Nothing here names an activity class: one writer and one reader interpret
the ``element`` / ``attributes`` / ``slots`` declaration each class in
:mod:`repro.orchestration.activities` carries (docs/process-documents.md).
Only ``Invoke``'s ``<Input>``/``<Output>`` parts and the
``<Process>``/``<Variables>`` envelope are written by hand. The reader is
strict: whatever a class does not declare — an attribute, a child element,
a second activity inside a wrapper — is a :class:`ProcessSerializationError`
naming the element, the activity and the attribute.

Activities constructed from Python callables (`input_builder`, callable
conditions) are intentionally **not** serializable — a process document
must be fully declarative — and raise :class:`ProcessSerializationError`.
"""

from __future__ import annotations

from typing import Any

from repro.orchestration.activities import Activity, Invoke
from repro.orchestration.definition import ProcessDefinition
from repro.orchestration.errors import DefinitionError
from repro.orchestration.expressions import Expression, ExpressionError
from repro.soap import FaultCode
from repro.xmlutils import Element, QName, parse_xml, serialize_xml

__all__ = [
    "PROCESS_NS",
    "ProcessSerializationError",
    "parse_activity",
    "parse_process_definition",
    "serialize_activity",
    "serialize_process_definition",
]

PROCESS_NS = "http://masc.web.cse.unsw.edu.au/ns/process"


class ProcessSerializationError(Exception):
    """The definition cannot be expressed in (or read from) the XML form."""


def _el(local: str) -> QName:
    return QName(PROCESS_NS, local)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_process_definition(definition: ProcessDefinition, indent: bool = False) -> str:
    """Render a declarative process definition as an XML document."""
    root = Element(_el("Process"), attributes={"name": definition.name})
    if definition.initial_variables:
        variables = root.add(_el("Variables"))
        for name, value in definition.initial_variables.items():
            variables.append(
                Element(
                    _el("Variable"),
                    attributes={"name": name, "type": _type_name(value)},
                    text=_literal_text(value),
                )
            )
    root.append(_activity_to_element(definition.root))
    return serialize_xml(root, indent=indent)


def serialize_activity(activity: Activity, indent: bool = False) -> str:
    """Render one activity subtree as a standalone XML document.

    The persistence layer dehydrates *instance* trees with this (the live
    tree may differ from its definition after dynamic modification), and the
    modification journal serializes inserted/replacement activities the same
    way. Only fully declarative activities serialize; Python callables raise
    :class:`ProcessSerializationError` exactly as in full-definition form.
    """
    return serialize_xml(_activity_to_element(activity), indent=indent)


#: ``<Variable type=…>`` names; ``bool`` first, a bool being an int.
_VARIABLE_TYPES = {"bool": bool, "int": int, "float": float, "string": str}


def _type_name(value: Any) -> str:
    for name, codec in _VARIABLE_TYPES.items():
        if isinstance(value, codec):
            return name
    raise ProcessSerializationError(
        f"initial variable of type {type(value).__name__} is not serializable"
    )


def _literal_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _attribute_text(activity: Activity, xml_name: str, codec: Any, value: Any) -> str | None:
    """The XML text of one attribute value; ``None`` when it is left out."""
    if value is None or codec is str:
        return value
    if codec is Expression and not isinstance(value, str):
        raise ProcessSerializationError(
            f"{activity.element} {activity.name!r} computes {xml_name!r} with a Python "
            "callable; only expression text is serializable"
        )
    if codec is FaultCode:
        return value.value
    return None if value is False else _literal_text(value)


def _activity_to_element(activity: Activity) -> Element:
    cls = type(activity)
    if cls.element is None:
        raise ProcessSerializationError(
            f"activity type {cls.__name__} is not serializable"
        )
    element = Element(_el(cls.element), attributes={"name": activity.name})
    for xml_name, keyword, codec, *default in cls.attributes:
        value = getattr(activity, f"{keyword}_source" if codec is Expression else keyword)
        text = _attribute_text(activity, xml_name, codec, value)
        if text is not None:
            element.attributes[xml_name] = text
        elif not default:
            raise ProcessSerializationError(
                f"{cls.element} {activity.name!r} has no serializable {xml_name!r}"
            )
    if issubclass(cls, Invoke):
        _write_invoke_parts(activity, element)
    for slot in cls.slots:
        for key, child in slot.items(activity):
            holder = element
            if slot.wrapper is not None:
                holder = element.add(_el(slot.wrapper))
                if slot.key is not None:
                    text = _attribute_text(activity, slot.key[0], slot.key[1], key)
                    if text is not None:
                        holder.attributes[slot.key[0]] = text
            holder.append(_activity_to_element(child))
    return element


def _write_invoke_parts(activity: Invoke, element: Element) -> None:
    if activity.input_builder is not None:
        raise ProcessSerializationError(
            f"Invoke {activity.name!r} uses an input_builder callable"
        )
    for part, spec in activity.inputs.items():
        if callable(spec) and not isinstance(spec, Expression):
            raise ProcessSerializationError(
                f"Invoke {activity.name!r} input {part!r} is a Python callable"
            )
        value = spec.source if isinstance(spec, Expression) else _literal_text(spec)
        kind = "expression" if isinstance(spec, Expression) else "literal"
        if isinstance(spec, str) and spec.startswith("$"):
            kind = "variable"
        element.add(_el("Input"), part=part, value=str(value), kind=kind)
    for variable, part in activity.extract.items():
        element.add(_el("Output"), variable=variable, part=part)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_process_definition(source: str | Element) -> ProcessDefinition:
    """Parse an XML process document back into a ProcessDefinition."""
    root = parse_xml(source) if isinstance(source, str) else source
    if root.name != _el("Process"):
        raise ProcessSerializationError(f"not a process document: {root.name}")
    name = root.attributes.get("name")
    if not name:
        raise ProcessSerializationError("process document is missing its name")
    initial_variables: dict[str, Any] = {}
    variables_el = root.find(_el("Variables"))
    if variables_el is not None:
        for variable in variables_el.find_all(_el("Variable")):
            declared = _read_attributes(variable, _VARIABLE, "Variable")
            try:
                value = _decode(_VARIABLE_TYPES[declared["type"]], variable.text or "")
            except (KeyError, ValueError) as error:
                raise ProcessSerializationError(
                    f"Variable {declared['name']!r}: {variable.text!r} is not a valid "
                    f"{declared['type']}"
                ) from error
            initial_variables[declared["name"]] = value
    activity_elements = [
        child for child in root.children if child.name != _el("Variables")
    ]
    if len(activity_elements) != 1:
        raise ProcessSerializationError("process document must have exactly one root activity")
    return ProcessDefinition(
        name,
        _element_to_activity(activity_elements[0], _declared_classes()),
        initial_variables=initial_variables,
    )


def parse_activity(source: str | Element) -> Activity:
    """Parse a standalone activity document back into an activity tree."""
    root = parse_xml(source) if isinstance(source, str) else source
    return _element_to_activity(root, _declared_classes())


def _decode(codec: Any, text: str) -> Any:
    """The value of an attribute text; ``ValueError`` when it is not one."""
    if codec is not bool:
        return codec(text)
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


_VARIABLE = (("name", "name", str), ("type", "type", str, "string"))
_OUTPUT = (("variable", "variable", str), ("part", "part", str))


def _read_attributes(element: Element, declared, where: str) -> dict[str, Any]:
    """Decode ``element``'s attributes against ``(XML name, keyword, codec[,
    default])`` declarations; anything undeclared or unparsable is an error."""
    undeclared = sorted(element.attributes.keys() - {entry[0] for entry in declared})
    if undeclared:
        raise ProcessSerializationError(
            f"{where} has an undeclared attribute {undeclared[0]!r}"
        )
    values = {}
    for xml_name, keyword, codec, *default in declared:
        text = element.attributes.get(xml_name)
        if text is not None:
            try:
                values[keyword] = _decode(codec, text)
            except (ValueError, ExpressionError) as error:
                raise ProcessSerializationError(
                    f"{where} attribute {xml_name}={text!r} is not a valid "
                    f"{codec.__name__}: {error}"
                ) from error
        elif default:
            values[keyword] = default[0]
        else:
            raise ProcessSerializationError(f"{where} is missing attribute {xml_name!r}")
    return values


def _declared_classes() -> dict[str, type[Activity]]:
    """``element → class`` for every activity class that declares its own."""
    found: dict[str, type[Activity]] = {}
    pending = [Activity]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if vars(cls).get("element"):
            found[cls.element] = cls
    return found


def _element_to_activity(element: Element, classes: dict[str, type[Activity]]) -> Activity:
    local = element.name.local
    cls = classes.get(local)
    if cls is None:
        raise ProcessSerializationError(f"unknown activity element {local!r}")
    where = f"{local} {element.attributes.get('name', '')!r}"
    arguments = _read_attributes(element, (("name", "name", str), *cls.attributes), where)
    # Sort the children by element name: a declared wrapper (or message
    # part) by its own, anything else into the slot that holds its
    # children unwrapped.
    parts: dict = {"Input": [], "Output": []} if issubclass(cls, Invoke) else {}
    holders: dict[str | None, list[Element]] = {slot.wrapper: [] for slot in cls.slots} | parts
    for child in element.children:
        wrapper = child.name.local if child.name.local in holders else None
        if wrapper not in holders:
            raise ProcessSerializationError(
                f"{where} has an undeclared child element <{child.name.local}>"
            )
        holders[wrapper].append(child)
    if parts:
        arguments.update(_read_invoke_parts(parts["Input"], parts["Output"], where))
    for slot in cls.slots:
        held: dict[Any, Activity] = {}
        for key, holder in enumerate(holders[slot.wrapper]):
            if slot.wrapper is not None:
                what = f"{where} <{slot.wrapper}>"
                declared = ((slot.key[0], "key", *slot.key[1:]),) if slot.key else ()
                key = _read_attributes(holder, declared, what).get("key", key)
                if key in held:
                    raise ProcessSerializationError(f"{what} is repeated for {key!r}")
                if len(holder.children) != 1:
                    raise ProcessSerializationError(
                        f"{what} must hold exactly one activity, not {len(holder.children)}"
                    )
                holder = holder.children[0]
            held[key] = _element_to_activity(holder, classes)
        if slot.kind == "map":
            arguments[slot.name] = held
        elif slot.kind == "list":
            arguments[slot.name] = list(held.values())
        elif len(held) > 1 or not (held or slot.optional):
            raise ProcessSerializationError(
                f"{where} needs {'at most' if slot.optional else 'exactly'} one "
                f"{slot.wrapper or 'child activity'}, not {len(held)}"
            )
        else:
            arguments[slot.name] = held.get(0)
    try:
        return cls(**arguments)
    except DefinitionError as error:
        raise ProcessSerializationError(f"{where}: {error}") from error


def _read_invoke_parts(inputs: list[Element], outputs: list[Element], where: str) -> dict:
    """The ``inputs``/``extract`` arguments of an Invoke, from its message parts."""
    specs, extract = {}, {}
    for element in inputs:
        # "$var" references and literals stay text; expressions compile.
        codec = Expression if element.attributes.get("kind") == "expression" else str
        declared = (("part", "part", str), ("value", "value", codec), ("kind", "kind", str, ""))
        part = _read_attributes(element, declared, f"{where} <Input>")
        specs[part["part"]] = part["value"]
    for element in outputs:
        part = _read_attributes(element, _OUTPUT, f"{where} <Output>")
        extract[part["variable"]] = part["part"]
    return {"inputs": specs, "extract": extract}
