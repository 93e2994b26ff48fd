"""XML serialization of WS-Policy4MASC documents.

The wire format is a W3C WS-Policy ``Policy`` element whose assertions live
in the MASC namespace. Parsing is strict (an unknown element or attribute,
or a value that does not parse or compile, is a :class:`PolicyError`
naming the policy and the element — policies drive adaptation of live
systems, so silent skipping would be dangerous) and documents round-trip:
``parse(serialize(doc))`` yields an equivalent document.
"""

from __future__ import annotations

from dataclasses import MISSING

from repro.orchestration.expressions import ExpressionError
from repro.policy.actions import ActionError, AdaptationAction, attribute_text, schema
from repro.policy.assertions import MessageCondition, QoSThreshold
from repro.policy.model import (
    AdaptationPolicy,
    BusinessValue,
    GoalPolicy,
    MonitoringPolicy,
    PolicyDocument,
    PolicyError,
    PolicyScope,
)
from repro.soap import FaultCode
from repro.xmlutils import Element, QName, XPathError, parse_xml, serialize_xml

__all__ = [
    "MASC_POLICY_NS",
    "WSP_NS",
    "parse_policy_document",
    "serialize_policy_document",
]

WSP_NS = "http://schemas.xmlsoap.org/ws/2004/09/policy"
MASC_POLICY_NS = "http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc"

_BOOLEANS = {"true": True, "false": False}


def _masc(local: str) -> QName:
    return QName(MASC_POLICY_NS, local)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_policy_document(document: PolicyDocument, indent: bool = False) -> str:
    """Render a document to its XML text form."""
    return serialize_xml(document_to_element(document), indent=indent)


def document_to_element(document: PolicyDocument) -> Element:
    root = Element(QName(WSP_NS, "Policy"), attributes={"Name": document.name})
    for policy in document.monitoring_policies:
        root.append(_monitoring_to_element(policy))
    for policy in document.adaptation_policies:
        root.append(_adaptation_to_element(policy))
    for goal in document.goal_policies:
        root.append(_declared_to_element(goal))
    return root


def _append_unless_empty(element: Element, nested: Element) -> None:
    """An all-wildcard ``Scope`` is written as no element at all."""
    if nested.attributes or nested.children:
        element.append(nested)


def _policy_element(tag: str, policy, events: tuple[str, ...], **attributes: str) -> Element:
    """What sensors and effectors share: name, priority, events, scope, condition."""
    element = Element(
        _masc(tag),
        attributes={"name": policy.name, "priority": str(policy.priority), **attributes},
    )
    for event in events:
        element.add(_masc("On"), event=event)
    _append_unless_empty(element, _declared_to_element(policy.scope))
    if policy.condition is not None:
        element.add(_masc("Condition"), text=policy.condition)
    return element


def _monitoring_to_element(policy: MonitoringPolicy) -> Element:
    element = _policy_element("MonitoringPolicy", policy, policy.events)
    for assertion in policy.conditions + policy.qos_thresholds:
        element.append(_declared_to_element(assertion))
    for variable, xpath in policy.extract.items():
        element.add(_masc("Extract"), variable=variable, xpath=xpath)
    if policy.classify_as is not None:
        element.add(_masc("ClassifyAs"), fault=policy.classify_as.value)
    for event in policy.emits:
        element.add(_masc("Emit"), event=event)
    return element


def _adaptation_to_element(policy: AdaptationPolicy) -> Element:
    element = _policy_element(
        "AdaptationPolicy", policy, policy.triggers, type=policy.adaptation_type
    )
    if policy.state_before is not None:
        element.add(_masc("StateBefore"), text=policy.state_before)
    if policy.state_after is not None:
        element.add(_masc("StateAfter"), text=policy.state_after)
    actions = element.add(_masc("Actions"))
    for action in policy.actions:
        actions.append(_declared_to_element(action))
    if policy.business_value is not None:
        element.append(_declared_to_element(policy.business_value))
    return element


def _declared_to_element(declared) -> Element:
    """Write one assertion from its dataclass declaration.

    Works for every class :func:`repro.policy.actions.schema` describes:
    ``None`` attributes and those whose ``omit_when`` holds are left out;
    ``child`` fields become ``(tag, attribute)`` elements per tuple item,
    ``(tag, key attribute, value attribute)`` elements per dict entry, or
    nested assertion elements (one, or one per tuple item).
    """
    attributes, children = schema(type(declared))
    element = Element(_masc(declared.element))
    for spec in attributes:
        value = getattr(declared, spec.name)
        omit_when = spec.rules.get("omit_when")
        if value is not None and not (omit_when and omit_when(declared)):
            element.attributes[spec.xml_name] = attribute_text(value)
    for spec in children:
        child, value = spec.rules["child"], getattr(declared, spec.name)
        if isinstance(child, type):
            for item in value if spec.type is tuple else (value,):
                _append_unless_empty(element, _declared_to_element(item))
        else:  # one plain element per tuple item / dict entry
            tag, *names = child
            for row in value.items() if spec.type is dict else ((item,) for item in value):
                element.append(Element(_masc(tag), attributes=dict(zip(names, map(str, row)))))
    return element


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_policy_document(source: str | Element) -> PolicyDocument:
    """Parse XML text (or a pre-parsed element) into a PolicyDocument."""
    root = parse_xml(source) if isinstance(source, str) else source
    if root.name != QName(WSP_NS, "Policy"):
        raise PolicyError(f"not a WS-Policy document: {root.name}")
    document = PolicyDocument(name=root.attributes.get("Name", "unnamed"))
    for child in root.children:
        if child.name == _masc("MonitoringPolicy"):
            document.monitoring_policies.append(_parse_monitoring(child))
        elif child.name == _masc("AdaptationPolicy"):
            document.adaptation_policies.append(_parse_adaptation(child))
        elif child.name == _masc("GoalPolicy"):
            where = f"policy {child.attributes.get('name')!r}"
            document.goal_policies.append(_parse_declared(GoalPolicy, child, where))
        elif child.name in (QName(WSP_NS, "ExactlyOne"), QName(WSP_NS, "All")):
            # WS-Policy operators: flatten — MASC treats all alternatives
            # as available and picks by priority at enforcement time.
            nested = parse_policy_document(
                Element(QName(WSP_NS, "Policy"), children=[c.copy() for c in child.children])
            )
            document.monitoring_policies.extend(nested.monitoring_policies)
            document.adaptation_policies.extend(nested.adaptation_policies)
            document.goal_policies.extend(nested.goal_policies)
        else:
            raise PolicyError(f"unknown policy element {child.name}")
    return document


def _parse_one(cls, parent: Element, where: str, absent=None):
    """The single ``cls`` child element of ``parent``, or ``absent``."""
    element = parent.find(_masc(cls.element))
    return absent if element is None else _parse_declared(cls, element, where)


def _required(element: Element, attribute: str) -> str:
    value = element.attributes.get(attribute)
    if value is None:
        raise PolicyError(f"element {element.name.local} is missing attribute {attribute!r}")
    return value


#: ``(attributes, child elements)`` each policy element may carry.
_POLICY_GRAMMAR = {
    "MonitoringPolicy": (
        {"name", "priority"},
        {"On", "Scope", "Condition", "MessageCondition", "QoSThreshold", "Extract"}
        | {"ClassifyAs", "Emit"},
    ),
    "AdaptationPolicy": (
        {"name", "priority", "type"},
        {"On", "Scope", "Condition", "StateBefore", "StateAfter", "Actions", "BusinessValue"},
    ),
}


def _policy_header(element: Element) -> tuple[str, int]:
    """Check a policy element against its grammar; its ``where`` and priority."""
    tag = element.name.local
    where = f"policy {element.attributes.get('name')!r}"
    attributes, children = _POLICY_GRAMMAR[tag]
    for name in element.attributes:
        if name not in attributes:
            raise PolicyError(f"{where} <masc:{tag}>: unknown attribute {name!r}")
    for child in element.children:
        if child.name.namespace != MASC_POLICY_NS or child.name.local not in children:
            raise PolicyError(f"{where} <masc:{tag}>: unknown child element {child.name.local!r}")
    text = element.attributes.get("priority", "100")
    try:
        return where, int(text)
    except ValueError:
        raise PolicyError(
            f"{where} <masc:{tag}>: attribute priority={text!r} is not a valid int"
        ) from None


def _build_policy(cls, where: str, **values):
    """``cls(**values)``; a malformed ``Condition`` is a :class:`PolicyError`."""
    try:
        return cls(**values)
    except ExpressionError as error:
        raise PolicyError(f"{where} <masc:Condition>: {error}") from error


def _parse_monitoring(element: Element) -> MonitoringPolicy:
    where, priority = _policy_header(element)
    events = tuple(_required(on, "event") for on in element.find_all(_masc("On")))
    conditions, thresholds = (
        tuple(_parse_declared(cls, item, where) for item in element.find_all(_masc(cls.element)))
        for cls in (MessageCondition, QoSThreshold)
    )
    extract = {
        _required(ex, "variable"): _required(ex, "xpath")
        for ex in element.find_all(_masc("Extract"))
    }
    classify_as = None
    classify_element = element.find(_masc("ClassifyAs"))
    if classify_element is not None:
        fault = _required(classify_element, "fault")
        try:
            classify_as = FaultCode(fault)
        except ValueError:
            raise PolicyError(f"{where} <masc:ClassifyAs>: unknown fault {fault!r}") from None
    emits = tuple(_required(emit, "event") for emit in element.find_all(_masc("Emit")))
    return _build_policy(
        MonitoringPolicy,
        where,
        name=_required(element, "name"),
        events=events,
        scope=_parse_one(PolicyScope, element, where, PolicyScope()),
        condition=element.child_text(_masc("Condition")),
        conditions=conditions,
        qos_thresholds=thresholds,
        extract=extract,
        classify_as=classify_as,
        emits=emits,
        priority=priority,
    )


def _parse_declared(cls, element: Element, where: str):
    """Read one assertion through its dataclass declaration.

    Strict: an unknown attribute or child, an unparsable number or
    boolean and an out-of-range value all raise :class:`PolicyError`
    naming the policy, the element and the attribute. An absent optional
    attribute is ``None``; any other absent attribute takes the
    dataclass default.
    """
    where = f"{where} <masc:{element.name.local}>"
    attributes, children = schema(cls)
    values = {}
    for spec in attributes:
        text = element.attributes.get(spec.xml_name)
        if text is not None:
            try:
                values[spec.name] = _BOOLEANS[text] if spec.type is bool else spec.type(text)
            except (KeyError, ValueError):
                raise PolicyError(
                    f"{where}: attribute {spec.xml_name}={text!r} is not "
                    f"a valid {spec.type.__name__}"
                ) from None
        elif spec.optional:
            values[spec.name] = None
        elif spec.default is MISSING:
            raise PolicyError(f"{where} is missing attribute {spec.xml_name!r}")
    for name in element.attributes:
        if all(name != spec.xml_name for spec in attributes):
            raise PolicyError(f"{where}: unknown attribute {name!r}")
    tags = set()
    for spec in children:
        child = spec.rules["child"]
        tag = _masc(child.element if isinstance(child, type) else child[0])
        tags.add(tag)
        found = element.find_all(tag)
        if isinstance(child, type):
            nested = tuple(_parse_declared(child, item, where) for item in found)
            values[spec.name] = nested if spec.type is tuple else nested[0] if nested else child()
        else:
            rows = [tuple(_required(item, name) for name in child[1:]) for item in found]
            values[spec.name] = dict(rows) if spec.type is dict else tuple(r[0] for r in rows)
    for item in element.children:
        if item.name not in tags:
            raise PolicyError(f"{where}: unknown child element {item.name.local!r}")
    try:
        return cls(**values)
    except (ActionError, ValueError, XPathError) as error:
        raise PolicyError(f"{where}: {error}") from error


def _parse_action(element: Element, where: str) -> AdaptationAction:
    cls = AdaptationAction.by_element.get(element.name.local)
    if cls is None:
        raise PolicyError(f"{where}: unknown adaptation action element {element.name.local!r}")
    return _parse_declared(cls, element, where)


def _parse_adaptation(element: Element) -> AdaptationPolicy:
    where, priority = _policy_header(element)
    actions_element = element.find(_masc("Actions"))
    if actions_element is None:
        raise PolicyError(
            f"adaptation policy {element.attributes.get('name')!r} has no Actions element"
        )
    return _build_policy(
        AdaptationPolicy,
        where,
        name=_required(element, "name"),
        triggers=tuple(_required(on, "event") for on in element.find_all(_masc("On"))),
        scope=_parse_one(PolicyScope, element, where, PolicyScope()),
        condition=element.child_text(_masc("Condition")),
        state_before=element.child_text(_masc("StateBefore")),
        state_after=element.child_text(_masc("StateAfter")),
        actions=tuple(_parse_action(child, where) for child in actions_element.children),
        business_value=_parse_one(BusinessValue, element, where),
        priority=priority,
        adaptation_type=element.attributes.get("type", "correction"),
    )
