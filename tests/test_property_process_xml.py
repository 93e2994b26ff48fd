"""Property-based tests for the XML process form and WSDL mapping.

The activity strategy is not written per class: it is derived from the
``element`` / ``attributes`` / ``slots`` declaration every activity class
carries, so a class, attribute or slot added to the declaration is
generated — and round-tripped here, rebuilt, copied and edited in
``test_activity_declaration.py`` — without touching this file.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.orchestration import (
    DefinitionError,
    Expression,
    Invoke,
    ProcessDefinition,
    Sequence,
    parse_process_definition,
    serialize_process_definition,
)
from repro.orchestration.xmlio import _declared_classes
from repro.soap import FaultCode
from repro.wsdl import (
    MessageSchema,
    Operation,
    PartSchema,
    ServiceContract,
    contract_to_wsdl,
    wsdl_to_contract,
)

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)

#: Every class that declares an element, as of import (a class a test
#: declares later is not generated).
CLASSES = sorted(_declared_classes().values(), key=lambda cls: cls.element)
LEAVES = [cls for cls in CLASSES if not cls.slots]

#: One value strategy per attribute codec.
VALUES = {
    str: names,
    int: st.integers(1, 50),
    float: st.floats(0.5, 90, allow_nan=False),
    bool: st.booleans(),
    FaultCode: st.sampled_from(list(FaultCode)),
    Expression: st.sampled_from(["x > 0", "x + 1", "1 + 2", "not x"]),
}


def _value(codec, default=()):
    """A value of the codec; an optional attribute also draws its default."""
    return st.just(default[0]) | VALUES[codec] if default else VALUES[codec]


class _Namer:
    """Produces unique activity names within one generated tree."""

    def __init__(self):
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"


@st.composite
def activity_of(draw, cls, namer, depth):
    """An instance of ``cls`` with every declared attribute and slot drawn."""
    while True:
        arguments = {"name": namer.fresh(cls.element.lower())}
        for _xml_name, keyword, codec, *default in cls.attributes:
            arguments[keyword] = draw(_value(codec, default))
        if cls is Invoke:  # the parts xmlio writes by hand
            specs = names | names.map("${}".format) | VALUES[Expression].map(Expression)
            arguments["inputs"] = draw(st.dictionaries(names, specs, max_size=3))
            arguments["extract"] = draw(st.dictionaries(names, names, max_size=2))
        for slot in cls.slots:
            child = activity_tree(namer, depth + 1)
            if slot.kind == "list":
                arguments[slot.name] = draw(st.lists(child, max_size=3))
            elif slot.kind == "map":
                keys = _value(slot.key[1], slot.key[2:])
                arguments[slot.name] = draw(st.dictionaries(keys, child, max_size=2))
            else:
                arguments[slot.name] = draw(st.none() | child if slot.optional else child)
        try:
            return cls(**arguments)
        except DefinitionError:
            continue  # a cross-attribute rule (Reply, Invoke) said no: draw again


def leaf_activity(namer):
    return st.sampled_from(LEAVES).flatmap(lambda cls: activity_of(cls, namer, 2))


def activity_tree(namer, depth=0):
    if depth >= 2:
        return leaf_activity(namer)
    return st.sampled_from(CLASSES).flatmap(lambda cls: activity_of(cls, namer, depth))


@st.composite
def trees(draw):
    return Sequence("root", draw(st.lists(activity_tree(_Namer()), min_size=1, max_size=3)))


def test_the_strategy_covers_every_declared_class():
    assert len(CLASSES) == 15
    assert {slot.kind for cls in CLASSES for slot in cls.slots} == {"list", "one", "map"}


@given(trees(), names)
@settings(max_examples=40, deadline=None)
def test_process_xml_round_trip_fixed_point(root, name):
    definition = ProcessDefinition(name, root)
    once = serialize_process_definition(definition)
    reparsed = parse_process_definition(once)
    assert serialize_process_definition(reparsed) == once
    assert reparsed.activity_names() == definition.activity_names()


@st.composite
def service_contracts(draw):
    counter = iter(range(10_000))

    def unique_name(base: str) -> str:
        return f"{base}{next(counter)}"

    operations = []
    for _ in range(draw(st.integers(1, 3))):
        parts = tuple(
            PartSchema(
                unique_name("part"),
                draw(st.sampled_from(["string", "int", "float", "bool"])),
                draw(st.booleans()),
            )
            for _ in range(draw(st.integers(0, 3)))
        )
        operations.append(
            Operation(
                unique_name("op"),
                MessageSchema(unique_name("in"), parts),
                MessageSchema(unique_name("out"), (PartSchema(unique_name("part")),)),
            )
        )
    return ServiceContract(
        service_type=unique_name("Service"), operations=tuple(operations)
    )


@given(service_contracts())
@settings(max_examples=40, deadline=None)
def test_wsdl_round_trip_preserves_contract(contract):
    reparsed, address = wsdl_to_contract(contract_to_wsdl(contract))
    assert address is None
    assert reparsed.service_type == contract.service_type
    assert len(reparsed.operations) == len(contract.operations)
    for original in contract.operations:
        parsed = reparsed.operation(original.name)
        assert parsed.input == original.input
        assert parsed.output == original.output
