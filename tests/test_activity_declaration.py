"""Each activity class is declared once, and nothing beside the declaration.

``element`` / ``attributes`` / ``slots`` on the class are what
``children()``, ``copy()``, ``replace_child()`` and both directions of the
XML form read. These tests edit every declared slot, declare a brand-new
composite *here* and use it with no change under ``src/``, check the
readers against each other on trees generated from the declarations, and
guard the source against the per-class copies growing back.
"""

import ast
import copy
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_dehydration import _declarative_activities, _shape
from test_property_process_xml import _Namer, activity_tree, leaf_activity, trees

from repro.orchestration import (
    Activity,
    CompensationScope,
    Empty,
    Expression,
    ModificationError,
    ModificationOperation,
    Sequence,
    Slot,
    find_with_parent,
    parse_activity,
    perform_operation,
    serialize_activity,
)
from repro.orchestration.xmlio import _declared_classes

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The classes ``src/`` declares (not one a test declared and left behind).
_DECLARED = [
    cls for cls in _declared_classes().values() if cls.__module__.startswith("repro.")
]

#: (composite, slot, child) for every child hanging in a composite of the
#: every-class list — each slot kind of each composite at least once.
_HELD = [
    (composite.name, slot.name, child.name)
    for composite in _declarative_activities()
    for slot in composite.slots
    for _key, child in slot.items(composite)
]


class TestEverySlotIsEditable:
    def test_every_slot_of_every_composite_is_exercised(self):
        declared = {(cls.__name__, slot.name) for cls in _DECLARED for slot in cls.slots}
        by_name = {activity.name: activity for activity in _declarative_activities()}
        assert {(type(by_name[c]).__name__, s) for c, s, _child in _HELD} == declared

    @pytest.mark.parametrize("composite, slot, child", _HELD)
    def test_replacing_a_child_in_any_declared_slot(self, composite, slot, child):
        root = Sequence("root", _declarative_activities())
        parent = find_with_parent(root, composite)[0]
        before = [node.name for node in parent.children()]
        perform_operation(root, ModificationOperation("replace", child, Empty("swapped")))
        after = [node.name for node in parent.children()]
        assert after == ["swapped" if name == child else name for name in before]
        assert find_with_parent(root, "swapped")[1] is parent
        # The edit is visible to the other readers of the declaration too.
        assert 'name="swapped"' in serialize_activity(parent)
        assert "swapped" in [node.name for node in parent.copy().children()]

    def test_replace_child_of_a_stranger_is_refused(self):
        saga = CompensationScope("saga", body=Empty("body"))
        with pytest.raises(ModificationError, match="cannot locate 'ghost' inside parent 'saga'"):
            saga.replace_child(Empty("ghost"), Empty("other"))

    def test_children_follow_the_declared_xml_order(self):
        saga = CompensationScope(
            "saga",
            body=Empty("body"),
            compensations={"body": Empty("undo")},
            fault_handlers={None: Empty("handler")},
            compensation=Empty("scope-undo"),
        )
        order = [child.name for child in saga.children()]
        assert order == ["body", "undo", "handler", "scope-undo"]
        written = re.findall(r'name="([^"]+)"', serialize_activity(saga))
        assert written == ["saga", *order]


class TestDeclaringANewActivity:
    def test_a_composite_declared_here_round_trips_copies_and_edits(self):
        class Attempt(Activity):
            """A composite with one slot of each kind, unknown to ``src/``."""

            element = "Attempt"
            attributes = (("times", "times", int, 3), ("until", "until", Expression, None))
            slots = (
                Slot("steps", "list"),
                Slot("cases", "map", "Case", key=("when", str)),
                Slot("otherwise", "one", "Otherwise", optional=True),
            )

            def __init__(self, name, steps=(), cases=None, otherwise=None, times=3, until=None):
                super().__init__(name)
                self.steps = list(steps)
                self.cases = dict(cases or {})
                self.otherwise = otherwise
                self.times = times
                self.until_source = None
                if until is not None:
                    self._until = self._computed("until", until)

        attempt = Attempt(
            "attempt",
            steps=[Empty("first"), Empty("second")],
            cases={"late": Empty("on-late")},
            otherwise=Empty("give-up"),
            times=5,
            until="x > 0",
        )
        root = Sequence("root", [attempt])

        text = serialize_activity(root)
        assert (
            '<ns0:Attempt name="attempt" times="5" until="x &gt; 0">'
            '<ns0:Empty name="first" /><ns0:Empty name="second" />'
            '<ns0:Case when="late"><ns0:Empty name="on-late" /></ns0:Case>'
            '<ns0:Otherwise><ns0:Empty name="give-up" /></ns0:Otherwise>'
            "</ns0:Attempt>"
        ) in text
        parsed = parse_activity(text)
        assert type(parsed.activities[0]) is Attempt
        assert _shape(parsed) == _shape(root)
        assert serialize_activity(parsed) == text

        assert _shape(root.copy()) == _shape(copy.deepcopy(root))
        assert [node.name for node in attempt.children()] == [
            "first", "second", "on-late", "give-up",
        ]

        for target in ("second", "on-late", "give-up"):
            perform_operation(
                root, ModificationOperation("replace", target, Empty(f"new-{target}"))
            )
        perform_operation(root, ModificationOperation("insert_before", "first", Empty("zeroth")))
        perform_operation(root, ModificationOperation("append_to", "attempt", Empty("last")))
        perform_operation(root, ModificationOperation("remove", "first"))
        assert [node.name for node in attempt.children()] == [
            "zeroth", "new-second", "last", "new-on-late", "new-give-up",
        ]
        with pytest.raises(ModificationError, match="list slot"):
            perform_operation(
                root, ModificationOperation("insert_after", "new-give-up", Empty("nope"))
            )
        assert serialize_activity(parse_activity(serialize_activity(root))) == (
            serialize_activity(root)
        )


# -- properties over trees generated from the declarations ---------------------


@given(trees())
@settings(max_examples=40, deadline=None)
def test_parsing_the_document_rebuilds_the_tree(root):
    assert _shape(parse_activity(serialize_activity(root))) == _shape(root)


@given(trees())
@settings(max_examples=40, deadline=None)
def test_structural_clone_equals_deepcopy(root):
    clone = root.copy()
    assert _shape(clone) == _shape(copy.deepcopy(root)) == _shape(root)
    assert serialize_activity(clone) == serialize_activity(root)
    assert not {id(node) for node in clone.iter_tree()} & {id(node) for node in root.iter_tree()}


def _swap_by_state(node, name, replacement):
    """Swap the named descendant by walking instance state, not the slots."""
    for attribute, held in list(vars(node).items()):
        if isinstance(held, Activity):
            store, items = vars(node), [(attribute, held)]
        elif isinstance(held, list):
            store, items = held, list(enumerate(held))
        elif isinstance(held, dict):
            store, items = held, list(held.items())
        else:
            continue
        for key, child in items:
            if not isinstance(child, Activity):
                continue
            if child.name == name:
                store[key] = replacement
                return True
            if _swap_by_state(child, name, replacement):
                return True
    return False


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_replace_then_serialise_equals_serialising_the_replaced_tree(data):
    namer = _Namer()
    root = Sequence("root", data.draw(st.lists(activity_tree(namer), min_size=1, max_size=3)))
    target = data.draw(st.sampled_from([node.name for node in root.iter_tree()][1:]))
    replacement = data.draw(leaf_activity(namer))
    expected = copy.deepcopy(root)
    assert _swap_by_state(expected, target, copy.deepcopy(replacement))
    perform_operation(root, ModificationOperation("replace", target, replacement))
    assert serialize_activity(root) == serialize_activity(expected)


def _trees(*relative):
    for path in sorted(p for pattern in relative for p in SRC.glob(pattern)):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


class TestNoSecondDeclaration:
    """AST guard: the per-class copies must not grow back."""

    def test_one_children_and_one_copy_in_the_package(self):
        defined = [
            node.name
            for _path, tree in _trees("orchestration/*.py")
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("children", "copy")
        ]
        assert sorted(defined) == ["children", "copy"]

    def test_xmlio_dispatches_on_no_class_and_no_element_name(self):
        ((_path, tree),) = _trees("orchestration/xmlio.py")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                assert getattr(node.args[0], "id", None) != "activity", ast.unparse(node)
            if isinstance(node, ast.Compare):
                assert getattr(node.left, "id", None) != "local", ast.unparse(node)

    def test_slot_names_are_spelled_only_in_the_declaration(self):
        slot_names = {slot.name for cls in _DECLARED for slot in cls.slots}
        assert slot_names >= {"activities", "then", "orelse", "body", "fault_handlers"}
        for path, tree in _trees("orchestration/*.py"):
            if path.name == "activities.py":
                continue
            spelled = {
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in slot_names
            }
            assert not spelled, f"{path.name} names the slots {sorted(spelled)}"

    def test_nobody_fishes_for_a_private_source_attribute(self):
        for path, tree in _trees("**/*.py"):
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                ):
                    assert not re.fullmatch(r"_\w*_source\w*", str(node.args[1].value)), (
                        f"{path}: {ast.unparse(node)}"
                    )
