"""Unit tests for the XML element tree and QNames."""

import xml.etree.ElementTree as ET

import pytest

from repro.xmlutils import (
    Element,
    QName,
    XmlError,
    combined_size,
    escaped_size,
    parse_xml,
    serialize_xml,
    serialize_xml_reference,
    size_summary,
)
from repro.xmlutils.element import _escape_attrib, _escape_cdata, _escaped_attribute_size


class TestQName:
    def test_clark_notation(self):
        assert QName("urn:ns", "local").clark() == "{urn:ns}local"

    def test_no_namespace_clark(self):
        assert QName("", "local").clark() == "local"

    def test_parse_clark(self):
        name = QName.parse("{urn:ns}local")
        assert name.namespace == "urn:ns" and name.local == "local"

    def test_parse_bare(self):
        name = QName.parse("local")
        assert name.namespace == "" and name.local == "local"

    def test_equality_with_string(self):
        assert QName("urn:ns", "x") == "{urn:ns}x"
        assert QName("", "x") == "x"

    def test_hashable(self):
        table = {QName("urn:ns", "x"): 1}
        assert table[QName.parse("{urn:ns}x")] == 1

    def test_immutable(self):
        name = QName("a", "b")
        with pytest.raises(AttributeError):
            name.local = "c"

    def test_empty_local_rejected(self):
        with pytest.raises(ValueError):
            QName("ns", "")

    def test_repeated_parse_allocates_nothing(self):
        assert QName.parse("{urn:ns}again") is QName.parse("{urn:ns}again")
        assert Element("r").find("{urn:ns}again") is None

    def test_parse_memo_is_bounded(self):
        # parse_xml sends every tag of a foreign document through parse.
        limit = QName.parse.cache_info().maxsize
        for index in range(limit + 50):
            QName.parse(f"{{urn:hostile}}tag{index}")
        assert QName.parse.cache_info().currsize <= limit


class TestElementTree:
    def test_builder_add(self):
        root = Element("root")
        child = root.add("child", text="hello", attr="1")
        assert child.parent is root
        assert root.find("child") is child
        assert child.text == "hello"
        assert child.attributes["attr"] == "1"

    def test_append_reparents(self):
        a, b = Element("a"), Element("b")
        child = a.add("c")
        b.append(child)
        assert child.parent is b
        assert a.find("c") is None

    def test_insert_positions_child(self):
        root = Element("root")
        root.add("one")
        root.add("three")
        root.insert(1, Element("two"))
        assert [c.name.local for c in root.children] == ["one", "two", "three"]

    def test_remove_detaches(self):
        root = Element("root")
        child = root.add("child")
        root.remove(child)
        assert child.parent is None and not root.children

    def test_find_all(self):
        root = Element("root")
        root.add("item", text="1")
        root.add("other")
        root.add("item", text="2")
        assert [e.text for e in root.find_all("item")] == ["1", "2"]

    def test_find_respects_namespace(self):
        root = Element("root")
        root.add(QName("urn:a", "x"), text="a")
        root.add(QName("urn:b", "x"), text="b")
        assert root.find(QName("urn:b", "x")).text == "b"
        assert root.find("x") is None

    def test_iter_is_depth_first(self):
        root = Element("r")
        a = root.add("a")
        a.add("a1")
        root.add("b")
        assert [e.name.local for e in root.iter()] == ["r", "a", "a1", "b"]

    def test_child_text_with_default(self):
        root = Element("root")
        root.add("present", text="yes")
        assert root.child_text("present") == "yes"
        assert root.child_text("absent", "fallback") == "fallback"

    def test_string_value_concatenates(self):
        root = Element("r", text="a")
        root.add("c", text="b")
        assert root.string_value == "ab"

    def test_copy_is_deep_and_detached(self):
        root = Element("root", attributes={"k": "v"})
        root.add("child", text="t")
        duplicate = root.copy()
        assert duplicate.parent is None
        duplicate.find("child").text = "changed"
        assert root.find("child").text == "t"

    def test_structural_equality(self):
        a = Element("r", children=[Element("c", text="x")])
        b = Element("r", children=[Element("c", text="x")])
        assert a.structurally_equal(b)

    def test_structural_inequality_on_text(self):
        a = Element("r", children=[Element("c", text="x")])
        b = Element("r", children=[Element("c", text="y")])
        assert not a.structurally_equal(b)

    def test_structural_inequality_on_child_count(self):
        a = Element("r", children=[Element("c")])
        b = Element("r")
        assert not a.structurally_equal(b)


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        root = Element(QName("urn:test", "root"), attributes={"version": "1"})
        root.add("plain", text="text & entities <ok>")
        nested = root.add(QName("urn:test", "nested"))
        nested.add("deep", text="value")
        parsed = parse_xml(serialize_xml(root))
        assert parsed.structurally_equal(root)

    def test_namespaced_round_trip(self):
        root = Element(QName("urn:a", "r"))
        root.add(QName("urn:b", "child"), text="x")
        parsed = parse_xml(serialize_xml(root))
        assert parsed.find(QName("urn:b", "child")).text == "x"

    def test_malformed_xml_raises(self):
        with pytest.raises(XmlError):
            parse_xml("<open>")

    def test_whitespace_only_text_dropped(self):
        parsed = parse_xml("<r>\n  <c>x</c>\n</r>")
        assert parsed.text is None
        assert parsed.find("c").text == "x"

    def test_indent_output_contains_newlines(self):
        root = Element("r", children=[Element("c")])
        assert "\n" in serialize_xml(root, indent=True)


def _multi_namespace_tree():
    root = Element(QName("urn:a", "root"), attributes={"plain": "1"})
    child = root.add(QName("urn:b", "child"), text="payload")
    child.append(Element(QName("urn:a", "leaf"), attributes={"{urn:c}ref": "x"}))
    root.add(QName("urn:b", "sibling"))
    return root


def _special_character_tree():
    root = Element("doc", text="a & b < c > d")
    root.append(
        Element("attrs", attributes={"q": 'say "hi"', "nl": "line1\nline2", "tab": "a\tb"})
    )
    root.add("entities", text="5 < 6 && 7 > 2")
    root.append(Element("cr", attributes={"v": "a\rb"}))
    return root


def _well_known_prefix_tree():
    # ElementTree assigns its registered prefix (wsdl) instead of ns0.
    root = Element(QName("http://schemas.xmlsoap.org/wsdl/", "definitions"))
    root.add(QName("http://schemas.xmlsoap.org/wsdl/", "message"))
    return root


def _xml_namespace_tree():
    # The xml: prefix is predeclared and must never get an xmlns declaration.
    return Element(
        "note",
        attributes={"{http://www.w3.org/XML/1998/namespace}lang": "en"},
        text="hello",
    )


def _empty_elements_tree():
    root = Element("r")
    root.add("empty")
    root.add("with-attr", a="1")
    root.add("with-text", text="")
    return root


def _unicode_tree():
    root = Element("r", text="héllo — 中文")
    root.append(Element("c", attributes={"v": "naïve"}))
    return root


def _twelve_namespaces_tree():
    # The eleventh and twelfth generated prefixes, ns10 and ns11, are four
    # characters wide.
    root = Element(QName("urn:n0", "root"))
    for index in range(1, 12):
        root.add(QName(f"urn:n{index}", "child"), text="t")
    root.add(QName("urn:n11", "again"))
    return root


def _attribute_first_namespace_tree():
    # urn:attr is met on an attribute before any element uses it, so it is
    # numbered before urn:later.
    root = Element(QName("urn:root", "r"), attributes={"{urn:attr}a": "1", "plain": "2"})
    root.add(QName("urn:later", "c"), **{"{urn:attr}b": "3"})
    root.add(QName("urn:attr", "d"))
    return root


def _every_escape_tree():
    # Every character either escaper rewrites; the parser would normalize a
    # raw carriage return in text, so that one goes in attribute values only.
    text = "& < > \" \n \t ' &amp; <![CDATA[x]]>"
    value = text + " \r"
    root = Element("doc", text=text, attributes={"v": value, "{urn:a&b}w": value})
    root.add(QName('urn:q"uote<>', "c"), text=text)
    return root


def _non_ascii_names_tree():
    root = Element(
        QName("urn:ünï", "racine"), attributes={"clé": "naïve", "{urn:ünï}ключ": "значение"}
    )
    root.add("élément", text="中文 — 😀")
    root.add(QName("urn:日本", "要素"))
    return root


def _mixed_content_tree():
    root = Element("r", text="before")
    child = root.add("c", text="")
    child.add("leaf")
    root.add("d", text="text").add("e", text="deep")
    return root


def _deep_repeated_namespace_tree():
    root = Element(QName("urn:x", "a"))
    node = root
    for _ in range(6):
        node = node.add(QName("urn:x", "a"), text="t")
    return root


class TestFastSerializerDifferential:
    """The direct writer must match the ElementTree reference byte for byte."""

    CORPUS = {
        "multi_namespace": _multi_namespace_tree,
        "special_characters": _special_character_tree,
        "well_known_prefix": _well_known_prefix_tree,
        "xml_namespace_attr": _xml_namespace_tree,
        "empty_elements": _empty_elements_tree,
        "unicode": _unicode_tree,
        "deep_repeated_namespace": _deep_repeated_namespace_tree,
        "twelve_namespaces": _twelve_namespaces_tree,
        "attribute_first_namespace": _attribute_first_namespace_tree,
        "every_escape": _every_escape_tree,
        "non_ascii_names": _non_ascii_names_tree,
        "mixed_content": _mixed_content_tree,
    }

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fast_path_matches_reference(self, name):
        tree = self.CORPUS[name]()
        assert serialize_xml(tree) == serialize_xml_reference(tree)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fast_path_output_reparses(self, name):
        tree = self.CORPUS[name]()
        assert parse_xml(serialize_xml(tree)).structurally_equal(tree)

    def test_serialization_does_not_mutate_the_tree(self):
        tree = _multi_namespace_tree()
        before = serialize_xml_reference(tree)
        serialize_xml(tree)
        assert serialize_xml_reference(tree) == before


def _serialized_bytes(tree):
    return len(serialize_xml(tree).encode("utf-8"))


class TestSizeSummaryDifferential:
    """Measuring a tree must give the length of serializing it, byte for byte."""

    CORPUS = TestFastSerializerDifferential.CORPUS

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_measured_size_matches_serialized_size(self, name):
        tree = self.CORPUS[name]()
        assert combined_size([size_summary(tree)]) == _serialized_bytes(tree)

    def test_generated_prefix_width_grows_with_the_declaration_count(self):
        tree = _twelve_namespaces_tree()
        assert "ns10:child" in serialize_xml(tree) and "ns11:again" in serialize_xml(tree)
        assert combined_size([size_summary(tree)]) == _serialized_bytes(tree)

    def test_summary_lists_namespaces_in_first_appearance_order(self):
        fixed, namespaces = size_summary(_attribute_first_namespace_tree())
        assert [uri for uri, _ in namespaces] == ["urn:root", "urn:attr", "urn:later"]
        # <r> </r>; a, b, <d />; <c />
        assert dict(namespaces) == {"urn:root": 2, "urn:attr": 3, "urn:later": 1}
        assert fixed > 0

    def test_registered_prefix_is_used_and_counted(self):
        uri = "urn:test:registered-for-sizing"
        tree = Element(QName(uri, "root"), attributes={f"{{{uri}}}a": "1"})
        tree.add(QName("urn:other", "c"))
        generated = _serialized_bytes(tree)
        assert combined_size([size_summary(tree)]) == generated
        ET.register_namespace("quitelongprefix", uri)
        try:
            assert "<quitelongprefix:root" in serialize_xml(tree)
            assert _serialized_bytes(tree) > generated
            assert combined_size([size_summary(tree)]) == _serialized_bytes(tree)
        finally:
            del ET.register_namespace._namespace_map[uri]

    def test_xml_namespace_is_never_declared(self):
        tree = _xml_namespace_tree()
        tree.add(QName("urn:a", "c"))  # ns0: the xml namespace took no number
        assert 'xml:lang="en"' in serialize_xml(tree) and "<ns0:c" in serialize_xml(tree)
        assert combined_size([size_summary(tree)]) == _serialized_bytes(tree)

    def test_summary_is_independent_of_the_surrounding_document(self):
        # One summary of a subtree, combined into two documents that give
        # its namespaces different prefixes (ns1.. and ns10..).
        subtree = _multi_namespace_tree()
        summary = size_summary(subtree)
        for padding_namespaces in (0, 9):
            root = Element(QName("urn:wrapper", "w"), text="t")
            for index in range(padding_namespaces):
                root.add(QName(f"urn:pad{index}", "p"))
            surroundings = size_summary(root)
            root._children.append(subtree)  # borrowed, like the SOAP wire view
            assert combined_size([surroundings, summary]) == _serialized_bytes(root)
        assert size_summary(subtree) == summary

    @pytest.mark.parametrize(
        "text", ["", "plain", "a&b", "<<>>", "\"\r\n\t", "naïve & <中文>", "&amp;", "😀"]
    )
    def test_escaped_sizes_match_the_escapers(self, text):
        assert escaped_size(text) == len(_escape_cdata(text).encode("utf-8"))
        assert _escaped_attribute_size(text) == len(_escape_attrib(text).encode("utf-8"))

    def test_carriage_return_in_text_is_written_raw(self):
        tree = Element("r", text="a\rb", attributes={"v": "a\rb"})
        assert combined_size([size_summary(tree)]) == _serialized_bytes(tree)

    def test_measuring_does_not_mutate_the_tree(self):
        tree = _multi_namespace_tree()
        before = serialize_xml(tree)
        size_summary(tree)
        assert serialize_xml(tree) == before
