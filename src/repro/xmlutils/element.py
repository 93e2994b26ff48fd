"""A small namespace-aware element tree.

The tree is deliberately simpler than ``xml.etree``: qualified names are
:class:`~repro.xmlutils.qname.QName` objects rather than Clark-notation
strings, children know their parent (needed by XPath ``..`` steps and by the
policy engine when splicing variation fragments), and deep structural
equality is defined (needed by message-transformation tests).

Parsing and serialization bridge through ``xml.etree.ElementTree`` so the
wire format is real, interoperable XML.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Iterable, Iterator
from weakref import ref

from repro.xmlutils.qname import QName

__all__ = [
    "REGISTERED_PREFIXES",
    "Element",
    "SizeSummary",
    "XmlError",
    "combined_size",
    "escaped_size",
    "parse_xml",
    "serialize_xml",
    "serialize_xml_reference",
    "size_summary",
]


class XmlError(Exception):
    """Raised for malformed XML or misuse of the element tree."""


class Element:
    """An XML element: qualified name, attributes, text, children.

    A child refers to its parent weakly, so a tree has no reference cycle
    and is freed by reference counting as soon as its root is dropped; a
    subtree kept on its own does not keep its ancestors alive (its
    ``parent`` reads ``None`` once they are gone).
    """

    __slots__ = ("name", "attributes", "text", "_parent", "_children", "__weakref__")

    def __init__(
        self,
        name: QName | str,
        attributes: dict[str, str] | None = None,
        text: str | None = None,
        children: Iterable["Element"] | None = None,
    ) -> None:
        self.name = name if isinstance(name, QName) else QName.parse(name)
        self.attributes: dict[str, str] = dict(attributes) if attributes else {}
        self.text = text
        self._parent: ref[Element] | None = None
        self._children: list[Element] = []
        if children is not None:
            for child in children:
                self.append(child)

    @property
    def parent(self) -> "Element | None":
        parent = self._parent
        return None if parent is None else parent()

    # -- copying and pickling ----------------------------------------------------
    #
    # A weak reference is atomic to ``copy.deepcopy`` (the copy would point
    # at the original's parent) and cannot be pickled, so both go through
    # the state below, which leaves the parent out and relinks the children.

    def __getstate__(self) -> tuple:
        return self.name, self.attributes, self.text, self._children

    def __setstate__(self, state: tuple) -> None:
        self.name, self.attributes, self.text, self._children = state
        self._parent = None
        link = ref(self)
        for child in self._children:
            child._parent = link

    # -- tree manipulation ---------------------------------------------------

    @property
    def children(self) -> tuple["Element", ...]:
        return tuple(self._children)

    def _adopt(self, child: "Element") -> None:
        previous = child._parent
        if previous is not None:
            previous = previous()
            if previous is not None:
                previous.remove(child)
        child._parent = ref(self)

    def append(self, child: "Element") -> "Element":
        """Append ``child``, detaching it from any previous parent."""
        self._adopt(child)
        self._children.append(child)
        return child

    def insert(self, index: int, child: "Element") -> "Element":
        self._adopt(child)
        self._children.insert(index, child)
        return child

    def remove(self, child: "Element") -> None:
        self._children.remove(child)
        child._parent = None

    def add(self, name: QName | str, text: str | None = None, **attributes: str) -> "Element":
        """Create, append and return a child element (builder convenience)."""
        return self.append(Element(name, attributes, text))

    # -- queries ---------------------------------------------------------------

    def find(self, name: QName | str) -> "Element | None":
        """First direct child with the given qualified name."""
        wanted = name if isinstance(name, QName) else QName.parse(name)
        namespace, local = wanted.namespace, wanted.local
        for child in self._children:
            child_name = child.name
            if child_name.local == local and child_name.namespace == namespace:
                return child
        return None

    def find_all(self, name: QName | str) -> list["Element"]:
        """All direct children with the given qualified name."""
        wanted = name if isinstance(name, QName) else QName.parse(name)
        namespace, local = wanted.namespace, wanted.local
        return [
            child
            for child in self._children
            if child.name.local == local and child.name.namespace == namespace
        ]

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self._children:
            yield from child.iter()

    def child_text(self, name: QName | str, default: str | None = None) -> str | None:
        """Text of the first matching child, or ``default``."""
        child = self.find(name)
        if child is None:
            return default
        return child.text if child.text is not None else default

    @property
    def string_value(self) -> str:
        """Concatenated text of this element and descendants (XPath semantics)."""
        parts: list[str] = []
        for node in self.iter():
            if node.text:
                parts.append(node.text)
        return "".join(parts)

    # -- structure ---------------------------------------------------------------

    def copy(self) -> "Element":
        """A deep copy, detached from any parent."""
        duplicate = Element(self.name, self.attributes, self.text)
        if self._children:
            children = duplicate._children = [child.copy() for child in self._children]
            link = ref(duplicate)
            for child in children:
                child._parent = link
        return duplicate

    def structurally_equal(self, other: "Element") -> bool:
        """Deep equality on name, attributes, text and ordered children."""
        if self.name != other.name or self.attributes != other.attributes:
            return False
        if (self.text or "") != (other.text or ""):
            return False
        if len(self._children) != len(other._children):
            return False
        return all(
            mine.structurally_equal(theirs)
            for mine, theirs in zip(self._children, other._children)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.name.clark()} children={len(self._children)}>"


def _to_etree(element: Element) -> ET.Element:
    node = ET.Element(element.name.clark(), dict(element.attributes))
    node.text = element.text
    for child in element.children:
        node.append(_to_etree(child))
    return node


# -- direct serializer ---------------------------------------------------------
#
# Serializing through ``xml.etree`` costs a full tree conversion plus
# ElementTree's own namespace pass on every call, and envelope serialization
# is the hottest non-kernel code in the middleware (message sizes drive the
# transport latency model). The writer below produces output byte-identical
# to ``ET.tostring(..., encoding="unicode")`` — same ``ns0``/``ns1`` prefix
# assignment in document order, same well-known prefixes (via ElementTree's
# own registry, so ``ET.register_namespace`` keeps working), same escaping,
# same ``<tag />`` short empty form — without ever materializing an etree.
# ``serialize_xml_reference`` keeps the old path alive so tests can assert
# the two stay bit-for-bit interchangeable.

#: ElementTree's live well-known/registered prefix map ("for tests and
#: troubleshooting" per its source; shared here so registrations apply to
#: both serializers). Read it, never write it: ``ET.register_namespace``
#: is the way to register a prefix.
REGISTERED_PREFIXES = ET.register_namespace._namespace_map  # type: ignore[attr-defined]

_XML_NS = "http://www.w3.org/XML/1998/namespace"


def _escape_cdata(text: str) -> str:
    # Mirrors ElementTree._escape_cdata.
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _escape_attrib(text: str) -> str:
    # Mirrors ElementTree._escape_attrib, including the CR/LF/TAB entities.
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


class _QNameTable:
    """Prefix assignment replicating ElementTree's ``_namespaces`` pass.

    Namespace URIs get prefixes in order of first appearance in document
    order (tag before attributes, parents before children): a well-known
    prefix from ElementTree's registry if there is one, else ``ns%d`` with
    ``%d`` the number of declarations so far. The ``xml`` namespace is
    usable but never declared.
    """

    __slots__ = ("tags", "attrs", "namespaces")

    def __init__(self) -> None:
        self.tags: dict[QName, str] = {}
        self.attrs: dict[str, str] = {}
        self.namespaces: dict[str, str] = {}

    def _prefix(self, uri: str) -> str:
        prefix = self.namespaces.get(uri)
        if prefix is None and uri != _XML_NS:
            prefix = REGISTERED_PREFIXES.get(uri)
            if prefix is None:
                prefix = "ns%d" % len(self.namespaces)
            if prefix != "xml":
                self.namespaces[uri] = prefix
        if prefix is None:  # the implicit xml namespace
            prefix = "xml"
        return prefix

    def add_tag(self, name: QName) -> None:
        uri = name.namespace
        if not uri:
            self.tags[name] = name.local
            return
        prefix = self._prefix(uri)
        self.tags[name] = f"{prefix}:{name.local}" if prefix else name.local

    def add_attr(self, key: str) -> None:
        if not key.startswith("{"):
            self.attrs[key] = key
            return
        uri, _, local = key[1:].rpartition("}")
        prefix = self._prefix(uri)
        self.attrs[key] = f"{prefix}:{local}" if prefix else local

    def collect(self, element: Element) -> None:
        """One document-order pass over ``element`` and its subtree."""
        if element.name not in self.tags:
            self.add_tag(element.name)
        for key in element.attributes:
            if key not in self.attrs:
                self.add_attr(key)
        for child in element._children:
            self.collect(child)

    def declarations(self) -> str:
        """The root element's ``xmlns`` attribute text, sorted by prefix."""
        return "".join(
            f' xmlns:{prefix}="{_escape_attrib(uri)}"'
            for uri, prefix in sorted(self.namespaces.items(), key=lambda item: item[1])
        )


def _write_element(element: Element, out: list[str], table: _QNameTable, decl: str) -> None:
    tag = table.tags[element.name]
    attrs = element.attributes
    if attrs:
        out.append(
            "<"
            + tag
            + decl
            + "".join(
                f' {table.attrs[key]}="{_escape_attrib(value)}"'
                for key, value in attrs.items()
            )
        )
    else:
        out.append("<" + tag + decl)
    text = element.text
    children = element._children
    if text or children:
        out.append(">" + _escape_cdata(text) if text else ">")
        for child in children:
            _write_element(child, out, table, "")
        out.append("</" + tag + ">")
    else:
        out.append(" />")


def _from_etree(node: ET.Element) -> Element:
    tag = node.tag
    if not isinstance(tag, str):
        raise XmlError(f"unsupported node type {tag!r}")
    text = node.text.strip() if node.text and node.text.strip() else None
    element = Element(QName.parse(tag), attributes=dict(node.attrib), text=text)
    for child in node:
        element.append(_from_etree(child))
    return element


def serialize_xml(element: Element, indent: bool = False) -> str:
    """Serialize to an XML string (optionally pretty-printed).

    The compact form uses the direct writer (byte-identical to the
    ElementTree reference path, pinned by differential tests); pretty
    printing is a debugging/reporting path and keeps using ElementTree.
    """
    if indent:
        tree = _to_etree(element)
        ET.indent(tree)
        return ET.tostring(tree, encoding="unicode")
    table = _QNameTable()
    table.collect(element)
    out: list[str] = []
    _write_element(element, out, table, table.declarations())
    return "".join(out)


# -- measuring without serializing ---------------------------------------------
#
# The transport's latency model needs the *length* of a serialized message,
# not its bytes. Everything ``serialize_xml`` writes for a subtree has a
# width that is known without building a string, except the namespace
# prefixes: which prefix a URI gets (``ns0``, ``ns10``, a registered one)
# depends on how many namespaces the whole document declared before it. A
# *size summary* therefore splits a subtree into the bytes that are the same
# in every document and, per namespace URI in first-appearance order, how
# often that URI's prefix is written; ``combined_size`` assigns the prefixes
# for a sequence of summaries laid out in document order and adds their
# widths and the root's ``xmlns`` declarations. ``serialize_xml`` stays the
# only producer of bytes and is the oracle the measurer is tested against.

#: ``(fixed_bytes, ((namespace_uri, prefixed_name_uses), ...))``.
SizeSummary = tuple[int, tuple[tuple[str, int], ...]]


def _utf8_size(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def escaped_size(text: str) -> int:
    """UTF-8 byte length of ``text`` once escaped as element character data.

    Exactly the number of bytes ``text`` contributes to a serialized
    document; plain ASCII without markup characters — nearly every URI,
    URN and identifier the middleware writes — is just its length.
    """
    if text.isascii():
        size = len(text)
        if "&" not in text and "<" not in text and ">" not in text:
            return size
    else:
        size = len(text.encode("utf-8"))
    # &amp; is four bytes wider than its source, &lt; and &gt; three.
    return size + 4 * text.count("&") + 3 * (text.count("<") + text.count(">"))


def _escaped_attribute_size(text: str) -> int:
    # The width of _escape_attrib(text): cdata escaping plus &quot; and the
    # &#13; &#10; &#09; entities, each four or five bytes wider than its source.
    size = escaped_size(text)
    if '"' in text:
        size += 5 * text.count('"')
    if "\r" in text or "\n" in text or "\t" in text:
        size += 4 * (text.count("\r") + text.count("\n") + text.count("\t"))
    return size


def _measure(element: Element, uses: dict[str, int]) -> int:
    # One element's share of _write_element's output, prefixes excluded;
    # visits names in _QNameTable.collect's order so ``uses`` records
    # namespaces in the order the serializer would first meet them.
    name = element.name
    width = _utf8_size(name.local)
    text = element.text
    children = element._children
    if text or children:
        written = 2  # <tag> and </tag>
        size = 2 * width + 5
        if text:
            size += escaped_size(text)
    else:
        written = 1  # <tag />
        size = width + 4
    uri = name.namespace
    if uri:
        uses[uri] = uses.get(uri, 0) + written
    for key, value in element.attributes.items():
        if key.startswith("{"):
            attribute_uri, _, key = key[1:].rpartition("}")
            uses[attribute_uri] = uses.get(attribute_uri, 0) + 1
        size += 4 + _utf8_size(key) + _escaped_attribute_size(value)  # ' k="v"'
    for child in children:
        size += _measure(child, uses)
    return size


def size_summary(element: Element) -> SizeSummary:
    """The prefix-independent size of ``element``'s subtree, in one pass.

    The result depends only on the subtree, never on the document it is
    placed in, so it can be computed once for a shared tree and combined
    with different surroundings (:func:`combined_size`).
    """
    uses: dict[str, int] = {}
    fixed = _measure(element, uses)
    return fixed, tuple(uses.items())


def combined_size(summaries: Iterable[SizeSummary]) -> int:
    """``len(serialize_xml(document).encode("utf-8"))`` for the document whose
    parts, in document order, have the given summaries.

    A part is an element subtree, or any slice of the document summarized
    by the same rules (the SOAP layer summarizes its envelope scaffolding
    arithmetically). Prefixes follow :class:`_QNameTable`.
    """
    total = 0
    uses: dict[str, int] = {}
    for fixed, namespaces in summaries:
        total += fixed
        for uri, count in namespaces:
            uses[uri] = uses.get(uri, 0) + count
    declared = 0
    for uri, count in uses.items():
        if uri == _XML_NS:
            total += 4 * count  # "xml:", never declared
            continue
        prefix = REGISTERED_PREFIXES.get(uri)
        if prefix is None:
            width = 3 if declared < 10 else 2 + len(str(declared))  # ns%d
        else:
            width = _utf8_size(prefix)
        if prefix != "xml":
            declared += 1
            total += 10 + width + _escaped_attribute_size(uri)  # ' xmlns:p="uri"'
        if width:
            total += (width + 1) * count  # "p:"
    return total


def serialize_xml_reference(element: Element, indent: bool = False) -> str:
    """The ``xml.etree`` serialization path, kept as the reference
    implementation for differential tests against :func:`serialize_xml`."""
    tree = _to_etree(element)
    if indent:
        ET.indent(tree)
    return ET.tostring(tree, encoding="unicode")


def parse_xml(text: str) -> Element:
    """Parse an XML string into an :class:`Element` tree."""
    try:
        return _from_etree(ET.fromstring(text))
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc
