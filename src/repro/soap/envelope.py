"""SOAP envelope model.

An envelope is addressing headers + optional extension headers + a body that
holds either a payload element or a fault. Serialization produces real XML;
the serialized size feeds the transport's size-dependent latency model
(Figure 5 of the paper sweeps request sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.soap.addressing import HEADER_BLOCKS, MASC_NS, WSA_NS, AddressingHeaders
from repro.soap.faults import SoapFault
from repro.soap.traceparent import (
    TRACE_CONTEXT_HEADER,
    parse_traceparent,
    trace_context_element,
)
from repro.xmlutils import (
    Element,
    QName,
    SizeSummary,
    XmlError,
    combined_size,
    escaped_size,
    parse_xml,
    serialize_xml,
    size_summary,
)

__all__ = ["SOAP_ENV_NS", "SoapEnvelope", "SoapHeader"]

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"

_ENVELOPE_NAME = QName(SOAP_ENV_NS, "Envelope")
_HEADER_NAME = QName(SOAP_ENV_NS, "Header")
_BODY_NAME = QName(SOAP_ENV_NS, "Body")
_FAULT_NAME = QName(SOAP_ENV_NS, "Fault")
_MUST_UNDERSTAND_ATTR = QName(SOAP_ENV_NS, "mustUnderstand").clark()


def _borrowed(
    name: QName,
    children: list[Element],
    attributes: dict[str, str] | None = None,
    text: str | None = None,
) -> Element:
    """A throwaway element whose children are shared by reference.

    :meth:`Element.append` reparents, so building a wire tree with the public
    API would detach shared payload/header subtrees from their owners. This
    constructs the node directly instead; the result is a read-only view for
    the serializer (which never touches ``parent``) and must not be mutated.
    """
    node = Element.__new__(Element)
    node.name = name
    node.attributes = attributes if attributes is not None else {}
    node.text = text
    node.parent = None
    node._children = children
    return node


#: What is known about the size of a shared *body* payload tree: body
#: identity -> (size summary of the tree, {addressing shape -> byte length
#: before padding of a plain envelope around it}). The summary is the part
#: of any envelope's size that the body contributes whatever surrounds it
#: (``repro.xmlutils.size_summary``); every sizing of an envelope with this
#: body starts from it instead of walking the tree again. The shapes are
#: finished sums for envelopes with no visible extension header: two of
#: those that share a body and agree on which addressing fields are present
#: and on each field's escaped byte length have the same size, so interned
#: payloads skip even the arithmetic (a finished sum, like a cached size,
#: reflects the prefixes registered with ElementTree when it was made; a
#: summary does not depend on them). Entries die with the body tree. Header
#: blocks and faults are measured per sizing, never memoized. Like the size
#: cache itself, the memo relies on the middleware's copy-on-write
#: discipline: shared body trees are replaced, never edited in place.
_BODY_SIZE_MEMO: "WeakKeyDictionary[Element, tuple[SizeSummary, dict[tuple, int]]]" = (
    WeakKeyDictionary()
)

def _frame(local: str) -> tuple[int, int]:
    """The bytes of ``<p:local>…</p:local>`` and of ``<p:local />`` that are
    neither prefix nor content — how ``size_summary`` counts an element
    with and without content. The first form writes the prefix twice."""
    width = len(local.encode("utf-8"))
    return 2 * width + 5, width + 4


_ENVELOPE_OPEN, _ = _frame(_ENVELOPE_NAME.local)  # always has children
_HEADER_OPEN, _HEADER_EMPTY = _frame(_HEADER_NAME.local)
_BODY_OPEN, _BODY_EMPTY = _frame(_BODY_NAME.local)
#: (namespace, frame with text, frame when empty) per addressing block, in
#: document order — the order of an addressing *shape*.
_ADDRESSING_FRAMES = tuple((namespace, *_frame(local)) for _, namespace, local in HEADER_BLOCKS)


def _envelope_size(
    shape: tuple, headers: list[SizeSummary], content: SizeSummary | None
) -> int:
    """Serialized size of the envelope whose addressing fields have the
    escaped text sizes ``shape`` (None: absent), whose visible extension
    headers have the summaries ``headers`` and whose body holds ``content``.

    The Envelope/Header/Body scaffolding and the flat addressing blocks are
    summarized arithmetically and combined with the rest in document order.
    """
    fixed = 0
    uses = {SOAP_ENV_NS: 0}  # the root's namespace is the first one met
    for (namespace, with_text, empty), text_size in zip(_ADDRESSING_FRAMES, shape):
        if text_size is None:
            continue
        if text_size:
            fixed += with_text + text_size
            uses[namespace] = uses.get(namespace, 0) + 2
        else:
            fixed += empty
            uses[namespace] = uses.get(namespace, 0) + 1
    # Envelope always has children; Header has them when there is any
    # addressing block or visible extension, Body when there is content.
    header_open = bool(fixed or headers)
    body_open = content is not None
    fixed += (
        _ENVELOPE_OPEN
        + (_HEADER_OPEN if header_open else _HEADER_EMPTY)
        + (_BODY_OPEN if body_open else _BODY_EMPTY)
    )
    uses[SOAP_ENV_NS] = 2 + (2 if header_open else 1) + (2 if body_open else 1)
    parts = [(fixed, tuple(uses.items())), *headers]
    if body_open:
        parts.append(content)
    return combined_size(parts)


@dataclass
class SoapHeader:
    """An extension header block (anything beyond addressing)."""

    element: Element
    must_understand: bool = False
    #: Transparent headers travel in the serialized XML but are excluded
    #: from :attr:`SoapEnvelope.size_bytes`, like the trace context: the
    #: transport's size-dependent latency model never sees metadata that
    #: only observers read.
    transparent: bool = False


def _wire_header(extension: SoapHeader) -> Element:
    """The block as serialized: a shallow wrapper carrying the
    ``mustUnderstand`` attribute when the header demands it (read-only,
    like every :func:`_borrowed` view), else the block itself."""
    element = extension.element
    if not extension.must_understand:
        return element
    return _borrowed(
        element.name,
        element._children,
        {**element.attributes, _MUST_UNDERSTAND_ATTR: "1"},
        element.text,
    )


#: Fields whose reassignment changes the serialized form (and therefore
#: invalidates the cached :attr:`SoapEnvelope.size_bytes`).
_SIZE_FIELDS = frozenset({"addressing", "headers", "body", "fault", "padding"})


@dataclass
class SoapEnvelope:
    """One SOAP message: headers plus a body payload or fault."""

    addressing: AddressingHeaders = field(default_factory=AddressingHeaders)
    headers: list[SoapHeader] = field(default_factory=list)
    body: Element | None = None
    fault: SoapFault | None = None
    #: Extra padding bytes, used by workload generators to sweep request
    #: sizes without fabricating huge payload trees.
    padding: int = 0
    #: The trace context this message carries: anything exposing
    #: ``trace_id``/``span_id``/``sampled``/``correlation_id`` — usually
    #: the live span of the hop that sent it. It is a value, not a header:
    #: only serialization writes it out, as a ``masc:TraceContext`` block,
    #: and it never counts towards :attr:`size_bytes`, so simulated timings
    #: are the same whether tracing is on or off.
    trace_context: object | None = None
    #: How many extension headers precede the trace context on the wire.
    _trace_position: int = field(default=0, repr=False)
    #: Cached serialized size; recomputed lazily after any field write.
    _size_cache: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.body is not None and self.fault is not None:
            raise ValueError("an envelope carries either a body payload or a fault, not both")

    def __setattr__(self, name: str, value) -> None:
        if name in _SIZE_FIELDS:
            object.__setattr__(self, "_size_cache", None)
        object.__setattr__(self, name, value)

    # -- classification --------------------------------------------------------

    @property
    def is_fault(self) -> bool:
        return self.fault is not None

    @property
    def action(self) -> str | None:
        return self.addressing.action

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def _fresh(
        cls,
        addressing: AddressingHeaders,
        body: Element | None,
        fault: SoapFault | None,
        padding: int,
    ) -> "SoapEnvelope":
        # The construction fast path: the dataclass __init__ funnels every
        # field write through the cache-invalidation __setattr__, which is
        # pointless for a brand-new envelope. Envelope construction happens
        # several times per simulated request, so the builders below skip it.
        envelope = cls.__new__(cls)
        state = envelope.__dict__
        state["addressing"] = addressing
        state["headers"] = []
        state["body"] = body
        state["fault"] = fault
        state["padding"] = padding
        state["_size_cache"] = None
        # trace_context and _trace_position read their class-level
        # defaults until the envelope is stamped.
        return envelope

    @classmethod
    def request(
        cls,
        to: str,
        action: str,
        body: Element,
        reply_to: str | None = None,
        padding: int = 0,
        process_instance_id: str | None = None,
    ) -> "SoapEnvelope":
        """A request message addressed to ``to`` with the given WSA action."""
        return cls._fresh(
            AddressingHeaders(
                to=to,
                action=action,
                reply_to=reply_to,
                process_instance_id=process_instance_id,
            ),
            body,
            None,
            padding,
        )

    def reply(self, body: Element, padding: int = 0) -> "SoapEnvelope":
        """A success reply correlated to this request."""
        return SoapEnvelope._fresh(self.addressing.for_reply(), body, None, padding)

    def reply_fault(self, fault: SoapFault) -> "SoapEnvelope":
        """A fault reply correlated to this request."""
        return SoapEnvelope._fresh(self.addressing.for_reply(), None, fault, 0)

    def copy(self) -> "SoapEnvelope":
        """A header-shallow working copy (the per-attempt retarget copy).

        The headers *list* is fresh — adding headers to the copy never leaks
        into the original — but the header blocks, body and fault are shared
        by reference. That is safe because every mutation site in the
        middleware replaces ``body``/``addressing`` wholesale instead of
        editing the shared element tree in place (pipeline modules that
        enrich a payload copy it first), and it removes a deep element-tree
        copy from every delivery attempt made by ``WsBus._send`` and
        ``RetryQueue._redeliver``. The serialized-size cache carries over;
        reassigning any content field on the copy invalidates it. Use
        :meth:`deep_copy` when the copy's trees must be private.
        """
        duplicate = SoapEnvelope.__new__(SoapEnvelope)
        state = duplicate.__dict__
        state.update(self.__dict__)
        state["headers"] = list(self.headers)
        return duplicate

    def deep_copy(self) -> "SoapEnvelope":
        """A fully private copy: header blocks and body trees are cloned.

        This is the pre-fast-path :meth:`copy` semantics, kept for callers
        that intend to mutate element trees in place and as the reference
        implementation for the equivalence tests and microbenchmarks.
        """
        return SoapEnvelope(
            addressing=self.addressing,
            headers=[
                SoapHeader(h.element.copy(), h.must_understand, h.transparent)
                for h in self.headers
            ],
            body=self.body.copy() if self.body is not None else None,
            fault=self.fault,
            padding=self.padding,
            trace_context=self.trace_context,
            _trace_position=self._trace_position,
        )

    def header(self, name: QName | str) -> Element | None:
        """The first extension header with the given qualified name.

        The trace context reads as the ``masc:TraceContext`` block it
        serializes to (a fresh element each time).
        """
        wanted = name if isinstance(name, QName) else QName.parse(name)
        for header in self.headers:
            if header.element.name == wanted:
                return header.element
        if self.trace_context is not None and wanted == TRACE_CONTEXT_HEADER:
            return trace_context_element(self.trace_context)
        return None

    def stamp_trace_context(self, context) -> None:
        """Carry ``context`` from now on, replacing any earlier one.

        On the wire the block follows every extension header added so far,
        the place a header appended now would take. Neither field is sized,
        so the write skips the cache-invalidating ``__setattr__``.
        """
        state = self.__dict__
        state["trace_context"] = context
        state["_trace_position"] = len(self.headers)

    def add_header(
        self,
        element: Element,
        must_understand: bool = False,
        transparent: bool = False,
    ) -> None:
        self.headers.append(SoapHeader(element, must_understand, transparent))
        if not transparent:  # transparent headers are not part of the size
            self._size_cache = None

    # -- XML mapping --------------------------------------------------------------

    def _extension_elements(self) -> list[Element]:
        """The extension header blocks as serialized (read-only views), in
        document order, with the trace context's block in its place."""
        elements = [_wire_header(extension) for extension in self.headers]
        if self.trace_context is not None:
            elements.insert(self._trace_position, trace_context_element(self.trace_context))
        return elements

    def to_element(self) -> Element:
        envelope = Element(_ENVELOPE_NAME)
        header = envelope.add(_HEADER_NAME)
        for block in self.addressing.to_elements():
            header.append(block)
        for child in self._extension_elements():
            header.append(child.copy())
        body = envelope.add(_BODY_NAME)
        if self.fault is not None:
            body.append(self.fault.to_element())
        elif self.body is not None:
            body.append(self.body.copy())
        return envelope

    def _wire_element(self) -> Element:
        """The serialization view of this envelope.

        Structurally identical to :meth:`to_element` (and serializes to the
        same bytes) but the payload and extension-header subtrees are shared
        by reference instead of deep-copied: only the envelope scaffolding
        (Envelope/Header/Body, the flat addressing blocks, and a shallow
        wrapper per ``mustUnderstand`` header) is allocated per call. The
        returned tree is a read-only view — callers that hand the tree out
        for mutation must use :meth:`to_element`.
        """
        header_children = self.addressing.to_elements()
        header_children.extend(self._extension_elements())
        body_children: list[Element] = []
        if self.fault is not None:
            body_children.append(self.fault.to_element())
        elif self.body is not None:
            body_children.append(self.body)
        return _borrowed(
            _ENVELOPE_NAME,
            [
                _borrowed(_HEADER_NAME, header_children),
                _borrowed(_BODY_NAME, body_children),
            ],
        )

    def to_xml(self) -> str:
        return serialize_xml(self._wire_element())

    @property
    def size_bytes(self) -> int:
        """Serialized size plus padding; drives transport latency.

        The size is measured, never serialized: it is the sum of the
        envelope scaffolding and addressing blocks (arithmetic on their
        escaped text lengths), the size summary of each visible extension
        header and of the fault (walked per sizing) and the body's summary
        (walked once per shared tree, see ``_BODY_SIZE_MEMO``), with
        prefixes and declarations added as ``serialize_xml`` would assign
        them — always ``len(to_xml().encode("utf-8"))`` of the same
        envelope without its transparent headers and its trace context.

        The same envelope's size is read several times per exchange
        (latency sampling on each hop, invocation records), so the value is
        cached. Reassigning any content field — including the retargeting
        reassignment of ``addressing`` — invalidates the cache. On a cache
        miss, envelopes without visible extension headers first look their
        addressing shape up in the per-body memo: workload generators
        intern their constant payloads, so the thousands of envelopes that
        share one payload tree are summed once per shape.

        Neither the trace context nor transparent headers count: a stamped
        envelope sizes exactly like an unstamped one, so the latency model
        — and every simulated timing derived from it — is untouched by
        tracing.
        """
        cached = self._size_cache
        if cached is not None:
            return cached
        addressing = self.addressing
        to = addressing.to
        action = addressing.action
        message_id = addressing.message_id
        relates_to = addressing.relates_to
        reply_to = addressing.reply_to
        process_instance_id = addressing.process_instance_id
        shape = (
            None if to is None else escaped_size(to),
            None if action is None else escaped_size(action),
            None if message_id is None else escaped_size(message_id),
            None if relates_to is None else escaped_size(relates_to),
            None if reply_to is None else escaped_size(reply_to),
            None if process_instance_id is None else escaped_size(process_instance_id),
        )
        headers = self.headers
        if headers:  # the visible ones, summarized
            headers = [
                size_summary(_wire_header(extension))
                for extension in headers
                if not extension.transparent
            ]
        body = self.body
        if body is None:
            fault = self.fault
            size = _envelope_size(
                shape, headers, None if fault is None else size_summary(fault.to_element())
            )
        else:
            known = _BODY_SIZE_MEMO.get(body)
            if known is None:
                known = _BODY_SIZE_MEMO[body] = (size_summary(body), {})
            summary, shapes = known
            if headers:
                size = _envelope_size(shape, headers, summary)
            else:
                size = shapes.get(shape)
                if size is None:
                    size = shapes[shape] = _envelope_size(shape, headers, summary)
        cached = self._size_cache = size + self.padding
        return cached

    @classmethod
    def from_element(cls, element: Element) -> "SoapEnvelope":
        if element.name != _ENVELOPE_NAME:
            raise XmlError(f"not a SOAP envelope: {element.name}")
        header = element.find(_HEADER_NAME)
        body = element.find(_BODY_NAME)
        if body is None:
            raise XmlError("SOAP envelope without a Body")
        addressing_blocks: list[Element] = []
        extensions: list[SoapHeader] = []
        trace_context = None
        trace_position = 0
        trace_seen = False
        if header is not None:
            for child in header.children:
                if child.name.namespace == WSA_NS or (
                    child.name.namespace == MASC_NS and child.name.local == "ProcessInstanceID"
                ):
                    addressing_blocks.append(child)
                    continue
                is_trace = child.name == TRACE_CONTEXT_HEADER
                if is_trace and not trace_seen:
                    trace_seen = True
                    trace_context = parse_traceparent(
                        child.text, child.attributes.get("correlationId")
                    )
                    if trace_context is not None:
                        trace_position = len(extensions)
                        continue
                # A malformed trace header stays a transparent block: the
                # message reads as carrying no context, and re-serializes
                # byte for byte.
                extensions.append(
                    SoapHeader(
                        child.copy(),
                        child.attributes.get(_MUST_UNDERSTAND_ATTR) == "1",
                        is_trace,
                    )
                )
        fault: SoapFault | None = None
        payload: Element | None = None
        if body.children:
            first = body.children[0]
            if first.name == _FAULT_NAME:
                fault = SoapFault.from_element(first)
            else:
                payload = first.copy()
        return cls(
            addressing=AddressingHeaders.from_elements(addressing_blocks),
            headers=extensions,
            body=payload,
            fault=fault,
            trace_context=trace_context,
            _trace_position=trace_position,
        )

    @classmethod
    def from_xml(cls, text: str) -> "SoapEnvelope":
        return cls.from_element(parse_xml(text))
