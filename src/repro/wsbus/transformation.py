"""Message Adaptation Service: transformation and enrichment modules.

"A Message Processing Module that handles data transformation and
enrichment to resolve incompatibilities between services registered with a
particular VEP (i.e., structural, value and encoding mismatches). Various
transformation patterns are supported, such as transform a message payload
from the one schema to another; attach additional data from external
sources...; split/merge messages; buffer multiple messages and aggregate
them into a single one... These transformation modules can be composed into
a pipeline to transform and relay messages."
"""

from __future__ import annotations

from collections.abc import Callable

from repro.soap import SoapEnvelope
from repro.wsbus.pipeline import ApplicabilityRule, MessageProcessingModule, PipelineContext
from repro.xmlutils import Element

__all__ = [
    "AggregatorModule",
    "EnrichmentModule",
    "PayloadTransformModule",
    "SplitterModule",
]


class PayloadTransformModule(MessageProcessingModule):
    """Schema-to-schema payload mapping (structural + value mismatches).

    Declarative mapping: optionally rename the root element, rename parts,
    convert part values, and drop parts. Unmapped parts pass through.
    """

    def __init__(
        self,
        name: str = "payload-transform",
        rename_root: str | None = None,
        rename_parts: dict[str, str] | None = None,
        convert_values: dict[str, Callable[[str], str]] | None = None,
        drop_parts: tuple[str, ...] = (),
        direction: str = "request",  # request | response | both
        rule: ApplicabilityRule | None = None,
    ) -> None:
        super().__init__(name, rule)
        self.rename_root = rename_root
        self.rename_parts = dict(rename_parts or {})
        self.convert_values = dict(convert_values or {})
        self.drop_parts = set(drop_parts)
        self.direction = direction

    def transform(self, payload: Element) -> Element:
        root_name = self.rename_root if self.rename_root else payload.name
        transformed = Element(root_name, attributes=dict(payload.attributes))
        for child in payload.children:
            local = child.name.local
            if local in self.drop_parts:
                continue
            new_child = child.copy()
            if local in self.rename_parts:
                new_child = Element(
                    self.rename_parts[local],
                    attributes=dict(child.attributes),
                    text=child.text,
                    children=[grandchild.copy() for grandchild in child.children],
                )
            converter = self.convert_values.get(local)
            if converter is not None and new_child.text is not None:
                new_child.text = converter(new_child.text)
            transformed.append(new_child)
        return transformed

    def _apply(self, envelope: SoapEnvelope) -> SoapEnvelope:
        if envelope.body is None or envelope.is_fault:
            return envelope
        result = envelope.copy()
        result.body = self.transform(envelope.body)
        return result

    def process_request(self, envelope: SoapEnvelope, context: PipelineContext) -> SoapEnvelope:
        if self.direction in ("request", "both"):
            return self._apply(envelope)
        return envelope

    def process_response(self, envelope: SoapEnvelope, context: PipelineContext) -> SoapEnvelope:
        if self.direction in ("response", "both"):
            return self._apply(envelope)
        return envelope


class EnrichmentModule(MessageProcessingModule):
    """Attach additional data from an external source.

    ``source`` is called with (envelope, context) and returns a dict of
    part-name → text to append to the payload — modelling the paper's
    "attach additional data from external sources, such as Web services
    calls or from database queries".
    """

    def __init__(
        self,
        source: Callable[[SoapEnvelope, PipelineContext], dict[str, str]],
        name: str = "enrichment",
        direction: str = "request",
        rule: ApplicabilityRule | None = None,
    ) -> None:
        super().__init__(name, rule)
        self.source = source
        self.direction = direction

    def _apply(self, envelope: SoapEnvelope, context: PipelineContext) -> SoapEnvelope:
        if envelope.body is None or envelope.is_fault:
            return envelope
        additions = self.source(envelope, context)
        if not additions:
            return envelope
        result = envelope.copy()
        assert envelope.body is not None
        # copy() shares the body tree; take a private copy before enriching
        # it in place so the original message is not mutated.
        result.body = envelope.body.copy()
        for part, text in additions.items():
            result.body.add(part, text=str(text))
        return result

    def process_request(self, envelope: SoapEnvelope, context: PipelineContext) -> SoapEnvelope:
        if self.direction in ("request", "both"):
            return self._apply(envelope, context)
        return envelope

    def process_response(self, envelope: SoapEnvelope, context: PipelineContext) -> SoapEnvelope:
        if self.direction in ("response", "both"):
            return self._apply(envelope, context)
        return envelope


class SplitterModule(MessageProcessingModule):
    """Split one message into several, one per repeated payload element.

    Used outside the linear pipeline (splitting changes message
    cardinality): the VEP or bus calls :meth:`split` and routes each part.
    """

    def __init__(self, item_element: str, name: str = "splitter") -> None:
        super().__init__(name)
        self.item_element = item_element

    def split(self, envelope: SoapEnvelope) -> list[SoapEnvelope]:
        if envelope.body is None:
            return [envelope]
        items = envelope.body.find_all(self.item_element)
        if not items:
            return [envelope]
        parts: list[SoapEnvelope] = []
        for item in items:
            part = envelope.copy()
            assert part.body is not None
            body = Element(envelope.body.name, attributes=dict(envelope.body.attributes))
            for child in envelope.body.children:
                if child.name.local != self.item_element:
                    body.append(child.copy())
            body.append(item.copy())
            part.body = body
            parts.append(part)
        return parts


class AggregatorModule(MessageProcessingModule):
    """Buffer messages and merge them into one.

    Collects payload children under a single root once ``batch_size``
    messages have been buffered (or on explicit :meth:`flush`).
    """

    def __init__(
        self, batch_size: int, root_element: str = "Aggregate", name: str = "aggregator"
    ) -> None:
        super().__init__(name)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self.root_element = root_element
        self._buffer: list[SoapEnvelope] = []

    def offer(self, envelope: SoapEnvelope) -> SoapEnvelope | None:
        """Buffer a message; returns the aggregate when the batch is full."""
        self._buffer.append(envelope)
        if len(self._buffer) >= self.batch_size:
            return self.flush()
        return None

    def flush(self) -> SoapEnvelope | None:
        if not self._buffer:
            return None
        first = self._buffer[0]
        body = Element(self.root_element)
        for message in self._buffer:
            if message.body is not None:
                body.append(message.body.copy())
        self._buffer = []
        aggregate = first.copy()
        aggregate.body = body
        return aggregate

    @property
    def pending(self) -> int:
        return len(self._buffer)
