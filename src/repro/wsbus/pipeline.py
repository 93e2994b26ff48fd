"""Message pipeline: inspectors and processing modules.

"Adaptation policies supported by wsBus work via injecting runtime
inspectors and custom Message Processing Modules into a messaging pipeline
at different message processing stages such as before sending a request and
after receiving a response. These custom modules can be applied at
different scopes such as the whole service, a particular endpoint or a
particular service operation."

Module applicability is decided per message with "simple rules expressed
as a regular expression or XPath query against the header or the payload".

The same idea one level out: the tiers standing around a VEP's mediation
core and around one delivery attempt are **stages**, chained by
:func:`compose`. A stage is a generator function ``stage(request,
proceed)`` that may answer itself (short-circuit), wait, hand ``proceed``
a restamped request, or observe the reply. The bus composes each chain
when a tier's presence changes, never per message: a tier that is not
configured is not in the chain.
"""

from __future__ import annotations

import re
from functools import partial
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.soap import SoapEnvelope
from repro.xmlutils import XPath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wsbus.vep import VirtualEndpoint

__all__ = [
    "ApplicabilityRule",
    "MessagePipeline",
    "MessageProcessingModule",
    "PipelineContext",
    "SendAttempt",
    "compose",
    "stages_of",
]


def compose(stages, core):
    """The handler running ``stages`` (outermost first) around ``core``.

    A ``None`` entry is a stage whose tier is absent and is left out; with
    nothing left the handler *is* ``core``: no wrapper frame.
    """
    handler = core
    for stage in reversed(stages):
        if stage is not None:
            handler = partial(stage, proceed=handler)
    return handler


def stages_of(handler) -> list:
    """The stages standing in a composed ``handler``, outermost first."""
    standing = []
    while isinstance(handler, partial):
        standing.append(handler.func)
        handler = handler.keywords["proceed"]
    return standing


@dataclass(slots=True)
class SendAttempt:
    """One delivery attempt, the send chain's request: ``outbound`` goes on
    the wire to ``target``; spans correlate on ``original``, the caller's
    envelope (a re-routed copy carries a fresh message ID)."""

    original: SoapEnvelope
    outbound: SoapEnvelope
    operation: str
    target: str
    timeout: float | None


@dataclass
class PipelineContext:
    """Per-message context threaded through the pipeline."""

    env: Any
    vep: "VirtualEndpoint | None"
    operation: str
    target: str | None = None
    direction: str = "request"
    #: Scratch space modules use to communicate (e.g. metering tags).
    attributes: dict[str, Any] = field(default_factory=dict)
    #: The enclosing trace span (None when tracing is disabled).
    span: Any = None


@dataclass(frozen=True)
class ApplicabilityRule:
    """Decides whether a module applies to a given message.

    Any combination of: operation glob, XPath match against the payload or
    header, and a regular expression against the serialized message.
    All configured criteria must hold.
    """

    operation: str | None = None
    xpath: str | None = None
    applies_to: str = "body"  # body | header | envelope
    regex: str | None = None

    def __post_init__(self) -> None:
        if self.xpath is not None:
            object.__setattr__(self, "_xpath", XPath(self.xpath))
        else:
            object.__setattr__(self, "_xpath", None)
        if self.regex is not None:
            object.__setattr__(self, "_regex", re.compile(self.regex))
        else:
            object.__setattr__(self, "_regex", None)

    def matches(self, envelope: SoapEnvelope, context: PipelineContext) -> bool:
        if self.operation is not None:
            import fnmatch

            if not fnmatch.fnmatchcase(context.operation, self.operation):
                return False
        compiled_xpath = getattr(self, "_xpath")
        if compiled_xpath is not None:
            if self.applies_to == "body":
                root = envelope.body
            elif self.applies_to == "header":
                root = envelope.to_element().find(
                    "{http://schemas.xmlsoap.org/soap/envelope/}Header"
                )
            else:
                root = envelope.to_element()
            if root is None or not compiled_xpath.matches(root):
                return False
        compiled_regex = getattr(self, "_regex")
        if compiled_regex is not None and compiled_regex.search(envelope.to_xml()) is None:
            return False
        return True


class MessageProcessingModule:
    """Base class for pipeline modules.

    Override the stages the module participates in. Returning a different
    envelope replaces the message for the rest of the pipeline.
    """

    def __init__(self, name: str, rule: ApplicabilityRule | None = None) -> None:
        self.name = name
        self.rule = rule

    def applies(self, envelope: SoapEnvelope, context: PipelineContext) -> bool:
        return self.rule is None or self.rule.matches(envelope, context)

    def process_request(
        self, envelope: SoapEnvelope, context: PipelineContext
    ) -> SoapEnvelope:
        return envelope

    def process_response(
        self, envelope: SoapEnvelope, context: PipelineContext
    ) -> SoapEnvelope:
        return envelope


class MessagePipeline:
    """An ordered chain of message processing modules."""

    def __init__(self, modules: list[MessageProcessingModule] | None = None) -> None:
        self.modules: list[MessageProcessingModule] = list(modules or ())

    def add(self, module: MessageProcessingModule) -> MessageProcessingModule:
        self.modules.append(module)
        return module

    def insert(self, index: int, module: MessageProcessingModule) -> None:
        self.modules.insert(index, module)

    def remove(self, name: str) -> bool:
        for module in self.modules:
            if module.name == name:
                self.modules.remove(module)
                return True
        return False

    def run_request(
        self, envelope: SoapEnvelope, context: PipelineContext
    ) -> SoapEnvelope:
        context.direction = "request"
        span = context.span
        for module in self.modules:
            if module.applies(envelope, context):
                envelope = module.process_request(envelope, context)
                if span is not None:
                    span.add_event("pipeline.request", module=module.name)
        return envelope

    def run_response(
        self, envelope: SoapEnvelope, context: PipelineContext
    ) -> SoapEnvelope:
        context.direction = "response"
        span = context.span
        # Response stages run in reverse module order, onion-style.
        for module in reversed(self.modules):
            if module.applies(envelope, context):
                envelope = module.process_response(envelope, context)
                if span is not None:
                    span.add_event("pipeline.response", module=module.name)
        return envelope
