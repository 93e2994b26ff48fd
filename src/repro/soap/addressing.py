"""WS-Addressing message-information headers.

Carries endpoint references and message correlation. MASC extends the set
with a ``ProcessInstanceID`` header: the adaptation service "transparently
adds the ProcessInstanceID of the calling process to outgoing SOAP messages
(using the RelatesTo Message Addressing Header)" so the messaging layer can
identify which process instance to coordinate recovery with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.xmlutils import Element, QName

__all__ = ["AddressingHeaders", "HEADER_BLOCKS", "MASC_NS", "WSA_NS", "new_message_id"]

WSA_NS = "http://www.w3.org/2005/08/addressing"
MASC_NS = "http://masc.web.cse.unsw.edu.au/ns/masc"

#: The header blocks in document order: (field, namespace, local name). A
#: field that is None writes no block. The envelope sizes messages from this
#: table without building the blocks.
HEADER_BLOCKS = (
    ("to", WSA_NS, "To"),
    ("action", WSA_NS, "Action"),
    ("message_id", WSA_NS, "MessageID"),
    ("relates_to", WSA_NS, "RelatesTo"),
    ("reply_to", WSA_NS, "ReplyTo"),
    ("process_instance_id", MASC_NS, "ProcessInstanceID"),
)

_message_counter = itertools.count(1)


def new_message_id() -> str:
    """A fresh unique message identifier (URN form)."""
    return f"urn:uuid:msg-{next(_message_counter):08d}"


@dataclass(frozen=True)
class AddressingHeaders:
    """The addressing properties of one SOAP message.

    ``process_instance_id`` is the MASC extension header used for
    cross-layer coordination between wsBus and the orchestration engine.
    """

    to: str | None = None
    action: str | None = None
    message_id: str = field(default_factory=new_message_id)
    relates_to: str | None = None
    reply_to: str | None = None
    process_instance_id: str | None = None

    def for_reply(self, to: str | None = None) -> "AddressingHeaders":
        """Headers for a reply correlated to this message."""
        # Direct construction (no dataclass __init__): one reply per request
        # makes this hot, and the frozen-dataclass field funnel is pure
        # overhead for a freshly built value.
        reply = AddressingHeaders.__new__(AddressingHeaders)
        state = reply.__dict__
        state["to"] = to if to is not None else self.reply_to
        state["action"] = f"{self.action}Response" if self.action else None
        state["message_id"] = new_message_id()
        state["relates_to"] = self.message_id
        state["reply_to"] = None
        state["process_instance_id"] = self.process_instance_id
        return reply

    def with_process_instance(self, process_instance_id: str) -> "AddressingHeaders":
        """A copy carrying the calling process instance identifier."""
        return replace(self, process_instance_id=process_instance_id)

    def retargeted(self, to: str) -> "AddressingHeaders":
        """A copy addressed to a different endpoint (VEP re-routing).

        A fresh ``message_id`` is minted because re-routed copies are
        distinct messages on the wire (the paper's concurrent-invocation
        strategy "makes a copy of the message and modifies its route").
        """
        retargeted = AddressingHeaders.__new__(AddressingHeaders)
        state = retargeted.__dict__
        state.update(self.__dict__)
        state["to"] = to
        state["message_id"] = new_message_id()
        return retargeted

    # -- XML mapping ---------------------------------------------------------

    def to_elements(self) -> list[Element]:
        """Header blocks in document order."""
        return [
            Element(QName(namespace, local), text=text)
            for attribute, namespace, local in HEADER_BLOCKS
            if (text := getattr(self, attribute)) is not None
        ]

    @classmethod
    def from_elements(cls, blocks: list[Element]) -> "AddressingHeaders":
        """Reconstruct addressing properties from header blocks."""
        values: dict[str, str] = {}
        for element in blocks:
            if element.name.namespace == WSA_NS:
                values[element.name.local] = element.text or ""
            elif element.name == QName(MASC_NS, "ProcessInstanceID"):
                values["ProcessInstanceID"] = element.text or ""
        return cls(
            to=values.get("To"),
            action=values.get("Action"),
            message_id=values.get("MessageID", new_message_id()),
            relates_to=values.get("RelatesTo"),
            reply_to=values.get("ReplyTo"),
            process_instance_id=values.get("ProcessInstanceID"),
        )
