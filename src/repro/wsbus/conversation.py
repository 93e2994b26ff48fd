"""Conversation management.

Section 3.1 lists "conversation management" among the middleware services
a VEP provides to service compositions. A conversation is the sequence of
correlated messages belonging to one interaction — here correlated by the
MASC ProcessInstanceID header when present, falling back to an explicit
``ConversationID`` extension header.

The manager tracks per-conversation state (participants, message counts,
timing), detects conversations abandoned beyond an idle timeout (raising a
MASC event so policies can react — e.g. terminate the orphaned process
instance), and answers the queries monitoring policies need ("querying the
log of prior interactions to get some historical data").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.events import MASCEvent
from repro.simulation import EventRouter
from repro.soap import MASC_NS, SoapEnvelope
from repro.xmlutils import QName

__all__ = ["Conversation", "ConversationManager", "ConversationState"]

CONVERSATION_HEADER = QName(MASC_NS, "ConversationID")


class ConversationState(enum.Enum):
    ACTIVE = "active"
    COMPLETED = "completed"
    ABANDONED = "abandoned"


@dataclass
class Conversation:
    """State of one correlated message exchange."""

    conversation_id: str
    started_at: float
    last_activity_at: float
    state: ConversationState = ConversationState.ACTIVE
    message_count: int = 0
    fault_count: int = 0
    participants: set[str] = field(default_factory=set)
    operations: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.last_activity_at - self.started_at


class ConversationManager:
    """Correlates messages into conversations and watches their lifecycle."""

    def __init__(self, env, idle_timeout_seconds: float = 300.0) -> None:
        self.env = env
        self.idle_timeout_seconds = idle_timeout_seconds
        self.conversations: dict[str, Conversation] = {}
        self.router = EventRouter()
        self._watchdog_started = False

    def attach_to_invoker(self, invoker) -> None:
        invoker.router.subscribe(self.observe_message, ("request", "response", "fault"))

    # -- correlation ---------------------------------------------------------------

    @staticmethod
    def correlation_id(envelope: SoapEnvelope) -> str | None:
        """The conversation a message belongs to, if identifiable."""
        if envelope.addressing.process_instance_id:
            return envelope.addressing.process_instance_id
        header = envelope.header(CONVERSATION_HEADER)
        if header is not None and header.text:
            return header.text
        return None

    def observe_message(
        self, direction: str, envelope: SoapEnvelope, operation: str, target: str
    ) -> None:
        """Message-tap entry point: fold a message into its conversation."""
        conversation_id = self.correlation_id(envelope)
        if conversation_id is None:
            return
        conversation = self.conversations.get(conversation_id)
        if conversation is None:
            conversation = Conversation(
                conversation_id=conversation_id,
                started_at=self.env.now,
                last_activity_at=self.env.now,
            )
            self.conversations[conversation_id] = conversation
            self._ensure_watchdog()
        if conversation.state is not ConversationState.ACTIVE:
            # A late message revives an abandoned conversation.
            conversation.state = ConversationState.ACTIVE
        conversation.message_count += 1
        conversation.last_activity_at = self.env.now
        conversation.participants.add(target)
        conversation.operations.append(f"{direction}:{operation}")
        if direction == "fault":
            conversation.fault_count += 1

    def complete(self, conversation_id: str) -> bool:
        """Mark a conversation finished (e.g. its process completed)."""
        conversation = self.conversations.get(conversation_id)
        if conversation is None or conversation.state is not ConversationState.ACTIVE:
            return False
        conversation.state = ConversationState.COMPLETED
        conversation.last_activity_at = self.env.now
        return True

    # -- queries ----------------------------------------------------------------------

    def conversation(self, conversation_id: str) -> Conversation | None:
        return self.conversations.get(conversation_id)

    def active_conversations(self) -> list[Conversation]:
        return [
            conversation
            for conversation in self.conversations.values()
            if conversation.state is ConversationState.ACTIVE
        ]

    def conversations_with(self, participant: str) -> list[Conversation]:
        return [
            conversation
            for conversation in self.conversations.values()
            if participant in conversation.participants
        ]

    # -- abandonment detection ---------------------------------------------------------

    def _ensure_watchdog(self) -> None:
        if not self._watchdog_started:
            self._watchdog_started = True
            self.env.process(self._watchdog(), name="conversation-watchdog")

    def _watchdog(self):
        interval = max(1.0, self.idle_timeout_seconds / 4.0)
        while True:
            yield interval
            now = self.env.now
            for conversation in self.conversations.values():
                if conversation.state is not ConversationState.ACTIVE:
                    continue
                if now - conversation.last_activity_at < self.idle_timeout_seconds:
                    continue
                conversation.state = ConversationState.ABANDONED
                event = MASCEvent(
                    name="conversation.abandoned",
                    time=now,
                    process_instance_id=conversation.conversation_id,
                    context={
                        "conversation_id": conversation.conversation_id,
                        "idle_seconds": now - conversation.last_activity_at,
                        "message_count": conversation.message_count,
                        "participants": sorted(conversation.participants),
                    },
                    raised_by="conversation-manager",
                )
                self.router.publish(event.name, event)
