"""Unit tests for conversation management."""

import pytest

from conftest import ECHO_CONTRACT, EchoService, run_process
from repro.soap import MASC_NS, SoapEnvelope
from repro.services import Invoker
from repro.wsbus import ConversationManager, ConversationState
from repro.xmlutils import Element, QName


def message(pid=None, conversation=None, direction="request", operation="op", target="http://svc"):
    envelope = SoapEnvelope(body=Element("payload"))
    if pid:
        envelope.addressing = envelope.addressing.with_process_instance(pid)
    if conversation:
        envelope.add_header(Element(QName(MASC_NS, "ConversationID"), text=conversation))
    return direction, envelope, operation, target


class TestCorrelation:
    def test_process_instance_id_correlates(self, env):
        manager = ConversationManager(env)
        manager.observe_message(*message(pid="proc-1"))
        manager.observe_message(*message(pid="proc-1", direction="response"))
        conversation = manager.conversation("proc-1")
        assert conversation.message_count == 2
        assert conversation.state is ConversationState.ACTIVE

    def test_explicit_header_correlates(self, env):
        manager = ConversationManager(env)
        manager.observe_message(*message(conversation="conv-9"))
        assert manager.conversation("conv-9") is not None

    def test_uncorrelated_messages_ignored(self, env):
        manager = ConversationManager(env)
        manager.observe_message(*message())
        assert manager.conversations == {}

    def test_process_id_takes_precedence(self, env):
        manager = ConversationManager(env)
        direction, envelope, operation, target = message(pid="proc-2", conversation="conv-2")
        manager.observe_message(direction, envelope, operation, target)
        assert manager.conversation("proc-2") is not None
        assert manager.conversation("conv-2") is None

    def test_participants_and_operations_tracked(self, env):
        manager = ConversationManager(env)
        manager.observe_message(*message(pid="p", operation="getCatalog", target="http://a"))
        manager.observe_message(*message(pid="p", operation="submitOrder", target="http://b"))
        conversation = manager.conversation("p")
        assert conversation.participants == {"http://a", "http://b"}
        assert conversation.operations == ["request:getCatalog", "request:submitOrder"]

    def test_fault_counted(self, env):
        manager = ConversationManager(env)
        manager.observe_message(*message(pid="p", direction="fault"))
        assert manager.conversation("p").fault_count == 1


class TestLifecycle:
    def test_complete(self, env):
        manager = ConversationManager(env)
        manager.observe_message(*message(pid="p"))
        assert manager.complete("p") is True
        assert manager.conversation("p").state is ConversationState.COMPLETED
        assert manager.complete("p") is False
        assert manager.complete("ghost") is False

    def test_abandonment_detected(self, env):
        manager = ConversationManager(env, idle_timeout_seconds=10.0)
        events = []
        manager.router.subscribe(events.append)
        manager.observe_message(*message(pid="p"))
        env.run(until=30.0)
        assert manager.conversation("p").state is ConversationState.ABANDONED
        assert events and events[0].name == "conversation.abandoned"
        assert events[0].context["conversation_id"] == "p"

    def test_active_conversation_not_abandoned(self, env):
        manager = ConversationManager(env, idle_timeout_seconds=10.0)

        def keep_alive():
            for _ in range(10):
                manager.observe_message(*message(pid="p"))
                yield env.timeout(5.0)

        env.process(keep_alive())
        env.run(until=45.0)
        assert manager.conversation("p").state is ConversationState.ACTIVE

    def test_late_message_revives(self, env):
        manager = ConversationManager(env, idle_timeout_seconds=5.0)
        manager.observe_message(*message(pid="p"))
        env.run(until=20.0)
        assert manager.conversation("p").state is ConversationState.ABANDONED
        manager.observe_message(*message(pid="p", direction="response"))
        assert manager.conversation("p").state is ConversationState.ACTIVE

    def test_queries(self, env):
        manager = ConversationManager(env)
        manager.observe_message(*message(pid="p1", target="http://a"))
        manager.observe_message(*message(pid="p2", target="http://b"))
        manager.complete("p1")
        assert [c.conversation_id for c in manager.active_conversations()] == ["p2"]
        assert [c.conversation_id for c in manager.conversations_with("http://a")] == ["p1"]


class TestIntegrationWithInvoker:
    def test_taps_real_traffic(self, env, network, container):
        container.deploy(EchoService(env, "echo1", "http://test/echo"))
        manager = ConversationManager(env)
        invoker = Invoker(env, network, caller="client")
        manager.attach_to_invoker(invoker)

        def client():
            payload = ECHO_CONTRACT.operation("echo").input.build(text="x")
            yield from invoker.invoke(
                "http://test/echo", "echo", payload, process_instance_id="proc-55"
            )

        run_process(env, client())
        conversation = manager.conversation("proc-55")
        assert conversation.message_count == 2  # request + response
        assert conversation.participants == {"http://test/echo"}
