"""Unit tests for instance control: suspend/resume, terminate, deadlines,
dynamic modification, and the engine's runtime services."""

import pytest

from conftest import EchoService, SlowEchoService
from repro.orchestration import (
    Assign,
    Delay,
    Empty,
    Invoke,
    ModificationError,
    ProcessDefinition,
    ProcessFault,
    ProcessModifier,
    Reply,
    Sequence,
    TrackingService,
    WorkflowEngine,
)
from repro.orchestration.instance import InstanceStatus
from repro.services import ServiceRegistry


@pytest.fixture
def engine(env, network, container):
    container.deploy(EchoService(env, "echo1", "http://test/echo"))
    container.deploy(SlowEchoService(env, "slow", "http://test/slow", delay=50.0))
    return WorkflowEngine(env, network=network)


def three_step_definition():
    return ProcessDefinition(
        "steps",
        Sequence(
            "main",
            [
                Sequence("part1", [Delay("d1", 1.0), Assign("a1", "x", value=1)]),
                Sequence("part2", [Delay("d2", 1.0), Assign("a2", "y", value=2)]),
                Reply("r", variable="y"),
            ],
        ),
    )


class TestSuspendResume:
    def test_suspend_blocks_progress(self, env, engine):
        instance = engine.start(three_step_definition())

        def controller():
            yield env.timeout(0.5)
            instance.suspend()
            yield env.timeout(10.0)
            assert "y" not in instance.variables  # part2 never ran while suspended
            instance.resume()

        env.process(controller())
        assert engine.run_to_completion(instance) == 2
        assert env.now >= 10.5

    def test_suspend_is_idempotent(self, env, engine):
        instance = engine.start(three_step_definition())
        instance.suspend()
        instance.suspend()
        instance.resume()
        assert engine.run_to_completion(instance) == 2

    def test_resume_without_suspend_is_noop(self, env, engine):
        instance = engine.start(three_step_definition())
        instance.resume()
        assert engine.run_to_completion(instance) == 2

    def test_suspend_after_completion_is_noop(self, env, engine):
        instance = engine.start(three_step_definition())
        engine.run_to_completion(instance)
        instance.suspend()
        assert instance.status is InstanceStatus.COMPLETED


class TestTerminate:
    def test_terminate_mid_flight(self, env, engine):
        instance = engine.start(three_step_definition())

        def controller():
            yield env.timeout(0.5)
            instance.terminate("operator request")

        env.process(controller())
        env.run()
        assert instance.status is InstanceStatus.TERMINATED
        assert "y" not in instance.variables

    def test_terminate_suspended_instance(self, env, engine):
        instance = engine.start(three_step_definition())

        def controller():
            yield env.timeout(0.5)
            instance.suspend()
            yield env.timeout(1.0)
            instance.terminate()

        env.process(controller())
        env.run()
        assert instance.status is InstanceStatus.TERMINATED

    def test_terminate_after_completion_is_noop(self, env, engine):
        instance = engine.start(three_step_definition())
        engine.run_to_completion(instance)
        instance.terminate()
        assert instance.status is InstanceStatus.COMPLETED


class TestDeadlinesAndExtension:
    def invoke_definition(self, timeout):
        return ProcessDefinition(
            "p",
            Sequence(
                "main",
                [
                    Invoke(
                        "call-slow",
                        operation="echo",
                        to="http://test/slow",
                        inputs={"text": "x"},
                        extract={"echoed": "text"},
                        timeout_seconds=timeout,
                    ),
                    Reply("r", variable="echoed"),
                ],
            ),
        )

    def test_invoke_deadline_fires(self, env, engine):
        instance = engine.start(self.invoke_definition(timeout=2.0))
        with pytest.raises(ProcessFault) as excinfo:
            engine.run_to_completion(instance)
        assert "deadline" in str(excinfo.value)
        assert env.now == pytest.approx(2.0, abs=0.1)

    def test_extend_timeout_keeps_call_alive(self, env, engine):
        """Cross-layer coordination: pushing the deadline out lets a slow
        call (50s service vs 10s timeout) complete."""
        instance = engine.start(self.invoke_definition(timeout=10.0))

        def extender():
            yield env.timeout(1.0)
            assert instance.extend_timeout("call-slow", 60.0) is True

        env.process(extender())
        assert engine.run_to_completion(instance) == "late"
        assert env.now == pytest.approx(50.0, abs=1.0)

    def test_extend_unknown_activity_returns_false(self, env, engine):
        instance = engine.start(self.invoke_definition(timeout=10.0))
        assert instance.extend_timeout("nothing-pending", 5.0) is False
        with pytest.raises(ProcessFault):
            engine.run_to_completion(instance)


class TestDynamicModification:
    def test_insert_after_executed_anchor(self, env, engine):
        definition = three_step_definition()
        instance = engine.start(definition)

        def meddler():
            yield env.timeout(1.5)  # part1 done, part2 running
            instance.suspend()
            modifier = ProcessModifier(instance)
            modifier.insert_after(
                "part2", Assign("injected", "y", expression=lambda v: v["y"] * 10)
            )
            modifier.apply()
            instance.resume()

        env.process(meddler())
        assert engine.run_to_completion(instance) == 20

    def test_insert_before_executed_anchor_rejected(self, env, engine):
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(1.5)
            instance.suspend()
            modifier = ProcessModifier(instance)
            modifier.insert_before("part1", Empty("too-late"))
            with pytest.raises(ModificationError):
                modifier.apply()
            instance.resume()

        env.process(meddler())
        engine.run_to_completion(instance)

    def test_modification_requires_suspension_once_started(self, env, engine):
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(0.5)
            modifier = ProcessModifier(instance)
            modifier.insert_after("part2", Empty("x"))
            with pytest.raises(ModificationError):
                modifier.apply()

        env.process(meddler())
        engine.run_to_completion(instance)

    def test_remove_active_activity_rejected(self, env, engine):
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(0.5)  # part1/d1 active
            instance.suspend()
            modifier = ProcessModifier(instance)
            with pytest.raises(ModificationError):
                modifier.remove("part1")
                modifier.apply()
            instance.resume()

        env.process(meddler())
        engine.run_to_completion(instance)

    def test_remove_pending_activity(self, env, engine):
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(0.5)
            instance.suspend()
            modifier = ProcessModifier(instance)
            modifier.remove("part2")
            modifier.apply()
            instance.resume()

        env.process(meddler())
        engine.run_to_completion(instance)
        assert "y" not in instance.variables
        assert instance.status is InstanceStatus.COMPLETED

    def test_replace_pending_activity(self, env, engine):
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(0.5)
            instance.suspend()
            modifier = ProcessModifier(instance)
            modifier.replace("part2", Assign("alternative", "y", value=99))
            modifier.apply()
            instance.resume()

        env.process(meddler())
        assert engine.run_to_completion(instance) == 99

    def test_duplicate_name_insertion_rejected(self, env, engine):
        instance = engine.start(three_step_definition())
        modifier = ProcessModifier(instance)
        with pytest.raises(ModificationError):
            modifier.insert_after("part1", Empty("part2"))

    def test_bind_variables_applied(self, env, engine):
        definition = ProcessDefinition(
            "p", Sequence("main", [Delay("d", 1.0), Reply("r", variable="injected")])
        )
        instance = engine.start(definition)
        modifier = ProcessModifier(instance)
        modifier.bind_variables({"injected": "value-from-policy"})
        modifier.apply()
        assert engine.run_to_completion(instance) == "value-from-policy"

    def test_modifier_single_use(self, env, engine):
        instance = engine.start(three_step_definition())
        modifier = ProcessModifier(instance)
        modifier.apply()
        with pytest.raises(ModificationError):
            modifier.apply()

    def test_transient_copy_edit_does_not_touch_instance(self, env, engine):
        instance = engine.start(three_step_definition())
        modifier = ProcessModifier(instance)
        modifier.insert_after("part2", Empty("staged-only"))
        # Not applied: the live tree must not contain the staged activity.
        assert instance.find_activity("staged-only") is None
        assert modifier.tree is not instance.root

    def test_unknown_anchor_rejected_at_stage_time(self, env, engine):
        instance = engine.start(three_step_definition())
        modifier = ProcessModifier(instance)
        with pytest.raises(ModificationError):
            modifier.insert_after("ghost", Empty("x"))

    def test_modify_finished_instance_rejected(self, env, engine):
        instance = engine.start(three_step_definition())
        engine.run_to_completion(instance)
        modifier = ProcessModifier(instance)
        modifier.insert_after("part2", Empty("x"))
        with pytest.raises(ModificationError):
            modifier.apply()


class TestEngineServices:
    def test_tracking_records_lifecycle(self, env, network, engine):
        tracking = engine.add_service(TrackingService())
        instance = engine.start(three_step_definition())
        engine.run_to_completion(instance)
        kinds = [event.kind for event in tracking.events_for(instance.id)]
        assert kinds[0] == "instance_created"
        assert kinds[-1] == "instance_completed"
        assert "activity_completed" in kinds

    def test_tracking_executed_names(self, env, engine):
        tracking = engine.add_service(TrackingService())
        instance = engine.start(three_step_definition())
        engine.run_to_completion(instance)
        names = tracking.executed_activity_names(instance.id)
        assert names.index("d1") < names.index("d2")

    def test_registry_resolution(self, env, network, container):
        container.deploy(EchoService(env, "echo-reg", "http://test/echo"))
        registry = ServiceRegistry()
        registry.register("Echo", "echo1", "http://test/echo")
        engine = WorkflowEngine(env, network=network, registry=registry)
        definition = ProcessDefinition(
            "p",
            Sequence(
                "main",
                [
                    Invoke(
                        "call",
                        operation="echo",
                        service_type="Echo",
                        inputs={"text": "via-registry"},
                        extract={"echoed": "text"},
                    ),
                    Reply("r", variable="echoed"),
                ],
            ),
        )
        instance = engine.start(definition)
        assert engine.run_to_completion(instance) == "via-registry@echo-reg"

    def test_binder_overrides_registry(self, env, network, container):
        container.deploy(EchoService(env, "echo-bind", "http://test/echo"))
        registry = ServiceRegistry()
        registry.register("Echo", "ghost", "http://nowhere")
        engine = WorkflowEngine(env, network=network, registry=registry)
        engine.binder = lambda service_type, instance: "http://test/echo"
        definition = ProcessDefinition(
            "p",
            Sequence(
                "main",
                [
                    Invoke(
                        "call",
                        operation="echo",
                        service_type="Echo",
                        inputs={"text": "x"},
                        extract={"echoed": "text"},
                    ),
                    Reply("r", variable="echoed"),
                ],
            ),
        )
        assert engine.run_to_completion(engine.start(definition)) == "x@echo-bind"

    def test_unresolvable_service_type_faults(self, env, network):
        engine = WorkflowEngine(env, network=network)
        definition = ProcessDefinition(
            "p",
            Sequence(
                "main",
                [Invoke("call", operation="echo", service_type="Ghost", inputs={})],
            ),
        )
        instance = engine.start(definition)
        with pytest.raises(ProcessFault):
            engine.run_to_completion(instance)

    def test_instance_ids_unique_and_registered(self, env, engine):
        a = engine.start(three_step_definition())
        b = engine.start(three_step_definition())
        assert a.id != b.id
        assert engine.instances[a.id] is a
