"""Durable checkpointing and crash recovery (``repro.persistence``),
plus regression tests for the adaptation-path correctness sweep.

The rehydration-equivalence tests are the tentpole acceptance check: a
process killed at *every possible* activity boundary and rehydrated into
a fresh engine must finish with the same result, variables, and tracking
event sequence as an uninterrupted same-seed run.
"""

import pytest

from conftest import EchoService
from repro.orchestration import (
    Assign,
    Delay,
    Empty,
    Expression,
    ExpressionError,
    ModificationError,
    ProcessDefinition,
    ProcessModifier,
    Reply,
    Sequence,
    TrackingService,
    While,
    WorkflowEngine,
)
from repro.orchestration.instance import InstanceStatus
from repro.persistence import (
    CHECKPOINT,
    MODIFICATION,
    CheckpointStore,
    CheckpointingService,
    PersistenceError,
    StateEncodingError,
    decode_value,
    decode_variables,
    encode_value,
    encode_variables,
    restore_state,
)
from repro.soap import FaultCode, SoapFault
from repro.xmlutils import Element, serialize_xml


# ---------------------------------------------------------------------------
# Value / variable encoding
# ---------------------------------------------------------------------------


class TestValueEncoding:
    @pytest.mark.parametrize("value", [None, True, 7, 2.5, "text"])
    def test_scalars_pass_through(self, value):
        assert decode_value(encode_value(value)) == value

    def test_xml_element_round_trip(self):
        element = Element("order")
        element.add("item", text="widget")
        restored = decode_value(encode_value(element))
        assert serialize_xml(restored) == serialize_xml(element)

    def test_soap_fault_round_trip(self):
        fault = SoapFault(
            FaultCode.SLA_VIOLATION, "too slow", actor="http://svc", source="bus"
        )
        restored = decode_value(encode_value(fault))
        assert restored.code is FaultCode.SLA_VIOLATION
        assert restored.reason == "too slow"
        assert restored.actor == "http://svc"

    def test_nested_containers_round_trip(self):
        value = {"rows": [(1, "a"), (2, "b")], "tags": {"x", "y"}, 3: "int-key"}
        restored = decode_value(encode_value(value))
        assert restored == value
        assert isinstance(restored["rows"][0], tuple)
        assert isinstance(restored["tags"], set)

    def test_unsupported_type_raises(self):
        with pytest.raises(StateEncodingError):
            encode_value(object())

    def test_variable_errors_name_the_variable(self):
        with pytest.raises(StateEncodingError, match="bad_var"):
            encode_variables({"ok": 1, "bad_var": object()})

    def test_variables_round_trip(self):
        variables = {"x": 1, "nested": {"deep": [1, 2, {"deeper": True}]}}
        assert decode_variables(encode_variables(variables)) == variables


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def test_append_assigns_monotonic_seq(self):
        store = CheckpointStore()
        first = store.append({"type": CHECKPOINT, "instance_id": "i1"})
        second = store.append({"type": MODIFICATION, "instance_id": "i1"})
        assert second["seq"] > first["seq"]
        assert len(store) == 2

    def test_record_queries(self):
        store = CheckpointStore()
        store.append({"type": CHECKPOINT, "instance_id": "i1", "n": 1})
        store.append({"type": MODIFICATION, "instance_id": "i1", "n": 2})
        store.append({"type": CHECKPOINT, "instance_id": "i1", "n": 3})
        store.append({"type": CHECKPOINT, "instance_id": "i2", "n": 4})
        assert store.instance_ids() == ["i1", "i2"]
        assert store.latest_checkpoint("i1")["n"] == 3
        assert [r["n"] for r in store.records("i1", CHECKPOINT)] == [1, 3]
        first_seq = store.records("i1", CHECKPOINT)[0]["seq"]
        assert [r["n"] for r in store.journal_after("i1", first_seq)] == [2]

    def test_file_backed_store_reloads(self, tmp_path):
        path = tmp_path / "checkpoints.jsonl"
        store = CheckpointStore(path)
        store.append({"type": CHECKPOINT, "instance_id": "i1", "n": 1})
        store.append({"type": CHECKPOINT, "instance_id": "i1", "n": 2})
        reopened = CheckpointStore(path)
        assert len(reopened) == 2
        assert reopened.latest_checkpoint("i1")["n"] == 2


# ---------------------------------------------------------------------------
# Engine-level checkpointing and rehydration
# ---------------------------------------------------------------------------


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


def loop_definition():
    return ProcessDefinition(
        "looper",
        Sequence(
            "main",
            [
                Assign("init", "x", value=0),
                While(
                    "loop",
                    condition="x < 4",
                    body=Sequence(
                        "body",
                        [Delay("tick", 1.0), Assign("inc", "x", expression="x + 1")],
                    ),
                ),
                Reply("r", variable="x"),
            ],
        ),
    )


@pytest.fixture
def engine(env, network, container):
    container.deploy(EchoService(env, "echo1", "http://test/echo"))
    return WorkflowEngine(env, network=network)


class TestCheckpointing:
    def test_checkpoints_written_at_completions(self, env, network):
        from repro.observability import MetricsRegistry

        engine = WorkflowEngine(env, network=network, metrics=MetricsRegistry())
        store = CheckpointStore()
        engine.add_service(CheckpointingService(store, strict=True))
        instance = engine.start(three_step_definition())
        engine.run_to_completion(instance)
        checkpoints = store.records(instance.id, CHECKPOINT)
        assert checkpoints, "no checkpoints recorded"
        final = checkpoints[-1]
        assert final["status"] == "completed"
        assert decode_variables(final["variables"]) == {"x": 1, "y": 2}
        assert "main" in final["executed"]
        assert engine.metrics.counter("persistence.checkpoints").value == len(
            checkpoints
        )

    def test_restore_state_without_checkpoint_raises(self):
        with pytest.raises(PersistenceError):
            restore_state(CheckpointStore(), "missing")

    def test_rehydrate_resumes_mid_sequence(self, env, network, engine):
        store = CheckpointStore()
        engine.add_service(CheckpointingService(store, strict=True))
        instance = engine.start(three_step_definition())

        def killer():
            yield env.timeout(1.5)  # part1 done, d2 in flight
            engine.crash()

        env.process(killer())
        env.run(until=3.0)
        assert instance.status is InstanceStatus.RUNNING  # frozen, not dead
        state = restore_state(store, instance.id)
        assert "part1" in state.executed
        assert "a2" not in state.completions

        recovery = WorkflowEngine(env, network=network)
        tracking = recovery.add_service(TrackingService())
        recovered = recovery.rehydrate(store, instance.id)
        assert recovery.run_to_completion(recovered) == 2
        assert recovered.variables == {"x": 1, "y": 2}
        replayed = [e for e in tracking.events if e.kind == "activity_replayed"]
        assert replayed, "completed activities should replay, not re-execute"

    def test_rehydrated_loop_converges(self, env, network, engine):
        store = CheckpointStore()
        engine.add_service(CheckpointingService(store, strict=True))
        instance = engine.start(loop_definition())

        def killer():
            yield env.timeout(2.5)  # mid third iteration
            engine.crash()

        env.process(killer())
        env.run(until=4.0)
        recovery = WorkflowEngine(env, network=network)
        recovered = recovery.rehydrate(store, instance.id)
        assert recovery.run_to_completion(recovered) == 4
        assert recovered.variables["x"] == 4

    def test_rehydrate_suspended_instance(self, env, network, engine):
        store = CheckpointStore()
        engine.add_service(CheckpointingService(store, strict=True))
        instance = engine.start(three_step_definition())

        def killer():
            yield env.timeout(1.5)
            instance.suspend()
            yield env.timeout(1.0)
            engine.crash()

        env.process(killer())
        env.run(until=4.0)
        recovery = WorkflowEngine(env, network=network)
        recovered = recovery.rehydrate(store, instance.id)
        assert recovered.status is InstanceStatus.SUSPENDED

        def resumer():
            yield env.timeout(1.0)
            recovered.resume()

        env.process(resumer())
        assert recovery.run_to_completion(recovered) == 2

    def test_crashed_engine_refuses_work(self, env, engine):
        store = CheckpointStore()
        engine.add_service(CheckpointingService(store, strict=True))
        instance = engine.start(three_step_definition())
        env.run(until=1.5)
        engine.crash()
        engine.crash()  # idempotent
        with pytest.raises(RuntimeError, match="crashed"):
            engine.start(three_step_definition())
        with pytest.raises(PersistenceError, match="crashed"):
            engine.rehydrate(store, instance.id)

    def test_rehydrating_completed_instance_rejected(self, env, network, engine):
        store = CheckpointStore()
        engine.add_service(CheckpointingService(store, strict=True))
        instance = engine.start(three_step_definition())
        engine.run_to_completion(instance)
        recovery = WorkflowEngine(env, network=network)
        with pytest.raises(PersistenceError, match="final"):
            recovery.rehydrate(store, instance.id)


class TestModificationJournal:
    def test_modification_journaled_and_replayed(self, env, network, engine):
        store = CheckpointStore()
        engine.add_service(CheckpointingService(store, strict=True))
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(1.5)
            instance.suspend()
            modifier = ProcessModifier(instance)
            modifier.insert_after("part2", Assign("injected", "y", expression="y * 10"))
            modifier.bind_variables({"z": 99})
            modifier.apply()
            instance.resume()
            yield env.timeout(0.1)
            engine.crash()

        env.process(meddler())
        env.run(until=4.0)
        assert store.records(instance.id, MODIFICATION)

        state = restore_state(store, instance.id)
        assert any(node.name == "injected" for node in state.root.iter_tree())
        assert state.variables["z"] == 99

        recovery = WorkflowEngine(env, network=network)
        recovered = recovery.rehydrate(store, instance.id)
        assert recovery.run_to_completion(recovered) == 20
        assert recovered.variables["y"] == 20


# ---------------------------------------------------------------------------
# Kill-at-every-checkpoint equivalence (property-style, both case studies)
# ---------------------------------------------------------------------------


class TestCrashRecoveryEquivalence:
    """Rehydration equivalence swept over every crash point.

    ``run_crash_recovery`` compares a killed-and-recovered run against an
    uninterrupted same-seed reference: same final status/result, same
    variables, and reference events == pre-crash events + recovered live
    events (replay markers excluded).
    """

    @pytest.mark.parametrize("crash_after", [1, 2, 3, 4])
    def test_scm_equivalent_at_every_boundary(self, crash_after):
        from repro.experiments import run_crash_recovery

        result = run_crash_recovery(
            process="scm", seed=5, crash_after_completions=crash_after
        )
        assert result.equivalent, result.divergences
        # A crash after the last freeze point drains to completion (0
        # replays); any earlier crash replays exactly the completed work.
        assert result.replayed_activities in (crash_after, 0)

    @pytest.mark.parametrize("crash_after", [1, 2, 3, 4, 5, 6])
    def test_trading_equivalent_at_every_boundary(self, crash_after):
        from repro.experiments import run_crash_recovery

        result = run_crash_recovery(
            process="trading", seed=5, crash_after_completions=crash_after
        )
        assert result.equivalent, result.divergences
        assert result.replayed_activities in (crash_after, 0)

    def test_crash_past_the_last_boundary_names_process_seed_and_count(self):
        # Regression: this ran the simulation dry and raised a bare
        # SimulationError naming none of the three.
        from repro.experiments import count_crash_boundaries, run_crash_recovery

        assert count_crash_boundaries("scm", seed=7) == 5
        with pytest.raises(ValueError, match=r"'scm' at seed 7 passes 5 activity boundaries"):
            run_crash_recovery("scm", seed=7, crash_after_completions=6)

    def test_file_backed_store_survives(self, tmp_path):
        from repro.experiments import run_crash_recovery

        path = tmp_path / "scm.jsonl"
        result = run_crash_recovery(
            process="scm", seed=1, crash_after_completions=2, store_path=path
        )
        assert result.equivalent
        reloaded = CheckpointStore(path)
        assert len(reloaded.records(record_type=CHECKPOINT)) == result.checkpoints


# ---------------------------------------------------------------------------
# Satellite regressions: the adaptation-path correctness sweep
# ---------------------------------------------------------------------------


class TestExpressionResourceBounds:
    """Satellite 1: the safe evaluator must also be *cheap* to evaluate."""

    def test_huge_exponent_rejected(self):
        with pytest.raises(ExpressionError):
            Expression("2 ** 2 ** 30").evaluate({})

    def test_sequence_repetition_rejected(self):
        with pytest.raises(ExpressionError, match="sequence repetition"):
            Expression("[0] * 10 ** 9").evaluate({})

    def test_string_repetition_rejected(self):
        with pytest.raises(ExpressionError, match="sequence repetition"):
            Expression("'a' * 3").evaluate({})

    def test_huge_multiplication_operand_rejected(self):
        big = 1 << 5000
        with pytest.raises(ExpressionError, match="bits"):
            Expression("x * 2").evaluate({"x": big})

    def test_ordinary_arithmetic_still_works(self):
        assert Expression("2 ** 10").evaluate({}) == 1024
        assert Expression("3 * 4").evaluate({}) == 12
        assert Expression("2.5 ** -2").evaluate({}) == pytest.approx(0.16)


class TestMonitoringViolationEmits:
    """Satellite 2: a classified violation must still raise its MASC events."""

    def test_classified_violation_delivers_emits(self):
        from test_wsbus_monitoring import POINT, envelope, service_with

        from repro.policy import MessageCondition, MonitoringPolicy

        monitoring, events = service_with(
            [
                MonitoringPolicy(
                    name="amount-cap",
                    events=("message.request",),
                    conditions=(MessageCondition("amount", "lte", "1000"),),
                    classify_as=FaultCode.SERVICE_FAILURE,
                    emits=("order.rejected",),
                )
            ]
        )
        fault = monitoring.check_message("request", envelope(amount=5000), POINT)
        assert fault is not None and fault.code is FaultCode.SERVICE_FAILURE
        assert [e.name for e in events] == ["order.rejected"]
        assert events[0].context["violated_policy"] == "amount-cap"
        assert events[0].fault is fault


class TestReplaceExecutedValidation:
    """Satellite 3: replacing an executed activity re-runs it out of order."""

    def test_replace_of_executed_activity_rejected(self, env, engine):
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(1.5)  # part1 already executed
            instance.suspend()
            modifier = ProcessModifier(instance)
            modifier.replace("part1", Empty("renamed-part1"))
            with pytest.raises(ModificationError, match="cannot replace executed"):
                modifier.apply()
            instance.resume()

        env.process(meddler())
        engine.run_to_completion(instance)

    def test_same_name_replacement_of_executed_allowed(self, env, engine):
        instance = engine.start(three_step_definition())

        def meddler():
            yield env.timeout(1.5)
            instance.suspend()
            modifier = ProcessModifier(instance)
            modifier.replace("part1", Empty("part1"))
            modifier.apply()
            instance.resume()

        env.process(meddler())
        assert engine.run_to_completion(instance) == 2


# ---------------------------------------------------------------------------
# Saga crash recovery: kill at every boundary, incl. mid-compensation
# ---------------------------------------------------------------------------


class TestSagaCrashRecovery:
    """The saga compositions swept over *every* activity boundary.

    Both case-study sagas abort after the payment/trade step, so the
    later kill points land inside the compensation chain — a crash
    mid-compensation must rehydrate and finish the remaining
    compensation steps exactly once, matching an uninterrupted
    same-seed run that aborts at the same point.
    """

    @pytest.mark.parametrize("process", ["scm-saga", "trading-saga"])
    def test_equivalent_at_every_boundary(self, process):
        from repro.experiments import count_crash_boundaries, run_crash_recovery

        boundaries = count_crash_boundaries(process, seed=5)
        assert boundaries >= 8, "saga sweep should cover compensation steps too"
        for crash_after in range(1, boundaries + 1):
            result = run_crash_recovery(
                process=process, seed=5, crash_after_completions=crash_after
            )
            assert result.equivalent, (
                f"{process} crash after {crash_after}: {result.divergences}"
            )

    @pytest.mark.parametrize("process", ["scm-saga", "trading-saga"])
    def test_journal_replay_matches_checkpoints_at_every_boundary(
        self, process, tmp_path
    ):
        from repro.experiments import count_crash_boundaries, run_crash_recovery
        from repro.persistence import verify_journal

        boundaries = count_crash_boundaries(process, seed=3)
        for crash_after in range(1, boundaries + 1):
            path = tmp_path / f"{process}-{crash_after}.jsonl"
            result = run_crash_recovery(
                process=process, seed=3, crash_after_completions=crash_after,
                store_path=path,
            )
            assert result.equivalent, result.divergences
            divergences = verify_journal(CheckpointStore(path))
            assert not divergences, (
                f"{process} crash after {crash_after}: journal-derived snapshots "
                f"diverge: {divergences}"
            )

    def test_replay_of_a_malformed_tree_names_the_record_and_exits_2(
        self, tmp_path, capsys
    ):
        """A journal file is outside input: a tree the strict reader rejects
        is one line on stderr with the record's ``seq``, not a traceback."""
        from repro.cli import main
        from repro.experiments import run_crash_recovery

        path = tmp_path / "journal.jsonl"
        run_crash_recovery(
            process="scm-saga", seed=3, crash_after_completions=3, store_path=path
        )
        assert main(["replay", str(path), "--verify"]) == 0
        damaged = tmp_path / "damaged.jsonl"
        # The typo used to parse, leaving every Invoke without a deadline.
        damaged.write_text(
            path.read_text(encoding="utf-8").replace("timeoutSeconds", "timeoutSecond"),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["replay", str(damaged), "--at", "20"]) == 2
        assert capsys.readouterr().err == (
            f"{damaged}: record seq=1: Invoke 'get-catalog' has an undeclared "
            "attribute 'timeoutSecond'\n"
        )

    def test_verify_parses_every_tree_and_names_a_malformed_one(self, tmp_path, capsys):
        """Regression: ``--verify`` compared tree texts only, so a tree the
        strict reader rejects passed as long as every record repeated it."""
        from repro.cli import main
        from repro.experiments import run_crash_recovery
        from repro.persistence import verify_journal

        path = tmp_path / "journal.jsonl"
        run_crash_recovery(
            process="scm-saga", seed=3, crash_after_completions=3, store_path=path
        )
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text(
            path.read_text(encoding="utf-8").replace("timeoutSeconds", "timeoutSecond"),
            encoding="utf-8",
        )
        divergences = verify_journal(CheckpointStore(damaged))
        assert divergences
        assert {entry["field"] for entry in divergences} == {"tree"}
        assert divergences[0]["seq"] == 1
        assert divergences[0]["detail"] == (
            "malformed tree: Invoke 'get-catalog' has an undeclared attribute "
            "'timeoutSecond'"
        )
        capsys.readouterr()
        assert main(["replay", str(damaged), "--verify"]) == 1
        assert "seq=1 field=tree: malformed tree: Invoke 'get-catalog'" in (
            capsys.readouterr().out
        )

    def test_a_tree_that_is_not_xml_is_a_journal_error(self):
        from repro.orchestration import serialize_activity
        from repro.persistence import DerivedState, JournalError

        text = serialize_activity(Sequence("main", [Empty("a")]))
        state = DerivedState("p-1", tree=text[: len(text) // 2], tree_seq=4)
        with pytest.raises(JournalError, match="record seq=4: malformed XML"):
            state.root()

    def test_malformed_journaled_operation_names_its_own_record(self):
        from repro.orchestration import serialize_activity
        from repro.persistence import DerivedState, JournalError, apply_event

        state = DerivedState("p-1", tree=serialize_activity(Sequence("main", [Empty("a")])))
        operation = {
            "kind": "insert_after",
            "anchor": "a",
            "activity": serialize_activity(Empty("b")).replace("name=", "nam="),
        }
        record = {
            "seq": 9,
            "time": 0.0,
            "event": "modification_applied",
            "data": {"operations": [operation], "bindings": {}},
        }
        with pytest.raises(JournalError, match="record seq=9: Empty '' has an undeclared"):
            apply_event(state, record)


# ---------------------------------------------------------------------------
# Store hardening: truncated trailing record, fsync
# ---------------------------------------------------------------------------


class TestStoreHardening:
    def populated_store(self, path):
        store = CheckpointStore(path)
        store.append({"type": CHECKPOINT, "instance_id": "p-1", "status": "running"})
        store.append({"type": CHECKPOINT, "instance_id": "p-1", "status": "completed"})
        return store

    def test_truncated_trailing_line_dropped_with_warning(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self.populated_store(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "checkpoint", "instance_id": "p-1", "stat')
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            reloaded = CheckpointStore(path)
        assert len(reloaded.records()) == 2
        # Appending after the drop continues the sequence cleanly.
        record = reloaded.append({"type": MODIFICATION, "instance_id": "p-1"})
        assert record["seq"] == 3

    def test_corruption_before_the_tail_still_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self.populated_store(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:20]  # damage the *first* record
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(Exception):
            CheckpointStore(path)

    def test_fsync_flag_persists_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = CheckpointStore(path, fsync=True)
        store.append({"type": CHECKPOINT, "instance_id": "p-1", "status": "running"})
        assert len(CheckpointStore(path).records()) == 1
