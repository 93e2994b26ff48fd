"""Change-proportional dehydration keeps every stored byte.

``capture_checkpoint`` serialises an instance tree once per
``tree_revision`` and reuses the text, instances that share a definition
and a modification history share one text, ``Activity.copy`` is a
structural clone, and each boundary encodes its state once. None of that
may show in a ``CheckpointStore``: these tests compare the fast paths
against the slow ones they replaced (a fresh ``serialize_activity``,
``copy.deepcopy``) and pin whole stores to digests recorded before the
change.
"""

import copy
import gc
import hashlib
import json
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies.scm import build_scm_deployment
from repro.casestudies.scm.process import build_scm_saga_process
from repro.casestudies.stocktrading import (
    ORDER_PROFILES,
    build_trading_deployment,
    customization_policy_documents,
)
from repro.experiments import count_crash_boundaries, run_crash_recovery
from repro.faultinjection import ProcessCrashInjector
from repro.orchestration import (
    Activity,
    Assign,
    Compensate,
    CompensationScope,
    Delay,
    Empty,
    Expression,
    Flow,
    IfElse,
    Invoke,
    ModificationError,
    ProcessDefinition,
    ProcessModifier,
    Receive,
    Reply,
    RuntimeService,
    Scope,
    Sequence,
    Terminate,
    Throw,
    While,
    WorkflowEngine,
    serialize_activity,
)
from repro.orchestration.instance import InstanceStatus
from repro.persistence import (
    CHECKPOINT,
    EVENT,
    CheckpointStore,
    CheckpointingService,
    verify_journal,
)
from repro.persistence import checkpoint as checkpoint_module
from repro.policy import serialize_policy_document
from repro.simulation import Environment, RandomSource
from repro.soap import FaultCode
from repro.transport import Network
from test_property_process_xml import _Namer, activity_tree, leaf_activity

# ---------------------------------------------------------------------------
# Seeded runs shared by the oracle and the golden digests
# ---------------------------------------------------------------------------

def customized_trading_deployment(seed):
    """A trading deployment with the four customization policies loaded and
    strict checkpointing into a fresh in-memory store."""
    deployment = build_trading_deployment(seed=seed)
    for document in customization_policy_documents():
        deployment.masc.load_policies(serialize_policy_document(document))
    store = CheckpointStore()
    deployment.engine.add_service(CheckpointingService(store, strict=True))
    return deployment, store


def run_customized_orders(deployment):
    """Two waves of the six order profiles, each wave run concurrently."""
    for wave in range(2):
        batch = [
            deployment.place_order(investor_id=f"investor-{wave}-{index}", **profile)
            for index, profile in enumerate(ORDER_PROFILES.values())
        ]
        deployment.env.run(deployment.env.all_of([i.process for i in batch]))
        assert all(i.status is InstanceStatus.COMPLETED for i in batch)


def scm_saga_store(seed):
    """The SCM cancel-order saga, crashed mid-compensation and recovered."""
    deployment = build_scm_deployment(seed=seed, log_events=False)
    env = deployment.env
    definition = build_scm_saga_process(
        deployment.retailers["C"].address, deployment.logging.address, abort=True
    )
    store = CheckpointStore()
    doomed_engine = WorkflowEngine(env, network=deployment.network)
    doomed_engine.add_service(CheckpointingService(store, strict=True))
    injector = doomed_engine.add_service(ProcessCrashInjector(env, 6))
    doomed = doomed_engine.start(definition)
    env.run(until=injector.crashed_event)
    recovery_engine = WorkflowEngine(env, network=deployment.network)
    recovery_engine.add_service(CheckpointingService(store, strict=True))
    recovered = recovery_engine.rehydrate(store, doomed.id)
    env.run(recovered.process)
    assert recovered.status is InstanceStatus.COMPLETED
    return store


def store_digest(store):
    return hashlib.sha256(
        json.dumps(store.records(), sort_keys=True).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# Golden digests: "byte-identical records" as a test
# ---------------------------------------------------------------------------


class TestGoldenStoreDigest:
    """SHA-256 of whole stores, recorded on the commit before the memo,
    the structural clone and the single encoding landed."""

    def test_customized_trading_run(self):
        deployment, store = customized_trading_deployment(seed=7)
        run_customized_orders(deployment)
        assert len(store) == 518
        assert store_digest(store) == (
            "f1bb577157100679fc70d8b9ba5d334c1c39914c9e06215a92aca65b11bbbcf1"
        )

    def test_scm_saga_crash_recovery_run(self):
        store = scm_saga_store(seed=3)
        gc.collect()  # the dead engine's frozen frames journal nothing
        assert len(store) == 76
        assert store_digest(store) == (
            "0af0963f06f6cebdb54b70f9692ae3c215df88b87bfc133f25b9ab8ed91a9f46"
        )


# ---------------------------------------------------------------------------
# Oracle: the stored tree is the fresh serialisation, at every checkpoint
# ---------------------------------------------------------------------------


def shared_text(instance):
    """The text the cross-instance memo holds for the instance's history,
    or None when the instance has no history (it serialises its own)."""
    history = instance.tree_history
    if history is None or history[0] is not instance.root:
        return None
    root, definition, edits = history
    return checkpoint_module._TREE_TEXTS[definition][edits]


#: The event kinds the checkpointing service writes a checkpoint at.
CHECKPOINTED_KINDS = {
    "activity_completed",
    "instance_suspended",
    "instance_completed",
    "instance_faulted",
    "instance_terminated",
}


class DehydrationOracle(RuntimeService):
    """Checks each checkpoint the moment the service before it wrote it.

    The stored tree must equal a fresh serialisation; an instance with a
    history must hold the very text the shared memo keeps for it, so every
    instance with that history is checked against its own fresh tree.
    """

    def __init__(self, store, journal=True):
        self.store = store
        self.journal = journal
        self.checked = 0
        self.shared = 0

    def on_event(self, event):
        if event.kind not in CHECKPOINTED_KINDS:
            return
        instance = event.instance
        record = self.store.records(instance.id)[-1]
        assert record["type"] == CHECKPOINT
        assert record["tree"] == serialize_activity(instance.root)
        text = shared_text(instance)
        if text is not None:
            assert record["tree"] is text
            self.shared += 1
        if self.journal:
            assert verify_journal(self.store) == []
        self.checked += 1


@pytest.fixture
def oracles(monkeypatch):
    """Attach an oracle right after every CheckpointingService any engine gets."""
    attached = []
    add_service = WorkflowEngine.add_service

    def add_service_and_oracle(engine, service):
        added = add_service(engine, service)
        if isinstance(service, CheckpointingService):
            attached.append(add_service(engine, DehydrationOracle(service.store)))
        return added

    monkeypatch.setattr(WorkflowEngine, "add_service", add_service_and_oracle)
    return attached


class TestDehydrationOracle:
    @pytest.mark.parametrize("process", ["scm", "trading", "scm-saga", "trading-saga"])
    def test_crash_at_every_boundary(self, process, oracles):
        boundaries = count_crash_boundaries(process, seed=5)
        for crash_after in range(1, boundaries + 1):
            result = run_crash_recovery(
                process=process, seed=5, crash_after_completions=crash_after
            )
            assert result.equivalent, result.divergences
        # Every run checkpoints at least each pre-crash boundary.
        assert sum(oracle.checked for oracle in oracles) >= boundaries * (
            boundaries + 1
        ) // 2
        # Started instances check against the shared memo; rehydrated ones
        # have no history and serialise their own trees.
        assert 0 < sum(oracle.shared for oracle in oracles) < sum(
            oracle.checked for oracle in oracles
        )

    def test_customized_trading_run(self):
        # Static customization edits the tree before the checkpointing
        # service reads the same ``instance_created`` event, so the journal's
        # genesis snapshot already holds the edit that
        # ``modification_applied`` then repeats and ``verify_journal`` cannot
        # replay these instances (it could not before this change either):
        # the oracle checks the tree only.
        deployment, store = customized_trading_deployment(seed=11)
        oracle = deployment.engine.add_service(DehydrationOracle(store, journal=False))
        run_customized_orders(deployment)
        assert oracle.checked == len(store.records(record_type=CHECKPOINT))
        assert oracle.shared == oracle.checked
        trees = {record["tree"] for record in store.records(record_type=CHECKPOINT)}
        assert len(trees) > 1, "the profiles must produce differently customized trees"


# ---------------------------------------------------------------------------
# One tree text per (definition, modification history), across instances
# ---------------------------------------------------------------------------


def _stored_trees(store):
    """Every tree text the store holds: checkpoints and genesis events."""
    return [record["tree"] for record in store.records(record_type=CHECKPOINT)] + [
        record["data"]["tree"]
        for record in store.records(record_type=EVENT)
        if record["event"] in ("instance_created", "instance_rehydrated")
    ]


class TestSharedTreeTexts:
    def test_one_checkpoint_serialisation_per_distinct_history(self, monkeypatch):
        calls = []
        serialize = checkpoint_module.serialize_activity

        def counting(activity):
            calls.append(activity)
            return serialize(activity)

        monkeypatch.setattr(checkpoint_module, "serialize_activity", counting)
        deployment, store = customized_trading_deployment(seed=7)
        run_customized_orders(deployment)
        trees = _stored_trees(store)
        assert len(deployment.engine.instances) == 12
        assert len(trees) == 132
        # Twelve instances, eight distinct histories, eight serialisations.
        assert len(calls) == len(set(trees)) == 8

    def test_instances_with_the_same_history_hold_the_same_string(self):
        deployment, store = customized_trading_deployment(seed=7)
        run_customized_orders(deployment)
        trees = _stored_trees(store)
        assert len({id(tree) for tree in trees}) == len(set(trees))
        twins = {}
        for instance in deployment.engine.instances.values():
            twins.setdefault(instance.tree_history[2], []).append(instance)
        assert any(len(group) > 1 for group in twins.values())
        for group in twins.values():
            texts = {id(store.latest_checkpoint(i.id)["tree"]) for i in group}
            assert len(texts) == 1

    def test_a_callable_built_insertion_falls_back_byte_identical(self):
        env = Environment()
        engine = WorkflowEngine(env, network=Network(env, RandomSource(7)))
        store = CheckpointStore()
        service = engine.add_service(CheckpointingService(store))
        definition = ProcessDefinition(
            "p", Sequence("main", [Delay("d1", 1.0), Reply("r", variable="x")])
        )
        edited, plain = engine.start(definition), engine.start(definition)
        modifier = ProcessModifier(edited)
        modifier.insert_after("d1", Assign("computed", "x", expression=_is_positive))
        modifier.apply()
        assert edited.tree_history is None
        # The journal taints the instance, and its fallback checkpoint
        # cannot hold a callable: it is counted, not written.
        assert store.records(edited.id, EVENT)[-1]["event"] == "journal_truncated"
        assert len(service.errors) == 1
        modifier = ProcessModifier(edited)
        modifier.remove("computed")
        modifier.apply()
        assert edited.tree_history is None, "a history, once ended, stays ended"
        for instance in (edited, plain):
            instance.suspend()
            instance.resume()
        ours = store.latest_checkpoint(edited.id)["tree"]
        theirs = store.latest_checkpoint(plain.id)["tree"]
        assert ours == theirs == serialize_activity(definition.root)
        assert ours is not theirs
        assert theirs is shared_text(plain)


# ---------------------------------------------------------------------------
# Property: the memo never serves a stale tree
# ---------------------------------------------------------------------------


def _stage_random_edits(data, modifier, namer):
    """Stage up to three random edits; ones the transient copy rejects are skipped."""
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        anchors = [activity.name for activity in modifier.tree.iter_tree()]
        anchor = data.draw(st.sampled_from(anchors), label="anchor")
        kind = data.draw(
            st.sampled_from(
                ["insert_before", "insert_after", "append_to", "remove", "replace"]
            ),
            label="kind",
        )
        try:
            if kind == "remove":
                modifier.remove(anchor)
            else:
                getattr(modifier, kind)(anchor, data.draw(leaf_activity(namer)))
        except ModificationError:
            pass


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_memoised_tree_always_equals_fresh_serialisation(data):
    env = Environment()
    network = Network(env, RandomSource(42))
    namer = _Namer()
    root = Sequence(
        "root", data.draw(st.lists(activity_tree(namer), min_size=1, max_size=3))
    )
    engine = WorkflowEngine(env, network=network)
    store = CheckpointStore()
    service = engine.add_service(CheckpointingService(store, strict=True))
    # Never run: a created instance that has executed nothing accepts edits
    # without suspension, and suspend/resume writes a checkpoint on demand.
    definition = ProcessDefinition("p", root)
    instance = engine.start(definition)
    # A twin from the same definition receives the same edits: while both
    # histories hold it checkpoints the very same string.
    twin = engine.start(definition)

    def checkpoint_tree(of=instance):
        of.suspend()
        of.resume()
        tree = store.latest_checkpoint(of.id)["tree"]
        assert tree == serialize_activity(of.root)
        return tree

    def restage(modifier, operation):
        if operation.kind == "remove":
            modifier.remove(operation.anchor)
        else:
            getattr(modifier, operation.kind)(operation.anchor, operation.activity)

    last = checkpoint_tree()
    assert checkpoint_tree(twin) is last
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        # Two modifiers staged on the same tree: the second applies onto a
        # tree the first already changed, so it can fail part-way through.
        modifiers = [ProcessModifier(instance) for _ in range(2)]
        twin_modifiers = [ProcessModifier(twin) for _ in range(2)]
        for modifier, twin_modifier in zip(modifiers, twin_modifiers):
            _stage_random_edits(data, modifier, namer)
            for operation in modifier._operations:
                restage(twin_modifier, operation)
        for modifier, twin_modifier in zip(modifiers, twin_modifiers):
            revision = instance.tree_revision
            outcomes = []
            for applying in (modifier, twin_modifier):
                try:
                    applying.apply()
                    outcomes.append(None)
                except ModificationError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            assert instance.tree_revision > revision
            # A failed apply ends the history for good.
            assert (instance.tree_history is None) == (twin.tree_history is None)
            last = checkpoint_tree()
            # No edit in between: the next checkpoint shares the string.
            assert checkpoint_tree() is last
            twins = checkpoint_tree(twin)
            assert twins == last
            assert (twins is last) == (instance.tree_history is not None)

    assert service.errors == []
    engine.crash()
    recovery = WorkflowEngine(env, network=network)
    recovery.add_service(CheckpointingService(store, strict=True))
    recovered = recovery.rehydrate(store, instance.id)
    assert recovered.tree_revision == 0
    assert recovered.tree_history is None
    genesis = store.records(instance.id)[-1]
    assert genesis["event"] == "instance_rehydrated"
    assert genesis["data"]["tree"] == last == serialize_activity(recovered.root)
    assert genesis["data"]["tree"] is not last, "a rehydrated instance starts cold"


# ---------------------------------------------------------------------------
# Clone oracle: Activity.copy() against copy.deepcopy
# ---------------------------------------------------------------------------


def _is_positive(variables):
    return variables.get("x", 0) > 0


def _build_request(variables):  # pragma: no cover - never invoked
    raise AssertionError


def _declarative_activities():
    return [
        Empty("empty"),
        Assign("assign", "x", expression="x + 1"),
        Assign("assign-expr", "x", expression=Expression("x * 2")),
        Delay("delay", 1.5),
        Delay("delay-expr", "x + 1"),
        Receive("receive", "request"),
        Reply("reply-var", variable="x"),
        Reply("reply-expr", expression="x + 1"),
        Throw("throw", FaultCode.SERVER, "boom"),
        Terminate("terminate", "stop"),
        Compensate("compensate", scope="saga"),
        Invoke(
            "invoke",
            operation="echo",
            to="http://echo",
            inputs={"text": "$x", "n": 3, "sum": Expression("x + 1")},
            extract={"y": "text"},
        ),
        Sequence("sequence", [Empty("s1"), Empty("s2")]),
        Flow("flow", [Empty("f1"), Empty("f2")]),
        IfElse("if", "x > 0", then=Empty("then"), orelse=Empty("orelse")),
        IfElse("if-no-else", Expression("x > 0"), then=Empty("only-then")),
        While("while", "x < 3", body=Assign("inc", "x", expression="x + 1")),
        Scope(
            "scope",
            body=Sequence("scope-body", [Empty("b1")]),
            fault_handlers={None: Empty("catch-all"), FaultCode.TIMEOUT: Empty("on-timeout")},
            compensation=Empty("undo"),
            timeout_seconds=5.0,
            compensate_on_fault=True,
        ),
        CompensationScope(
            "saga",
            body=Sequence("saga-body", [Empty("step1"), Empty("step2")]),
            compensations={"step1": Empty("undo1"), "step2": Empty("undo2")},
            fault_handlers={None: Empty("saga-handler")},
            compensation=Empty("saga-undo"),
        ),
    ]


def _callable_activities():
    return [
        Assign("assign-callable", "x", expression=_is_positive),
        Assign("assign-literal", "x", value=[1, 2]),
        Reply("reply-callable", expression=_is_positive),
        IfElse("if-callable", _is_positive, then=Empty("c-then")),
        While("while-callable", _is_positive, body=Empty("c-body")),
        Invoke(
            "invoke-builder",
            operation="echo",
            service_type="Echo",
            input_builder=_build_request,
            inputs={"n": _is_positive},
        ),
    ]


def _shape(value):
    """A comparable structural walk of an activity (sub)tree."""
    if isinstance(value, Activity):
        return type(value).__name__, {k: _shape(v) for k, v in vars(value).items()}
    if isinstance(value, Expression):
        return "Expression", value.source
    if isinstance(value, types.MethodType):
        return "method", value.__func__.__qualname__, _shape(value.__self__)
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_shape(item) for item in value]
    return value  # literals by equality; plain functions by identity


def _containers(activity):
    return [value for value in vars(activity).values() if isinstance(value, (list, dict))]


class TestStructuralClone:
    @pytest.mark.parametrize(
        "activity",
        _declarative_activities() + _callable_activities(),
        ids=lambda activity: activity.name,
    )
    def test_clone_equals_deepcopy_and_shares_no_structure(self, activity):
        clone = activity.copy()
        assert type(clone) is type(activity)
        assert _shape(clone) == _shape(copy.deepcopy(activity)) == _shape(activity)
        originals = list(activity.iter_tree())
        clones = list(clone.iter_tree())
        assert [node.name for node in clones] == [node.name for node in originals]
        for original, cloned in zip(originals, clones):
            assert cloned is not original
            for ours, theirs in zip(_containers(cloned), _containers(original)):
                assert ours is not theirs

    @pytest.mark.parametrize(
        "activity", _declarative_activities(), ids=lambda activity: activity.name
    )
    def test_clone_serialises_like_deepcopy(self, activity):
        text = serialize_activity(activity)
        assert serialize_activity(activity.copy()) == text
        assert serialize_activity(copy.deepcopy(activity)) == text

    def test_mutating_the_clone_leaves_the_original_untouched(self):
        originals = {activity.name: activity for activity in _declarative_activities()}
        before = {name: serialize_activity(a) for name, a in originals.items()}
        clones = {name: activity.copy() for name, activity in originals.items()}

        clones["sequence"].activities.append(Empty("extra"))
        clones["flow"].activities.pop()
        clones["invoke"].inputs["more"] = 1
        clones["invoke"].extract["z"] = "text"
        clones["if"].then = Empty("other-then")
        clones["if"].orelse.name = "renamed-orelse"
        clones["while"].body.variable = "y"
        clones["scope"].body.activities.append(Empty("b2"))
        clones["scope"].fault_handlers[FaultCode.SERVER] = Empty("on-server")
        clones["scope"].fault_handlers[None].name = "renamed-catch-all"
        clones["scope"].compensation.name = "renamed-undo"
        clones["saga"].compensations["step3"] = Empty("undo3")
        clones["saga"].compensations["step1"].name = "renamed-undo1"
        clones["saga"].body.activities.clear()

        for name, activity in originals.items():
            assert serialize_activity(activity) == before[name]
        for name in ("sequence", "flow", "invoke", "if", "while", "scope", "saga"):
            assert serialize_activity(clones[name]) != before[name]
