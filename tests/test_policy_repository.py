"""Unit tests for the policy repository, validation and parser."""

import ast
from pathlib import Path

import pytest

from repro.orchestration import Empty, ProcessDefinition, Sequence
from repro.policy import (
    AdaptationPolicy,
    AddActivityAction,
    BusinessValue,
    InvokeSpec,
    MonitoringPolicy,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    PolicyValidationError,
    RemoveActivityAction,
    RetryAction,
    serialize_policy_document,
    validate_document,
)
from repro.core import MASCPolicyParser


def document_with(name="doc", policies=None, monitoring=None):
    document = PolicyDocument(name)
    document.adaptation_policies.extend(policies or [])
    document.monitoring_policies.extend(monitoring or [])
    return document


def simple_policy(name, priority=100, triggers=("fault.Timeout",), **kwargs):
    return AdaptationPolicy(
        name=name, triggers=triggers, actions=(RetryAction(),), priority=priority, **kwargs
    )


class TestRepositoryLookup:
    def test_priority_ordering(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[
                    simple_policy("later", priority=50),
                    simple_policy("first", priority=1),
                ]
            )
        )
        names = [p.name for p in repo.adaptation_policies_for("fault.Timeout")]
        assert names == ["first", "later"]

    def test_name_breaks_priority_ties(self):
        repo = PolicyRepository()
        repo.load(document_with(policies=[simple_policy("zeta"), simple_policy("alpha")]))
        names = [p.name for p in repo.adaptation_policies_for("fault.Timeout")]
        assert names == ["alpha", "zeta"]

    def test_scope_filtering(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[
                    simple_policy("retailers", scope=PolicyScope(service_type="Retailer")),
                    simple_policy("everything"),
                ]
            )
        )
        matched = repo.adaptation_policies_for("fault.Timeout", service_type="Warehouse")
        assert [p.name for p in matched] == ["everything"]

    def test_event_filtering(self):
        repo = PolicyRepository()
        repo.load(document_with(policies=[simple_policy("p", triggers=("fault.Timeout",))]))
        assert repo.adaptation_policies_for("fault.ServiceUnavailable") == []

    def test_hot_reload_replaces_document(self):
        repo = PolicyRepository()
        repo.load(document_with(name="d", policies=[simple_policy("old")]))
        repo.load(document_with(name="d", policies=[simple_policy("new")]))
        assert [p.name for p in repo.adaptation_policies()] == ["new"]

    def test_unload(self):
        repo = PolicyRepository()
        repo.load(document_with(name="d", policies=[simple_policy("p")]))
        repo.unload("d")
        assert repo.adaptation_policies() == []

    def test_find_policy_by_name(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[simple_policy("a")],
                monitoring=[MonitoringPolicy(name="m", events=("e",))],
            )
        )
        assert repo.find_policy("a").name == "a"
        assert repo.find_policy("m").name == "m"
        assert repo.find_policy("ghost") is None

    def test_load_xml(self):
        repo = PolicyRepository()
        xml = serialize_policy_document(document_with(name="x", policies=[simple_policy("p")]))
        repo.load_xml(xml)
        assert repo.find_policy("p") is not None


class TestStatesAndLedger:
    def test_default_state(self):
        assert PolicyRepository().state_of("endpoint:x") == "normal"

    def test_state_gating_and_transition(self):
        repo = PolicyRepository()
        policy = simple_policy("p", state_before="normal", state_after="recovering")
        assert repo.check_state(policy, "endpoint:x")
        repo.transition(policy, "endpoint:x")
        assert repo.state_of("endpoint:x") == "recovering"
        assert not repo.check_state(policy, "endpoint:x")

    def test_no_state_requirement_always_passes(self):
        repo = PolicyRepository()
        repo.set_state("k", "weird")
        assert repo.check_state(simple_policy("p"), "k")

    def test_ledger_accumulates_by_currency(self):
        repo = PolicyRepository()
        repo.record_business_value(
            1.0, simple_policy("a", business_value=BusinessValue(5.0, "AUD")), "s"
        )
        repo.record_business_value(
            2.0, simple_policy("b", business_value=BusinessValue(-2.0, "AUD")), "s"
        )
        repo.record_business_value(
            3.0, simple_policy("c", business_value=BusinessValue(1.0, "USD")), "s"
        )
        assert repo.business_totals() == {"AUD": 3.0, "USD": 1.0}

    def test_policy_without_value_not_recorded(self):
        repo = PolicyRepository()
        repo.record_business_value(1.0, simple_policy("a"), "s")
        assert repo.ledger == []


def two_step(first_priority=1, second_priority=2):
    """p1 takes the subject ``normal -> recovering``; p2 requires ``recovering``."""
    return document_with(
        policies=[
            simple_policy(
                "p1",
                priority=first_priority,
                state_before="normal",
                state_after="recovering",
                business_value=BusinessValue(-1.0),
            ),
            simple_policy(
                "p2",
                priority=second_priority,
                state_before="recovering",
                state_after="done",
                business_value=BusinessValue(-2.0),
            ),
        ]
    )


class TestMatcher:
    """``applicable``/``rejection``/``applied``: the one interpreter of an
    adaptation policy's guard and accounting clauses."""

    def test_priority_then_name_order(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[
                    simple_policy("zeta", priority=5),
                    simple_policy("alpha", priority=5),
                    simple_policy("first", priority=1),
                    simple_policy("other-event", priority=0, triggers=("fault.Other",)),
                    simple_policy("other-scope", priority=0, scope=PolicyScope(endpoint="http://b")),
                ]
            )
        )
        names = [
            policy.name
            for policy in repo.applicable("fault.Timeout", "endpoint:http://a", {}, endpoint="http://a")
        ]
        assert names == ["first", "alpha", "zeta"]

    def test_pre_state_is_checked_when_the_policys_turn_comes(self):
        repo = PolicyRepository()
        repo.load(two_step())
        applied = []
        for policy in repo.applicable("fault.Timeout", "k", {}):
            repo.applied(policy, "k", 1.0)
            applied.append(policy.name)
        assert applied == ["p1", "p2"]
        assert repo.state_of("k") == "done"
        assert [entry.policy_name for entry in repo.ledger] == ["p1", "p2"]

    def test_with_the_priorities_swapped_only_one_is_yielded(self):
        repo = PolicyRepository()
        repo.load(two_step(first_priority=2, second_priority=1))
        applied = []
        for policy in repo.applicable("fault.Timeout", "k", {}):
            repo.applied(policy, "k", 1.0)
            applied.append(policy.name)
        assert applied == ["p1"]
        assert repo.state_of("k") == "recovering"

    def test_without_accounting_the_next_policy_sees_the_old_state(self):
        repo = PolicyRepository()
        repo.load(two_step())
        assert [p.name for p in repo.applicable("fault.Timeout", "k", {})] == ["p1"]

    def test_a_raising_condition_means_not_relevant(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[
                    simple_policy("raises", condition="undefined_name > 1"),
                    simple_policy("type-error", condition="amount > 'x'"),
                    simple_policy("holds", condition="amount > 1"),
                ]
            )
        )
        context = {"amount": 5}
        assert [p.name for p in repo.applicable("fault.Timeout", "k", context)] == ["holds"]
        assert repo.rejection(repo.find_policy("raises"), context, "k") == (
            "condition not satisfied"
        )

    def test_rejection_texts(self):
        repo = PolicyRepository()
        gated = simple_policy("gated", condition="amount > 1", state_before="recovering")
        assert repo.rejection(gated, {"amount": 0}, "k") == "condition not satisfied"
        assert repo.rejection(gated, {"amount": 5}, "k") == (
            "subject in state 'normal', policy requires 'recovering'"
        )
        repo.set_state("k", "recovering")
        assert repo.rejection(gated, {"amount": 5}, "k") is None
        assert repo.rejection(simple_policy("open"), {}, "anything") is None

    def test_applied_transitions_only_with_a_post_state(self):
        repo = PolicyRepository()
        repo.set_state("k", "odd")
        repo.applied(simple_policy("stateless"), "k", 1.0)
        assert repo.state_of("k") == "odd"
        repo.applied(simple_policy("stateful", state_after="fixed"), "k", 2.0)
        assert repo.state_of("k") == "fixed"
        assert repo.ledger == []

    def test_applied_books_only_with_a_business_value(self):
        repo = PolicyRepository()
        repo.applied(simple_policy("free"), "k", 1.0)
        repo.applied(simple_policy("paid", business_value=BusinessValue(-3.0, "AUD")), "k", 2.0)
        (entry,) = repo.ledger
        assert (entry.time, entry.policy_name, entry.subject) == (2.0, "paid", "k")
        assert repo.business_totals() == {"AUD": -3.0}


class TestOneEvaluationPath:
    """Each clause of policy evaluation has one implementation under
    ``src/``; the decision sites and monitoring services call it."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

    @classmethod
    def trees(cls):
        for path in sorted(cls.SRC.rglob("*.py")):
            yield path.relative_to(cls.SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))

    def test_guard_and_accounting_primitives_are_called_in_the_repository_only(self):
        primitives = {"check_state", "transition", "record_business_value"}
        callers = {
            (module, node.func.attr)
            for module, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in primitives
        }
        assert {module for module, _ in callers} == {"policy/repository.py"}
        assert {name for _, name in callers} == primitives

    def test_relevance_conditions_are_evaluated_by_the_policy_package_only(self):
        callers = {
            module
            for module, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "condition_holds"
        }
        assert callers == {"policy/model.py", "policy/repository.py"}

    def test_qos_thresholds_are_iterated_in_one_function(self):
        loops = [
            (module, function.name)
            for module, tree in self.trees()
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Attribute)
            and node.iter.attr == "qos_thresholds"
        ]
        assert loops == [("policy/model.py", "_breaches")]

    def test_no_private_xpath_cache_and_one_coercion_helper(self):
        attributes = [
            module
            for module, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_xpath_cache"
        ]
        assert attributes == []
        coercions = [
            (module, node.name)
            for module, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and "coerce" in node.name
        ]
        assert coercions == [("xmlutils/xpath.py", "coerce_text")]


class TestValidation:
    def test_duplicate_names_error(self):
        document = document_with(policies=[simple_policy("dup"), simple_policy("dup")])
        with pytest.raises(PolicyValidationError):
            validate_document(document)

    def test_anchor_checked_against_process(self):
        process = ProcessDefinition("p", Sequence("main", [Empty("real")]))
        document = document_with(
            policies=[
                AdaptationPolicy(
                    name="a",
                    triggers=("e",),
                    actions=(
                        AddActivityAction(
                            anchor="ghost",
                            invokes=(InvokeSpec(name="x", operation="o", address="http://x"),),
                        ),
                    ),
                )
            ]
        )
        with pytest.raises(PolicyValidationError):
            validate_document(document, process=process)

    def test_remove_target_checked(self):
        process = ProcessDefinition("p", Sequence("main", [Empty("real")]))
        document = document_with(
            policies=[
                AdaptationPolicy(
                    name="a",
                    triggers=("e",),
                    actions=(RemoveActivityAction(target="ghost"),),
                )
            ]
        )
        with pytest.raises(PolicyValidationError):
            validate_document(document, process=process)

    def test_unknown_service_type_error(self):
        document = document_with(
            policies=[
                AdaptationPolicy(
                    name="a",
                    triggers=("e",),
                    actions=(
                        AddActivityAction(
                            anchor="x",
                            invokes=(InvokeSpec(name="i", operation="o", service_type="Ghost"),),
                        ),
                    ),
                )
            ]
        )
        with pytest.raises(PolicyValidationError):
            validate_document(document, known_service_types={"Retailer"})

    def test_priority_tie_warning(self):
        document = document_with(
            policies=[simple_policy("a", priority=5), simple_policy("b", priority=5)]
        )
        issues = validate_document(document)
        assert any("shares trigger" in issue.message for issue in issues)

    def test_noop_state_transition_warning(self):
        document = document_with(
            policies=[simple_policy("a", state_before="s", state_after="s")]
        )
        issues = validate_document(document)
        assert any("no-op" in issue.message for issue in issues)

    def test_ineffective_monitoring_warning(self):
        document = document_with(monitoring=[MonitoringPolicy(name="m", events=("e",))])
        issues = validate_document(document)
        assert any("no observable effect" in issue.message for issue in issues)

    def test_configuration_assertion_without_its_trigger_warns(self):
        from repro.policy import CircuitBreakerAction, ResponseCacheAction, SloAction

        inert = AdaptationPolicy(
            "inert", ("fault.Timeout",), (SloAction(), ResponseCacheAction(), CircuitBreakerAction())
        )
        read = AdaptationPolicy("read", ("observability.slo", "traffic.configure"), inert.actions[:2])
        issues = validate_document(document_with(policies=[inert, read]))
        warnings = [issue.message for issue in issues if issue.policy_name == "inert"]
        # Resilience assertions stay legal under fault triggers (the
        # Adaptation Manager enacts them); the other two are never read.
        assert len(warnings) == 2
        assert any("Slo" in w and "'observability.slo'" in w for w in warnings)
        assert any("ResponseCache" in w and "'traffic.configure'" in w for w in warnings)
        assert not [issue for issue in issues if issue.policy_name == "read"]

    def test_clean_document_no_issues(self):
        document = document_with(policies=[simple_policy("a")])
        assert validate_document(document) == []


class TestParser:
    def test_import_xml_validates(self):
        repo = PolicyRepository()
        parser = MASCPolicyParser(repo)
        document = document_with(name="d", policies=[simple_policy("dup"), simple_policy("dup")])
        with pytest.raises(PolicyValidationError):
            parser.import_xml(serialize_policy_document(document))

    def test_import_file_caches_by_mtime(self, tmp_path):
        repo = PolicyRepository()
        parser = MASCPolicyParser(repo)
        path = tmp_path / "policies.xml"
        path.write_text(
            serialize_policy_document(document_with(name="d", policies=[simple_policy("p")]))
        )
        assert parser.import_file(path) is not None
        assert parser.import_file(path) is None  # unchanged: not re-parsed
        assert parser.parse_count == 1

    def test_import_directory(self, tmp_path):
        repo = PolicyRepository()
        parser = MASCPolicyParser(repo)
        for index in range(3):
            (tmp_path / f"doc{index}.xml").write_text(
                serialize_policy_document(
                    document_with(name=f"d{index}", policies=[simple_policy(f"p{index}")])
                )
            )
        assert len(parser.import_directory(tmp_path)) == 3
        assert len(repo.adaptation_policies()) == 3
