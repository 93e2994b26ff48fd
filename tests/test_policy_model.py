"""Unit tests for the policy model: scopes, triggers, actions, values."""

import pytest

from repro.policy import (
    AdaptationPolicy,
    AddActivityAction,
    BusinessValue,
    ConcurrentInvokeAction,
    ExtendTimeoutAction,
    InvokeSpec,
    MonitoringPolicy,
    PolicyDocument,
    PolicyError,
    PolicyScope,
    RetryAction,
    SkipAction,
    SubstituteAction,
)
from repro.policy.actions import ActionError
from repro.policy.assertions import MessageCondition, QoSThreshold
from repro.soap import FaultCode, SoapEnvelope
from repro.xmlutils import Element


class TestPolicyScope:
    def test_empty_scope_matches_anything(self):
        assert PolicyScope().matches(service_type="X", operation="y")

    def test_exact_match(self):
        scope = PolicyScope(service_type="Retailer", operation="getCatalog")
        assert scope.matches(service_type="Retailer", operation="getCatalog")
        assert not scope.matches(service_type="Retailer", operation="submitOrder")

    def test_missing_subject_field_fails_constrained_scope(self):
        scope = PolicyScope(endpoint="http://a")
        assert not scope.matches(service_type="Retailer")

    def test_glob_patterns(self):
        scope = PolicyScope(endpoint="http://scm/retailer*")
        assert scope.matches(endpoint="http://scm/retailerA")
        assert not scope.matches(endpoint="http://scm/warehouse")

    def test_describe(self):
        assert PolicyScope().describe() == "any"
        assert "serviceType=Retailer" in PolicyScope(service_type="Retailer").describe()


class TestMonitoringPolicy:
    def test_requires_events(self):
        with pytest.raises(PolicyError):
            MonitoringPolicy(name="m", events=())

    def test_trigger_matching_with_wildcards(self):
        policy = MonitoringPolicy(name="m", events=("message.*",))
        assert policy.triggered_by("message.request")
        assert not policy.triggered_by("fault.Timeout")

    def test_condition_compiled_at_load(self):
        with pytest.raises(Exception):
            MonitoringPolicy(name="m", events=("e",), condition="not valid ++")

    def test_malformed_extract_xpath_rejected_at_construction(self):
        """Not at the first message through a VEP in the policy's scope."""
        with pytest.raises(PolicyError) as raised:
            MonitoringPolicy(name="watch", events=("e",), extract={"x": "//a["})
        message = str(raised.value)
        assert "'watch'" in message and "'x'" in message and "'//a['" in message

    def test_condition_evaluation(self):
        policy = MonitoringPolicy(name="m", events=("e",), condition="amount > 100")
        assert policy.condition_holds({"amount": 200})
        assert not policy.condition_holds({"amount": 50})

    def test_failing_condition_means_not_relevant(self):
        policy = MonitoringPolicy(name="m", events=("e",), condition="missing_var > 1")
        assert not policy.condition_holds({})


class TestAdaptationPolicy:
    def _policy(self, **kwargs):
        defaults = dict(
            name="a",
            triggers=("fault.Timeout",),
            actions=(RetryAction(),),
        )
        defaults.update(kwargs)
        return AdaptationPolicy(**defaults)

    def test_requires_actions(self):
        with pytest.raises(PolicyError):
            self._policy(actions=())

    def test_requires_triggers(self):
        with pytest.raises(PolicyError):
            self._policy(triggers=())

    def test_adaptation_type_validated(self):
        with pytest.raises(PolicyError):
            self._policy(adaptation_type="magical")

    def test_layers_derived_from_actions(self):
        policy = self._policy(actions=(RetryAction(), ExtendTimeoutAction()))
        assert policy.layers == {"messaging", "process"}

    def test_fault_wildcard_trigger(self):
        policy = self._policy(triggers=("fault.*",))
        assert policy.triggered_by("fault.ServiceUnavailable")
        assert not policy.triggered_by("message.request")


class TestActions:
    def test_retry_delay_backoff(self):
        action = RetryAction(max_retries=3, delay_seconds=2.0, backoff_multiplier=2.0)
        assert action.delay_for_attempt(1) == 2.0
        assert action.delay_for_attempt(2) == 4.0
        assert action.delay_for_attempt(3) == 8.0

    def test_retry_validation(self):
        with pytest.raises(ActionError):
            RetryAction(max_retries=-1)
        with pytest.raises(ActionError):
            RetryAction(delay_seconds=-1)

    def test_substitute_backup_needs_address(self):
        with pytest.raises(ActionError):
            SubstituteAction(strategy="backup")
        SubstituteAction(strategy="backup", backup_address="http://b")

    def test_substitute_unknown_strategy(self):
        with pytest.raises(ActionError):
            SubstituteAction(strategy="astrology")

    def test_invoke_spec_requires_target(self):
        with pytest.raises(ActionError):
            InvokeSpec(name="x", operation="op")

    def test_invoke_spec_to_activity(self):
        spec = InvokeSpec(
            name="cc",
            operation="convert",
            service_type="CurrencyConversion",
            inputs={"amount": "$amount"},
            outputs={"result": "converted"},
        )
        activity = spec.to_activity()
        assert activity.name == "cc"
        assert activity.service_type == "CurrencyConversion"
        assert activity.extract == {"result": "converted"}

    def test_add_activity_builds_single_invoke(self):
        action = AddActivityAction(
            anchor="place-trade",
            invokes=(InvokeSpec(name="one", operation="op", address="http://x"),),
        )
        assert action.build_activity().name == "one"

    def test_add_activity_builds_block(self):
        action = AddActivityAction(
            anchor="a",
            block_name="variation",
            invokes=(
                InvokeSpec(name="one", operation="op", address="http://x"),
                InvokeSpec(name="two", operation="op", address="http://y"),
            ),
        )
        block = action.build_activity()
        assert block.name == "variation"
        assert [child.name for child in block.children()] == ["one", "two"]

    def test_add_activity_position_validated(self):
        with pytest.raises(ActionError):
            AddActivityAction(
                anchor="a",
                position="sideways",
                invokes=(InvokeSpec(name="x", operation="o", address="http://x"),),
            )

    def test_add_activity_requires_invokes(self):
        with pytest.raises(ActionError):
            AddActivityAction(anchor="a")

    def test_describe_strings(self):
        assert "retry" in RetryAction().describe()
        assert "substitute" in SubstituteAction().describe()
        assert "first response wins" in ConcurrentInvokeAction().describe()
        assert "skip" in SkipAction().describe()


class TestAssertions:
    def _envelope(self, **parts):
        body = Element("orderRequest")
        for key, value in parts.items():
            body.add(key, text=str(value))
        return SoapEnvelope(body=body)

    def test_message_condition_operators(self):
        envelope = self._envelope(country="US", amount=500)
        assert MessageCondition("country", "ne", "AU").evaluate(envelope)
        assert MessageCondition("country", "eq", "US").evaluate(envelope)
        assert MessageCondition("amount", "gte", "500").evaluate(envelope)
        assert not MessageCondition("amount", "gt", "500").evaluate(envelope)
        assert MessageCondition("country", "contains", "S").evaluate(envelope)
        assert MessageCondition("country", "matches", "^U").evaluate(envelope)

    def test_exists_and_absent(self):
        envelope = self._envelope(country="US")
        assert MessageCondition("country", "exists").evaluate(envelope)
        assert MessageCondition("ghost", "absent").evaluate(envelope)
        assert not MessageCondition("ghost", "exists").evaluate(envelope)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            MessageCondition("x", "approximately")

    def test_non_numeric_comparison_is_false(self):
        envelope = self._envelope(country="US")
        assert not MessageCondition("country", "gt", "5").evaluate(envelope)

    def test_fault_envelope_body_absent(self):
        from repro.soap import SoapFault

        envelope = SoapEnvelope(fault=SoapFault(FaultCode.SERVER, "x"))
        assert MessageCondition("anything", "absent").evaluate(envelope)
        assert not MessageCondition("anything", "exists").evaluate(envelope)

    def test_qos_threshold_holds(self):
        threshold = QoSThreshold("response_time", "lte", 1.5)
        assert threshold.holds(1.0)
        assert not threshold.holds(2.0)
        assert threshold.holds(None)  # no data yet

    def test_qos_threshold_validation(self):
        with pytest.raises(ValueError):
            QoSThreshold("response_time", "eq", 1.0)
        with pytest.raises(ValueError):
            QoSThreshold("response_time", "lte", 1.0, aggregate="median")


class TestBusinessValue:
    def test_describe_signs(self):
        assert BusinessValue(5.0, "AUD").describe().startswith("+5.0")
        assert BusinessValue(-2.0, "AUD", "fee").describe() == "-2.0 AUD (fee)"

    def test_document_len_and_names(self):
        document = PolicyDocument("d")
        document.monitoring_policies.append(MonitoringPolicy(name="m", events=("e",)))
        document.adaptation_policies.append(
            AdaptationPolicy(name="a", triggers=("e",), actions=(RetryAction(),))
        )
        assert len(document) == 2
        assert document.policy_names() == ["m", "a"]
