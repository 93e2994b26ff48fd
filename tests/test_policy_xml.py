"""Unit tests for WS-Policy4MASC XML serialization and parsing."""

import pytest

from repro.policy import (
    ActionError,
    AdaptationPolicy,
    AddActivityAction,
    BusinessValue,
    ConcurrentInvokeAction,
    ExtendTimeoutAction,
    FederationAction,
    InvokeSpec,
    MessageCondition,
    MonitoringPolicy,
    PolicyDocument,
    PolicyError,
    PolicyScope,
    QoSThreshold,
    RemoveActivityAction,
    ReplaceActivityAction,
    RetryAction,
    ShardRoutingAction,
    SkipAction,
    SubstituteAction,
    TerminateProcessAction,
    parse_policy_document,
    serialize_policy_document,
)
from repro.policy.actions import ResumeProcessAction, SuspendProcessAction
from repro.soap import FaultCode


def full_document() -> PolicyDocument:
    document = PolicyDocument("everything")
    document.monitoring_policies.append(
        MonitoringPolicy(
            name="watch",
            events=("message.request", "message.response"),
            scope=PolicyScope(service_type="Retailer", operation="getCatalog"),
            condition="amount > 100",
            conditions=(
                MessageCondition("CustomerID", "exists"),
                MessageCondition("amount", "lte", "10000"),
            ),
            qos_thresholds=(QoSThreshold("response_time", "lte", 1.5, window=30, aggregate="p95"),),
            extract={"amount": "amount", "customer": "CustomerID"},
            classify_as=FaultCode.SLA_VIOLATION,
            emits=("order.large",),
            priority=7,
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="recover",
            triggers=("fault.Timeout", "fault.*"),
            scope=PolicyScope(endpoint="http://scm/*"),
            condition="fault_code == 'Timeout'",
            state_before="normal",
            state_after="degraded",
            actions=(
                SuspendProcessAction(),
                ExtendTimeoutAction(extra_seconds=12.0),
                RetryAction(max_retries=5, delay_seconds=1.5, backoff_multiplier=2.0),
                SubstituteAction(strategy="backup", backup_address="http://backup"),
                ConcurrentInvokeAction(max_targets=3),
                SkipAction(reason="optional step"),
                ResumeProcessAction(),
                TerminateProcessAction(reason="last resort"),
            ),
            business_value=BusinessValue(-4.5, "USD", "recovery cost"),
            priority=3,
            adaptation_type="correction",
        )
    )
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="customize",
            triggers=("trade.international",),
            adaptation_type="customization",
            actions=(
                AddActivityAction(
                    anchor="place-trade",
                    position="before",
                    block_name="variation-block",
                    bindings={"seed": "$amount", "mode": "fast"},
                    invokes=(
                        InvokeSpec(
                            name="convert",
                            operation="convert",
                            service_type="CurrencyConversion",
                            inputs={"amount": "$amount"},
                            outputs={"local": "converted"},
                            timeout_seconds=9.0,
                        ),
                        InvokeSpec(
                            name="audit",
                            operation="logEvent",
                            address="http://log",
                        ),
                    ),
                ),
                RemoveActivityAction(target="a-block", block_end="b-block"),
                ReplaceActivityAction(
                    target="old",
                    invokes=(InvokeSpec(name="new", operation="op", address="http://new"),),
                ),
            ),
        )
    )
    return document


class TestRoundTrip:
    def test_full_round_trip_is_stable(self):
        document = full_document()
        xml_once = serialize_policy_document(document, indent=True)
        reparsed = parse_policy_document(xml_once)
        xml_twice = serialize_policy_document(reparsed, indent=True)
        assert xml_once == xml_twice

    def test_monitoring_fields_survive(self):
        reparsed = parse_policy_document(serialize_policy_document(full_document()))
        policy = reparsed.monitoring_policies[0]
        assert policy.name == "watch"
        assert policy.events == ("message.request", "message.response")
        assert policy.scope.service_type == "Retailer"
        assert policy.condition == "amount > 100"
        assert len(policy.conditions) == 2
        assert policy.conditions[1].operator == "lte"
        assert policy.qos_thresholds[0].aggregate == "p95"
        assert policy.extract == {"amount": "amount", "customer": "CustomerID"}
        assert policy.classify_as is FaultCode.SLA_VIOLATION
        assert policy.emits == ("order.large",)
        assert policy.priority == 7

    def test_adaptation_fields_survive(self):
        reparsed = parse_policy_document(serialize_policy_document(full_document()))
        policy = reparsed.adaptation_policies[0]
        assert policy.state_before == "normal" and policy.state_after == "degraded"
        assert policy.business_value.amount == -4.5
        assert policy.business_value.currency == "USD"
        assert policy.priority == 3
        retry = policy.actions[2]
        assert isinstance(retry, RetryAction)
        assert (retry.max_retries, retry.delay_seconds, retry.backoff_multiplier) == (5, 1.5, 2.0)
        substitute = policy.actions[3]
        assert substitute.strategy == "backup" and substitute.backup_address == "http://backup"

    def test_customization_actions_survive(self):
        reparsed = parse_policy_document(serialize_policy_document(full_document()))
        policy = reparsed.adaptation_policies[1]
        add, remove, replace = policy.actions
        assert isinstance(add, AddActivityAction)
        assert add.block_name == "variation-block"
        assert add.bindings == {"seed": "$amount", "mode": "fast"}
        assert add.invokes[0].timeout_seconds == 9.0
        assert add.invokes[0].outputs == {"local": "converted"}
        assert add.invokes[1].address == "http://log"
        assert isinstance(remove, RemoveActivityAction) and remove.block_end == "b-block"
        assert isinstance(replace, ReplaceActivityAction)
        assert replace.invokes[0].name == "new"

    def test_adaptation_type_survives(self):
        reparsed = parse_policy_document(serialize_policy_document(full_document()))
        assert reparsed.adaptation_policies[1].adaptation_type == "customization"


class TestParsingErrors:
    def test_not_a_policy_document(self):
        with pytest.raises(PolicyError):
            parse_policy_document("<NotPolicy/>")

    def test_unknown_assertion_rejected(self):
        xml = (
            '<Policy xmlns="http://schemas.xmlsoap.org/ws/2004/09/policy" Name="d">'
            '<Mystery xmlns="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc"/>'
            "</Policy>"
        )
        with pytest.raises(PolicyError):
            parse_policy_document(xml)

    def test_unknown_action_rejected(self):
        xml = (
            '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
            'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
            '<masc:AdaptationPolicy name="a"><masc:On event="e"/>'
            "<masc:Actions><masc:FlyToTheMoon/></masc:Actions>"
            "</masc:AdaptationPolicy></wsp:Policy>"
        )
        with pytest.raises(PolicyError):
            parse_policy_document(xml)

    def test_missing_required_attribute(self):
        xml = (
            '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
            'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
            '<masc:MonitoringPolicy name="m"><masc:On/></masc:MonitoringPolicy>'
            "</wsp:Policy>"
        )
        with pytest.raises(PolicyError):
            parse_policy_document(xml)

    def test_adaptation_without_actions_element(self):
        xml = (
            '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
            'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
            '<masc:AdaptationPolicy name="a"><masc:On event="e"/></masc:AdaptationPolicy>'
            "</wsp:Policy>"
        )
        with pytest.raises(PolicyError):
            parse_policy_document(xml)

    def test_ws_policy_operators_flattened(self):
        xml = (
            '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
            'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
            "<wsp:ExactlyOne><wsp:All>"
            '<masc:AdaptationPolicy name="a" priority="1"><masc:On event="e"/>'
            '<masc:Actions><masc:Retry maxRetries="1"/></masc:Actions>'
            "</masc:AdaptationPolicy>"
            "</wsp:All></wsp:ExactlyOne></wsp:Policy>"
        )
        document = parse_policy_document(xml)
        assert document.adaptation_policies[0].name == "a"

    def test_document_name_defaults(self):
        xml = '<Policy xmlns="http://schemas.xmlsoap.org/ws/2004/09/policy"/>'
        assert parse_policy_document(xml).name == "unnamed"


class TestFederationVocabulary:
    def _round_trip(self, *actions):
        document = PolicyDocument("federation")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="fleet-config",
                triggers=("federation.configure",),
                scope=PolicyScope(),
                actions=tuple(actions),
                adaptation_type="prevention",
            )
        )
        reparsed = parse_policy_document(serialize_policy_document(document))
        return reparsed.adaptation_policies[0]

    def test_federation_action_round_trips(self):
        action = FederationAction(
            heartbeat_interval_seconds=0.25,
            suspicion_multiplier=4.0,
            gossip_interval_seconds=1.5,
            gossip_fanout=2,
            lease_seconds=2.0,
            virtual_nodes=16,
        )
        policy = self._round_trip(action)
        assert policy.triggers == ("federation.configure",)
        assert policy.actions == (action,)

    def test_shard_routing_round_trips_with_defaults(self):
        policy = self._round_trip(
            FederationAction(),
            ShardRoutingAction(bus="bus-1", vep_pattern="orders-*"),
            ShardRoutingAction(bus="bus-0"),
        )
        assert policy.actions == (
            FederationAction(),
            ShardRoutingAction(bus="bus-1", vep_pattern="orders-*"),
            ShardRoutingAction(bus="bus-0"),
        )
        assert policy.actions[2].vep_pattern == "*"

    def test_federation_action_validation(self):
        with pytest.raises(ActionError):
            FederationAction(heartbeat_interval_seconds=0.0)
        with pytest.raises(ActionError):
            FederationAction(suspicion_multiplier=1.0)
        with pytest.raises(ActionError):
            FederationAction(gossip_interval_seconds=-1.0)
        with pytest.raises(ActionError):
            FederationAction(gossip_fanout=0)
        with pytest.raises(ActionError):
            FederationAction(lease_seconds=0.0)
        with pytest.raises(ActionError):
            FederationAction(virtual_nodes=0)

    def test_shard_routing_validation(self):
        with pytest.raises(ActionError):
            ShardRoutingAction(bus="")
        with pytest.raises(ActionError):
            ShardRoutingAction(bus="bus-0", vep_pattern="")


class TestMalformedActionAttributes:
    """Hostile or mistyped action attributes fail loudly and locally:
    a ``PolicyError`` naming the policy, the element and the attribute."""

    @staticmethod
    def parse(action_xml: str):
        return parse_policy_document(
            '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
            'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
            '<masc:AdaptationPolicy name="retailer-recovery"><masc:On event="fault.*"/>'
            f"<masc:Actions>{action_xml}</masc:Actions>"
            "</masc:AdaptationPolicy></wsp:Policy>"
        )

    @pytest.mark.parametrize(
        "action_xml,element,attribute",
        [
            ('<masc:Retry maxRetries="lots"/>', "Retry", "maxRetries"),
            ('<masc:Retry delaySeconds="soon"/>', "Retry", "delaySeconds"),
            ('<masc:Retry maxRetrys="9"/>', "Retry", "maxRetrys"),
            ('<masc:Tracing alwaysSampleFaults="False"/>', "Tracing", "alwaysSampleFaults"),
            ('<masc:ExtendTimeout extraSeconds="-5"/>', "ExtendTimeout", "extraSeconds"),
            ('<masc:ConcurrentInvoke maxTargets="-3"/>', "ConcurrentInvoke", "maxTargets"),
            ('<masc:PreferBest metric="karma"/>', "PreferBest", "metric"),
            ('<masc:PreferBest window="0"/>', "PreferBest", "window"),
            ('<masc:Retry jitterFraction="nan"/>', "Retry", "jitterFraction"),
            ('<masc:ShardRouting vepPattern="*"/>', "ShardRouting", "bus"),
            (
                '<masc:AddActivity anchor="a"><masc:InvokeActivity name="n" operation="o"'
                ' address="http://x" timeoutSecs="3"/></masc:AddActivity>',
                "InvokeActivity",
                "timeoutSecs",
            ),
        ],
    )
    def test_error_names_policy_element_and_attribute(self, action_xml, element, attribute):
        with pytest.raises(PolicyError) as raised:
            self.parse(action_xml)
        message = str(raised.value)
        assert "retailer-recovery" in message
        assert element in message
        assert attribute in message

    def test_unknown_child_element_rejected(self):
        with pytest.raises(PolicyError, match="InvalidateOnn"):
            self.parse(
                '<masc:ResponseCache><masc:InvalidateOnn event="e"/></masc:ResponseCache>'
            )

    def test_constructors_enforce_the_same_bounds(self):
        from repro.policy import PreferBestAction

        for build in (
            lambda: ExtendTimeoutAction(extra_seconds=-5),
            lambda: ConcurrentInvokeAction(max_targets=-3),
            lambda: PreferBestAction(metric="karma"),
            lambda: PreferBestAction(window=0),
        ):
            with pytest.raises(ActionError):
                build()

    def test_well_formed_booleans_and_absent_timeout(self):
        from repro.policy import TracingAction

        document = self.parse(
            '<masc:Tracing alwaysSampleFaults="false"/>'
            '<masc:AddActivity anchor="a"><masc:InvokeActivity name="n" operation="o"'
            ' address="http://x"/></masc:AddActivity>'
        )
        tracing, add = document.adaptation_policies[0].actions
        assert tracing == TracingAction(always_sample_faults=False)
        # Absent means "no timeout", not the constructor default of 30 s.
        assert add.invokes[0].timeout_seconds is None


def test_malformed_extract_xpath_fails_at_parse():
    """A malformed ``Extract`` XPath is a load-time ``PolicyError`` naming
    the policy, the variable and the expression, like a malformed
    ``MessageCondition`` XPath; it used to load and end the simulation at
    the first message in scope."""
    with pytest.raises(PolicyError) as raised:
        parse_policy_document(
            '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
            'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
            '<masc:MonitoringPolicy name="catalog-watch"><masc:On event="message.request"/>'
            '<masc:Extract variable="x" xpath="//a["/>'
            "</masc:MonitoringPolicy></wsp:Policy>"
        )
    message = str(raised.value)
    assert "catalog-watch" in message and "'x'" in message and "//a[" in message


def test_slo_latency_percentile_round_trips_without_a_latency_target():
    from repro.policy import SloAction

    document = PolicyDocument("d")
    document.adaptation_policies.append(
        AdaptationPolicy("p", ("observability.slo",), (SloAction(latency_percentile="p50"),))
    )
    text = serialize_policy_document(document)
    assert parse_policy_document(text) == document
    # The default is still left out, so documents that already round-tripped keep their bytes.
    document.adaptation_policies[0] = AdaptationPolicy(
        "p", ("observability.slo",), (SloAction(),)
    )
    assert "latencyPercentile" not in serialize_policy_document(document)


_MONITORING = '<masc:MonitoringPolicy name="watch-orders"><masc:On event="message.request"/>{}'
_ADAPTATION = (
    '<masc:AdaptationPolicy name="recover-orders"{}><masc:On event="fault.*"/>'
    '{}<masc:Actions><masc:Skip/></masc:Actions>'
)


@pytest.mark.parametrize(
    "policy_xml,policy,element,detail",
    [
        (
            _ADAPTATION.format(' priorty="5"', "") + "</masc:AdaptationPolicy>",
            "recover-orders",
            "AdaptationPolicy",
            "priorty",
        ),
        (
            '<masc:MonitoringPolicy name="watch-orders" kind="sensor">'
            '<masc:On event="message.request"/></masc:MonitoringPolicy>',
            "watch-orders",
            "MonitoringPolicy",
            "kind",
        ),
        (
            _ADAPTATION.format("", "<masc:Conditon>amount &gt; 5</masc:Conditon>")
            + "</masc:AdaptationPolicy>",
            "recover-orders",
            "AdaptationPolicy",
            "Conditon",
        ),
        (
            _MONITORING.format('<masc:Emits event="x"/>') + "</masc:MonitoringPolicy>",
            "watch-orders",
            "MonitoringPolicy",
            "Emits",
        ),
        (
            _ADAPTATION.format(' priority="high"', "") + "</masc:AdaptationPolicy>",
            "recover-orders",
            "AdaptationPolicy",
            "priority",
        ),
        (
            _MONITORING.format('<masc:ClassifyAs fault="Meltdown"/>')
            + "</masc:MonitoringPolicy>",
            "watch-orders",
            "ClassifyAs",
            "Meltdown",
        ),
        (
            _MONITORING.format('<masc:MessageCondition xpath="amount" operator="about"/>')
            + "</masc:MonitoringPolicy>",
            "watch-orders",
            "MessageCondition",
            "about",
        ),
        (
            _MONITORING.format(
                '<masc:QoSThreshold metric="response_time" operator="lt" value="1.0"'
                ' aggregate="median"/>'
            )
            + "</masc:MonitoringPolicy>",
            "watch-orders",
            "QoSThreshold",
            "median",
        ),
        (
            _ADAPTATION.format("", "<masc:Condition>amount &gt;</masc:Condition>")
            + "</masc:AdaptationPolicy>",
            "recover-orders",
            "Condition",
            "",
        ),
        (
            _MONITORING.format('<masc:MessageCondition xpath="//a["/>')
            + "</masc:MonitoringPolicy>",
            "watch-orders",
            "MessageCondition",
            "",
        ),
    ],
    ids=[
        "unknown-adaptation-attribute",
        "unknown-monitoring-attribute",
        "unknown-adaptation-child",
        "unknown-monitoring-child",
        "non-integer-priority",
        "unknown-classify-fault",
        "unknown-condition-operator",
        "unknown-threshold-aggregate",
        "malformed-condition",
        "malformed-condition-xpath",
    ],
)
def test_malformed_policy_element_is_a_policy_error(policy_xml, policy, element, detail):
    """Every malformed policy element fails at parse time with a
    ``PolicyError`` naming the policy and the element, never a bare
    ``ValueError`` or an expression/XPath error, and never silently: an
    unknown child used to be dropped, so a misspelt ``Condition`` loaded
    a policy that applied unconditionally."""
    with pytest.raises(PolicyError) as raised:
        parse_policy_document(
            '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
            'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
            f"{policy_xml}</wsp:Policy>"
        )
    message = str(raised.value)
    assert policy in message and element in message and detail in message
