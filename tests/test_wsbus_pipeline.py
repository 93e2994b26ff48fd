"""Unit tests for the message pipeline, inspectors and transformations."""

import ast
from pathlib import Path

import pytest

from conftest import ECHO_CONTRACT, EchoService, SlowEchoService, run_process
from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    resilience_policy_document,
    slo_policy_document,
    traffic_policy_document,
)
from repro.observability import MetricsRegistry, Tracer
from repro.policy import (
    AdaptationPolicy,
    CircuitBreakerAction,
    LoadSheddingAction,
    PolicyDocument,
    PolicyRepository,
    SubstituteAction,
)
from repro.services import Invoker
from repro.simulation import Environment
from repro.soap import SoapEnvelope, SoapFaultError
from repro.transport import Network
from repro.wsbus import (
    AggregatorModule,
    ApplicabilityRule,
    BusinessEventTracer,
    ContractValidationInspector,
    EnrichmentModule,
    MessageLogger,
    MessagePipeline,
    MessageProcessingModule,
    PayloadTransformModule,
    PipelineContext,
    SplitterModule,
    WsBus,
)
from repro.wsbus.pipeline import stages_of
from repro.wsdl import ContractViolation, MessageSchema, Operation, PartSchema, ServiceContract
from repro.xmlutils import Element


def envelope(root="orderRequest", **parts):
    body = Element(root)
    for key, value in parts.items():
        body.add(key, text=str(value))
    return SoapEnvelope(body=body, addressing=SoapEnvelope.request("http://x", "urn:op:o", Element("t")).addressing)


def context(operation="submitOrder"):
    return PipelineContext(env=Environment(), vep=None, operation=operation)


class StampModule(MessageProcessingModule):
    def __init__(self, name, rule=None):
        super().__init__(name, rule)
        self.seen = []

    def process_request(self, env_, ctx):
        self.seen.append("request")
        env_.body.add("stamp", text=self.name)
        return env_

    def process_response(self, env_, ctx):
        self.seen.append("response")
        return env_


class TestApplicabilityRule:
    def test_operation_glob(self):
        rule = ApplicabilityRule(operation="get*")
        assert rule.matches(envelope(), context("getCatalog"))
        assert not rule.matches(envelope(), context("submitOrder"))

    def test_xpath_against_body(self):
        rule = ApplicabilityRule(xpath="amount[. > 1000]")
        assert rule.matches(envelope(amount=5000), context())
        assert not rule.matches(envelope(amount=10), context())

    def test_regex_against_serialized_message(self):
        rule = ApplicabilityRule(regex="customer-4[0-9]")
        assert rule.matches(envelope(customer="customer-42"), context())
        assert not rule.matches(envelope(customer="customer-99"), context())

    def test_combined_criteria_all_must_hold(self):
        rule = ApplicabilityRule(operation="submit*", xpath="amount")
        assert rule.matches(envelope(amount=1), context("submitOrder"))
        assert not rule.matches(envelope(amount=1), context("getCatalog"))
        assert not rule.matches(envelope(), context("submitOrder"))


class TestPipeline:
    def test_request_order_and_response_reversed(self):
        first, second = StampModule("first"), StampModule("second")
        pipeline = MessagePipeline([first, second])
        ctx = context()
        out = pipeline.run_request(envelope(), ctx)
        assert [e.text for e in out.body.find_all("stamp")] == ["first", "second"]
        pipeline.run_response(envelope(), ctx)
        assert first.seen == ["request", "response"]

    def test_module_scoping_by_rule(self):
        scoped = StampModule("scoped", rule=ApplicabilityRule(operation="getCatalog"))
        pipeline = MessagePipeline([scoped])
        out = pipeline.run_request(envelope(), context("submitOrder"))
        assert out.body.find("stamp") is None

    def test_add_insert_remove(self):
        pipeline = MessagePipeline()
        a = pipeline.add(StampModule("a"))
        pipeline.insert(0, StampModule("b"))
        assert [m.name for m in pipeline.modules] == ["b", "a"]
        assert pipeline.remove("b") is True
        assert pipeline.remove("missing") is False


class TestMessageLogger:
    def test_logs_and_meters(self):
        logger = MessageLogger()
        pipeline = MessagePipeline([logger])
        ctx = context("getCatalog")
        pipeline.run_request(envelope(amount=1), ctx)
        pipeline.run_response(envelope(amount=2), ctx)
        assert len(logger.entries) == 2
        assert logger.entries[0].direction == "request"
        assert logger.metered_usage()["getCatalog"] > 0


class TestContractValidation:
    CONTRACT = ServiceContract(
        service_type="Orders",
        operations=(
            Operation(
                "submitOrder",
                MessageSchema("orderRequest", (PartSchema("amount", "int"),)),
                MessageSchema("orderResponse", (PartSchema("status"),)),
            ),
        ),
    )

    def test_valid_request_passes(self):
        inspector = ContractValidationInspector(self.CONTRACT)
        MessagePipeline([inspector]).run_request(envelope(amount=5), context())
        assert inspector.violations == []

    def test_invalid_request_raises(self):
        inspector = ContractValidationInspector(self.CONTRACT)
        with pytest.raises(ContractViolation):
            MessagePipeline([inspector]).run_request(envelope(), context())
        assert inspector.violations

    def test_lenient_mode_records_only(self):
        inspector = ContractValidationInspector(self.CONTRACT, strict=False)
        MessagePipeline([inspector]).run_request(envelope(), context())
        assert inspector.violations

    def test_unknown_operation_ignored(self):
        inspector = ContractValidationInspector(self.CONTRACT)
        MessagePipeline([inspector]).run_request(envelope(), context("mystery"))
        assert inspector.violations == []


class TestBusinessEventTracer:
    def test_traces_large_transactions(self):
        tracer = BusinessEventTracer("large-order", "amount[. >= 10000]")
        pipeline = MessagePipeline([tracer])
        pipeline.run_request(envelope(amount=50000), context())
        pipeline.run_request(envelope(amount=10), context())
        assert len(tracer.events) == 1
        assert tracer.events[0].value == "50000"


class TestPayloadTransform:
    def test_rename_and_convert(self):
        module = PayloadTransformModule(
            rename_root="newOrder",
            rename_parts={"amount": "total"},
            convert_values={"amount": lambda v: str(float(v) * 2)},
            drop_parts=("secret",),
        )
        out = module.process_request(envelope(amount=10, keep="x", secret="s"), context())
        assert out.body.name.local == "newOrder"
        assert out.body.child_text("total") == "20.0"
        assert out.body.child_text("keep") == "x"
        assert out.body.find("secret") is None

    def test_direction_response_only(self):
        module = PayloadTransformModule(rename_root="changed", direction="response")
        unchanged = module.process_request(envelope(), context())
        assert unchanged.body.name.local == "orderRequest"
        changed = module.process_response(envelope(), context())
        assert changed.body.name.local == "changed"

    def test_original_envelope_untouched(self):
        module = PayloadTransformModule(rename_root="changed")
        original = envelope(amount=1)
        module.process_request(original, context())
        assert original.body.name.local == "orderRequest"


class TestEnrichment:
    def test_appends_external_data(self):
        module = EnrichmentModule(lambda env_, ctx: {"region": "APAC", "tier": "gold"})
        out = module.process_request(envelope(amount=1), context())
        assert out.body.child_text("region") == "APAC"
        assert out.body.child_text("tier") == "gold"

    def test_empty_source_is_noop(self):
        module = EnrichmentModule(lambda env_, ctx: {})
        original = envelope(amount=1)
        assert module.process_request(original, context()) is original


class TestSplitterAggregator:
    def test_split_per_item(self):
        body = Element("orderRequest")
        body.add("customer", text="c1")
        body.add("Item", text="TV")
        body.add("Item", text="DVD")
        message = SoapEnvelope(body=body)
        parts = SplitterModule("Item").split(message)
        assert len(parts) == 2
        assert [p.body.find("Item").text for p in parts] == ["TV", "DVD"]
        assert all(p.body.child_text("customer") == "c1" for p in parts)

    def test_split_without_items_passthrough(self):
        message = envelope(amount=1)
        assert SplitterModule("Item").split(message) == [message]

    def test_aggregate_batches(self):
        aggregator = AggregatorModule(batch_size=2, root_element="Batch")
        assert aggregator.offer(envelope(amount=1)) is None
        merged = aggregator.offer(envelope(amount=2))
        assert merged is not None
        assert len(merged.body.children) == 2
        assert aggregator.pending == 0

    def test_flush_partial_batch(self):
        aggregator = AggregatorModule(batch_size=10)
        aggregator.offer(envelope(amount=1))
        merged = aggregator.flush()
        assert merged is not None and len(merged.body.children) == 1

    def test_flush_empty_returns_none(self):
        assert AggregatorModule(batch_size=2).flush() is None

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            AggregatorModule(batch_size=0)


# -- the composed mediation path ----------------------------------------------------
#
# The VEP chain and the send chain are composed from per-tier stages when
# something that decides a tier's presence changes; these tests pin which
# stages stand where, and that every way of flipping a tier recomposes.

RETAILER = "http://scm/retailerA"

TRAFFIC = ["cache", "idempotency", "leveling"]
SEND_RESILIENCE = ["breaker", "bulkhead", "adaptive_timeout"]


def chains(bus, vep):
    """(VEP chain, send chain) as stage names, outermost first."""
    return tuple(
        [stage.__name__ for stage in stages_of(handler)]
        for handler in (bus.network.endpoint(vep.address).handler, bus._deliver)
    )


def retailer_bus(env, network, *documents, **bus_kwargs):
    repository = PolicyRepository()
    for document in documents:
        repository.load(document)
    bus = WsBus(env, network, repository=repository, member_timeout=5.0, **bus_kwargs)
    return bus, bus.create_vep("retailers", RETAILER_CONTRACT, members=[RETAILER])


class TestComposedStages:
    def test_bare_bus_has_no_stage_and_no_wrapper_frame(self, env, network):
        bus, vep = retailer_bus(env, network)
        assert chains(bus, vep) == ([], [])
        # The registered handler *is* the mediation core ...
        assert network.endpoint(vep.address).handler == vep.handle
        # ... and the send path is Invoker.send behind only the retarget copy.
        request = SoapEnvelope.request(vep.address, "urn:op:getCatalog", Element("getCatalog"))
        sending = bus._send(request, "getCatalog", RETAILER)
        assert sending.gi_code is Invoker.send.__code__
        outbound = sending.gi_frame.f_locals["envelope"]
        assert outbound is not request and outbound.addressing.to == RETAILER
        sending.close()

    def test_each_tier_contributes_its_own_stages_in_order(self, env, network):
        tracer = Tracer(clock=lambda: env.now)
        cases = [
            ((resilience_policy_document(),), {}, ["admission"], SEND_RESILIENCE),
            ((traffic_policy_document(),), {}, TRAFFIC, []),
            ((slo_policy_document(),), {"metrics": MetricsRegistry()}, ["handle"], ["send"]),
            ((), {"tracer": tracer}, ["handle"], ["send"]),
            ((), {"mediation_capacity": 2}, ["mediate"], []),
            (
                (resilience_policy_document(), traffic_policy_document(), slo_policy_document()),
                {"tracer": tracer, "metrics": MetricsRegistry(), "mediation_capacity": 2},
                ["mediate", *TRAFFIC, "admission", "handle"],
                [*SEND_RESILIENCE, "send"],
            ),
        ]
        for documents, bus_kwargs, vep_chain, send_chain in cases:
            bus, vep = retailer_bus(env, Network(env), *documents, **bus_kwargs)
            assert chains(bus, vep) == (vep_chain, send_chain), (documents, bus_kwargs)

    @pytest.mark.parametrize("capacity", [0, -1, 0.5])
    def test_a_mediation_capacity_below_one_is_rejected(self, env, network, capacity):
        # Regression: a capacity of 0 built no gate, so the bus was unbounded.
        with pytest.raises(ValueError, match="mediation capacity"):
            WsBus(env, network, mediation_capacity=capacity)

    def test_a_tier_that_does_not_cover_a_vep_stands_no_stage_before_it(self, env, network):
        # Shedding is bus-wide; the traffic rules and the VEP bulkhead are
        # scoped to Retailers, so an Echo VEP on the same bus gets neither.
        bus, retailers = retailer_bus(
            env, network, resilience_policy_document(), traffic_policy_document()
        )
        echo = bus.create_vep("echo", ECHO_CONTRACT, members=["http://svc/a"])
        assert chains(bus, retailers)[0] == [*TRAFFIC, "admission"]
        assert chains(bus, echo)[0] == ["admission"]
        assert set(bus.resilience._vep_bulkheads) == set(bus.traffic._levelers) == {"retailers"}

    def test_the_slo_feed_follows_the_slo_policies(self, env, network):
        bus, vep = retailer_bus(env, network, metrics=MetricsRegistry())

        def failed_sends():
            request = SoapEnvelope.request(vep.address, "urn:op:getCatalog", Element("getCatalog"))
            with pytest.raises(SoapFaultError):
                run_process(env, bus._send(request, "getCatalog", RETAILER))
            return bus.metrics.snapshot()["counters"].get(
                f'wsbus.endpoint.failures{{endpoint="{RETAILER}"}}', 0
            )

        assert failed_sends() == 0
        bus.repository.load(slo_policy_document())
        assert bus.slo.active and failed_sends() == 1
        bus.repository.unload(slo_policy_document().name)
        assert not bus.slo.active and failed_sends() == 1


class TestRecomposition:
    def test_load_and_unload_recompose(self, env, network):
        bus, vep = retailer_bus(env, network)
        documents = [resilience_policy_document(), traffic_policy_document()]
        for document in documents:
            bus.repository.load(document)
        assert bus.resilience.active and bus.traffic.active
        assert chains(bus, vep) == ([*TRAFFIC, "admission"], SEND_RESILIENCE)
        for document in documents:
            bus.repository.unload(document.name)
        assert not bus.resilience.active and not bus.traffic.active
        assert chains(bus, vep) == ([], [])
        assert network.endpoint(vep.address).handler == vep.handle

    def test_a_refresh_by_hand_recomposes(self, env, network):
        bus, vep = retailer_bus(env, network)
        bus.repository._documents["scm-traffic"] = traffic_policy_document()
        bus.traffic.refresh_from_policies()
        assert bus.traffic.active and chains(bus, vep)[0] == TRAFFIC

    def test_a_resilience_action_enacted_at_fault_time_recomposes(
        self, env, network, container
    ):
        container.deploy(EchoService(env, "echo-b", "http://svc/b"))
        bus, _ = retailer_bus(env, network)
        document = PolicyDocument("tighten-on-fault")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="tighten-on-fault",
                triggers=("fault.*",),
                actions=(
                    CircuitBreakerAction(consecutive_failures=1),
                    LoadSheddingAction(max_inflight=4),
                    SubstituteAction("round_robin"),
                ),
                priority=10,
            )
        )
        bus.repository.load(document)
        vep = bus.create_vep(
            "echo", ECHO_CONTRACT, members=["http://svc/down", "http://svc/b"],
            selection_strategy="primary",
        )
        assert not bus.resilience.active and chains(bus, vep) == ([], [])
        invoker = Invoker(env, network, caller="client")
        payload = ECHO_CONTRACT.operation("echo").input.build(text="hi")
        response = run_process(env, invoker.invoke(vep.address, "echo", payload, timeout=30.0))
        assert response.body.child_text("text") == "hi@echo-b"
        assert bus.resilience.active
        assert chains(bus, vep) == (["admission"], ["breaker"])

    def test_a_request_in_flight_across_a_flip_finishes_on_its_own_chain(
        self, env, network, container
    ):
        container.deploy(SlowEchoService(env, "slow", RETAILER, delay=1.0))
        # The Retailer-scoped policies, over a contract the echo service answers.
        contract = ServiceContract(service_type="Retailer", operations=ECHO_CONTRACT.operations)
        bus, _ = retailer_bus(
            env, network, resilience_policy_document(), traffic_policy_document(),
            mediation_capacity=2,
        )
        vep = bus.create_vep("echo", contract, members=[RETAILER])
        assert chains(bus, vep)[0] == ["mediate", "idempotency", "leveling", "admission"]
        shedder = bus.resilience.shedder
        vep_bulkhead = bus.resilience._vep_bulkheads["echo"]
        leveler = bus.traffic._levelers["echo"]
        held = []

        def flip():
            yield env.timeout(0.5)
            held.append((shedder.in_flight, vep_bulkhead.in_flight, bus._gate.in_flight))
            bus.repository.unload("scm-resilience")
            bus.repository.unload("scm-traffic")

        env.process(flip())
        request = SoapEnvelope.request(
            vep.address, "urn:op:echo", ECHO_CONTRACT.operation("echo").input.build(text="x")
        )
        reply = run_process(env, network.endpoint(vep.address).handler(request))
        assert not reply.is_fault and env.now > 1.0
        assert held == [(1, 1, 1)]
        assert chains(bus, vep) == (["mediate"], [])
        assert (shedder.in_flight, vep_bulkhead.in_flight, bus._gate.in_flight) == (0, 0, 0)
        assert leveler.stats()["immediate"] == 1 and leveler.waiting == 0
        assert bus.resilience.shedder is None and not bus.resilience._vep_bulkheads


class TestImportBoundaries:
    """The chain is mechanism, what stands in it is policy: the mediation
    core knows no tier, and no tier reaches into the core's module."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

    @staticmethod
    def imported_modules(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module)
                modules.update(f"{node.module}.{alias.name}" for alias in node.names)
        return modules

    @pytest.mark.parametrize("module", ["vep.py", "pipeline.py"])
    def test_the_core_imports_no_tier(self, module):
        forbidden = ("repro.traffic", "repro.resilience", "repro.observability.trace_context")
        imported = self.imported_modules(self.SRC / "wsbus" / module)
        assert not [name for name in imported if name.startswith(forbidden)]

    @pytest.mark.parametrize("package", ["traffic", "resilience", "observability", "federation"])
    def test_no_tier_imports_the_core(self, package):
        for path in sorted((self.SRC / package).glob("*.py")):
            imported = self.imported_modules(path)
            assert "repro.wsbus.vep" not in imported, path
