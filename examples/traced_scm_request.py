"""One self-adapting request, end to end, as a single correlated trace.

The paper's signature cross-layer scenario, observed through the tracing
layer (``repro.observability``): an orchestrated process calls a Web
service through a wsBus VEP; the backend is down; the adaptation policy
first extends the calling activity's pending timeout at the *process*
layer, then retries delivery at the *messaging* layer until the backend
comes back. Every step lands in one trace:

- ``process.instance`` / ``activity.*`` spans from the workflow engine,
- ``vep.handle`` / ``wsbus.adaptation.recover`` / ``wsbus.policy.enact``
  / ``wsbus.retry`` spans from the bus,
- ``masc.enact`` spans from MASCAdaptationService, parented under the
  bus-side policy span that triggered the cross-layer coordination —

all sharing the calling instance's ProcessInstanceID as correlation ID.

Run:  python examples/traced_scm_request.py
"""

import os
import tempfile

from repro.core import MASC
from repro.observability import (
    InMemoryExporter,
    JsonlExporter,
    Tracer,
    read_spans_jsonl,
    render_trace_tree,
)
from repro.orchestration import Invoke, ProcessDefinition, Reply, Sequence
from repro.policy import (
    AdaptationPolicy,
    ExtendTimeoutAction,
    PolicyDocument,
    PolicyScope,
    RetryAction,
    serialize_policy_document,
)
from repro.services import SimulatedService
from repro.wsbus import WsBus
from repro.wsdl import MessageSchema, Operation, PartSchema, ServiceContract

QUOTE_CONTRACT = ServiceContract(
    service_type="Quote",
    operations=(
        Operation(
            name="getQuote",
            input=MessageSchema("getQuoteRequest", (PartSchema("symbol"),)),
            output=MessageSchema("getQuoteResponse", (PartSchema("price"),)),
        ),
    ),
)


class QuoteService(SimulatedService):
    contract = QUOTE_CONTRACT

    def op_getQuote(self, payload, ctx):
        yield ctx.work()
        return QUOTE_CONTRACT.operation("getQuote").output.build(price="42.17")


def cross_layer_policy() -> str:
    """Extend the caller's timeout, then retry delivery (paper Sec. 3.3)."""
    document = PolicyDocument("traced-example")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="extend-then-retry",
            triggers=("fault.ServiceUnavailable", "fault.Timeout"),
            scope=PolicyScope(service_type="Quote"),
            actions=(
                ExtendTimeoutAction(extra_seconds=30.0),
                RetryAction(max_retries=5, delay_seconds=2.0),
            ),
            priority=10,
        )
    )
    return serialize_policy_document(document)


def main() -> None:
    tracer = Tracer()
    memory = tracer.add_exporter(InMemoryExporter())
    trace_path = os.path.join(tempfile.mkdtemp(prefix="repro-trace-"), "trace.jsonl")
    tracer.add_exporter(JsonlExporter(trace_path))

    masc = MASC(seed=9, tracer=tracer)
    masc.deploy(QuoteService(masc.env, "quotes1", "http://svc/quotes"))
    bus = WsBus(
        masc.env,
        masc.network,
        repository=masc.repository,
        registry=masc.registry,
        process_enforcement=masc.adaptation,
        member_timeout=3.0,
        tracer=tracer,
    )
    vep = bus.create_vep("quotes", QUOTE_CONTRACT, members=["http://svc/quotes"])
    masc.load_policies(cross_layer_policy())

    definition = ProcessDefinition(
        "quote-caller",
        Sequence(
            "main",
            [
                Invoke(
                    "get-quote",
                    operation="getQuote",
                    to=vep.address,
                    inputs={"symbol": "ACME"},
                    extract={"price": "price"},
                    timeout_seconds=5.0,
                ),
                Reply("answer", variable="price"),
            ],
        ),
    )

    # Take the backend down; repair it after 6 simulated seconds — only
    # the policy's timeout extension keeps the 5s-deadline caller alive.
    endpoint = masc.network.endpoint("http://svc/quotes")
    endpoint.available = False

    def repairer():
        yield 6.0
        endpoint.available = True

    masc.env.process(repairer())
    instance = masc.engine.start(definition)
    price = masc.engine.run_to_completion(instance)
    tracer.close()

    print(f"process {instance.id} completed with price={price}\n")
    print(render_trace_tree(memory.spans))

    # The acceptance check: the bus-level retry span and the policy
    # adaptation span carry the same correlation ID (the instance ID that
    # rode in the MASC ProcessInstanceID SOAP header).
    spans = read_spans_jsonl(trace_path)
    by_name = {span.name: span for span in spans}
    retry, enact = by_name["wsbus.retry"], by_name["wsbus.policy.enact"]
    assert retry.correlation_id == enact.correlation_id == instance.id
    cross = by_name["masc.enact"]
    assert cross.trace_id == enact.trace_id  # one trace across both layers
    print(f"\n{len(spans)} spans written to {trace_path}")
    print(
        f"retry and policy-enactment spans share correlation id "
        f"{retry.correlation_id!r}"
    )


if __name__ == "__main__":
    main()
