"""Preventive and optimizing adaptation — the paper's 'future work', built.

Demonstrates the two adaptation types the paper names as ongoing work
(Section 5):

- **prevention**: a QoS trend detector watches response times through the
  bus; when a service *starts degrading* (no fault yet!), a preventive
  policy quarantines it and traffic shifts to a healthy member;
- **optimization**: a utility/goal policy makes the decision maker choose
  between competing recovery policies by estimated business value instead
  of fixed priority.

Run:  python examples/preventive_adaptation.py
"""

from repro.core import (
    MASCEvent,
    MASCPolicyDecisionMaker,
    QoSTrendDetector,
    UtilityDrivenDecisionMaker,
    estimate_utility,
)
from repro.policy import (
    AdaptationPolicy,
    BusinessValue,
    ConcurrentInvokeAction,
    GoalPolicy,
    PolicyDocument,
    PolicyRepository,
    QuarantineAction,
    RetryAction,
)
from repro.services import Invoker, ServiceContainer, SimulatedService
from repro.simulation import Environment, RandomSource
from repro.transport import Network
from repro.wsbus import BusEnforcementPoint, WsBus
from repro.wsdl import MessageSchema, Operation, PartSchema, ServiceContract

QUOTE_CONTRACT = ServiceContract(
    service_type="QuoteService",
    operations=(
        Operation(
            name="quote",
            input=MessageSchema("quoteRequest", (PartSchema("symbol"),)),
            output=MessageSchema(
                "quoteResponse", (PartSchema("price"), PartSchema("source"))
            ),
        ),
    ),
)


class QuoteService(SimulatedService):
    contract = QUOTE_CONTRACT

    def op_quote(self, payload, ctx):
        yield ctx.work()
        return QUOTE_CONTRACT.operation("quote").output.build(
            price="42.00", source=self.name
        )


def preventive_demo() -> None:
    print("== Prevention: quarantine a degrading service before it fails ==\n")
    env = Environment()
    network = Network(env, RandomSource(1))
    container = ServiceContainer(env, network, RandomSource(1))
    container.deploy(QuoteService(env, "quotes-primary", "http://q/primary"))
    container.deploy(QuoteService(env, "quotes-backup", "http://q/backup"))

    repository = PolicyRepository()
    document = PolicyDocument("prevention")
    document.adaptation_policies.append(
        AdaptationPolicy(
            name="quarantine-degrading-endpoint",
            triggers=("qos.trend.degrading",),
            adaptation_type="prevention",
            actions=(QuarantineAction(duration_seconds=120.0),),
        )
    )
    repository.load(document)

    bus = WsBus(env, network, repository=repository, member_timeout=30.0)
    vep = bus.create_vep(
        "quotes", QUOTE_CONTRACT,
        members=["http://q/primary", "http://q/backup"],
        selection_strategy="primary",
    )
    decision_maker = MASCPolicyDecisionMaker(env, repository)
    decision_maker.register_enforcement_point(BusEnforcementPoint(bus))
    detector = QoSTrendDetector(env, slope_threshold=0.005, min_samples=8)
    detector.router.subscribe(decision_maker.handle)
    detector.attach_to_invoker(bus.invoker)

    primary = network.endpoint("http://q/primary")
    client = Invoker(env, network, caller="trader")

    def drive():
        for index in range(25):
            primary.added_delay_seconds = 0.012 * index  # memory leak brewing...
            payload = QUOTE_CONTRACT.operation("quote").input.build(symbol="ACME")
            response = yield from client.invoke(vep.address, "quote", payload, timeout=30.0)
            source = response.body.child_text("source")
            if index % 6 == 0 or (detector.reports and index < 20):
                print(f"  t={env.now:6.2f}s request {index:2d} served by {source}")
            yield 1.0

    env.run(env.process(drive()))
    report = detector.reports[0]
    print(
        f"\n  trend detected at t={report.time:.1f}s "
        f"(RTT slope {report.slope * 1000:.2f} ms/s over {report.samples} samples)"
    )
    print(f"  faults seen by clients: {vep.stats.failures} (prevention acted first)")


def optimizing_demo() -> None:
    print("\n== Optimization: utility/goal policy picks the best recovery ==\n")
    env = Environment()
    repository = PolicyRepository()
    document = PolicyDocument("competing-recoveries")
    patient = AdaptationPolicy(
        name="patient-retry",
        triggers=("fault.Timeout",),
        actions=(RetryAction(max_retries=5, delay_seconds=4.0),),
        business_value=BusinessValue(0.0, "AUD"),
        priority=1,  # classic mode would pick this first
    )
    aggressive = AdaptationPolicy(
        name="broadcast-everything",
        triggers=("fault.Timeout",),
        actions=(ConcurrentInvokeAction(),),
        business_value=BusinessValue(1.0, "AUD", "faster answer keeps the customer"),
        priority=2,
    )
    document.adaptation_policies.extend([patient, aggressive])
    goal = GoalPolicy(
        name="maximize-trading-value",
        goal="maximize_business_value",
        time_value_per_second=0.5,      # latency is expensive on a trading desk
        bandwidth_cost_per_message=0.05,
    )
    document.goal_policies.append(goal)
    repository.load(document)

    for policy in (patient, aggressive):
        estimate = estimate_utility(policy, goal, member_count=4)
        print(
            f"  {policy.name:22s} value {estimate.business_value:+.2f} "
            f"- cost {estimate.estimated_cost:5.2f} = utility {estimate.utility:+.2f}"
        )

    maker = UtilityDrivenDecisionMaker(env, repository)

    class PrintingPoint:
        layer = "messaging"

        def enact(self, action, policy, event):
            print(f"\n  decision maker enacted: {policy.name} -> {action.describe()}")
            return True

    maker.register_enforcement_point(PrintingPoint())
    maker.handle(MASCEvent(name="fault.Timeout", time=0.0))
    print(f"  rationale: {maker.decisions[-1].detail}")


if __name__ == "__main__":
    preventive_demo()
    optimizing_demo()
