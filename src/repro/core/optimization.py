"""Optimizing adaptation: utility/goal-driven policy selection.

Implements the paper's stated research direction: "making and enacting
adaptation decisions (e.g., optimal configuration of running Web services
compositions) based on not only event-condition-action rules, but also
more abstract utility/goal policies describing how to determine business
benefits/costs and maximize business value by performing adaptations."

:class:`UtilityDrivenDecisionMaker` extends the base decision maker: when
a :class:`~repro.policy.GoalPolicy` is in scope for an event, the matching
adaptation policies are *ranked by estimated utility* and only the best
one is enacted — instead of enacting all of them in priority order.

Utility = declared business value − estimated enactment cost, where costs
price the non-monetary side effects of the actions:

- retries cost worst-case recovery time (delays × time value);
- concurrent invocation costs fan-out bandwidth;
- suspension costs the expected pause duration;
- everything else costs one message round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decision_maker import MASCPolicyDecisionMaker, PolicyDecision
from repro.core.events import MASCEvent
from repro.policy import (
    AdaptationPolicy,
    ConcurrentInvokeAction,
    GoalPolicy,
    PolicyRepository,
    RetryAction,
    SuspendProcessAction,
)

__all__ = ["UtilityDrivenDecisionMaker", "UtilityEstimate", "estimate_utility"]


@dataclass(frozen=True)
class UtilityEstimate:
    """The components of one policy's estimated utility."""

    policy_name: str
    business_value: float
    estimated_cost: float

    @property
    def utility(self) -> float:
        return self.business_value - self.estimated_cost


def estimate_utility(
    policy: AdaptationPolicy, goal: GoalPolicy, member_count: int = 4
) -> UtilityEstimate:
    """Estimate the utility of enacting ``policy`` under ``goal``'s prices."""
    business_value = policy.business_value.amount if policy.business_value else 0.0
    cost = 0.0
    for action in policy.actions:
        if isinstance(action, RetryAction):
            worst_case_delay = sum(
                action.delay_for_attempt(attempt)
                for attempt in range(1, action.max_retries + 1)
            )
            cost += worst_case_delay * goal.time_value_per_second
            cost += action.max_retries * goal.bandwidth_cost_per_message
        elif isinstance(action, ConcurrentInvokeAction):
            targets = action.max_targets if action.max_targets > 0 else member_count
            cost += targets * goal.bandwidth_cost_per_message
        elif isinstance(action, SuspendProcessAction):
            cost += 1.0 * goal.time_value_per_second
        else:
            cost += goal.bandwidth_cost_per_message
    return UtilityEstimate(policy.name, business_value, cost)


class UtilityDrivenDecisionMaker(MASCPolicyDecisionMaker):
    """Priority-driven by default; utility-driven where a goal policy applies."""

    def __init__(self, env, repository: PolicyRepository, member_count: int = 4) -> None:
        super().__init__(env, repository)
        self.member_count = member_count
        #: Audit of utility rankings per decision point.
        self.rankings: list[list[UtilityEstimate]] = []

    def handle(self, event: MASCEvent) -> list[PolicyDecision]:
        goal = self.repository.goal_policy_for(**event.subject())
        if goal is None:
            return super().handle(event)
        # Keep only policies whose guard conditions pass; rank the rest.
        viable = list(
            self.repository.applicable(
                event.name, event.subject_key(), event.context, **event.subject()
            )
        )
        if not viable:
            return super().handle(event)  # records the non-applications
        estimates = sorted(
            (estimate_utility(policy, goal, self.member_count) for policy in viable),
            key=lambda estimate: estimate.utility,
            reverse=True,
        )
        self.rankings.append(estimates)
        if goal.goal == "minimize_cost":
            estimates = sorted(estimates, key=lambda estimate: estimate.estimated_cost)
        best_name = estimates[0].policy_name
        best_policy = next(policy for policy in viable if policy.name == best_name)
        decision = self._apply(best_policy, event)
        decision.detail = (
            f"selected by goal policy {goal.name!r}: utility "
            f"{estimates[0].utility:.2f} (value {estimates[0].business_value:.2f} "
            f"- cost {estimates[0].estimated_cost:.2f}); "
            f"{len(viable) - 1} competing policies not enacted"
        )
        self.decisions.append(decision)
        return [decision]
