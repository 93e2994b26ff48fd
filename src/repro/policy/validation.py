"""Policy consistency checking.

The paper argues its approach "controls adaptation using policies that can
be checked for consistency" (contrasting with RobustBPEL's generated
constructs). This module implements that check: structural errors that make
a document unenforceable, and warnings for specifications that are legal
but ambiguous or suspicious.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.orchestration import ProcessDefinition
from repro.policy.actions import (
    AddActivityAction,
    RemoveActivityAction,
    ReplaceActivityAction,
    ResilienceAction,
    RetryAction,
)
from repro.policy.model import PolicyDocument

__all__ = ["PolicyValidationError", "ValidationIssue", "validate_document"]


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    policy_name: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.policy_name}: {self.message}"


class PolicyValidationError(Exception):
    """Raised when a document has validation errors."""

    def __init__(self, issues: list[ValidationIssue]) -> None:
        super().__init__("; ".join(str(issue) for issue in issues))
        self.issues = issues


def validate_document(
    document: PolicyDocument,
    process: ProcessDefinition | None = None,
    known_service_types: set[str] | None = None,
    raise_on_error: bool = True,
) -> list[ValidationIssue]:
    """Check a document; returns all issues (errors first).

    When ``process`` is given, activity anchors in process-layer actions
    are resolved against its definition. When ``known_service_types`` is
    given, abstract service references are checked against it.
    """
    issues: list[ValidationIssue] = []

    names = document.policy_names()
    for name in sorted({n for n in names if names.count(n) > 1}):
        issues.append(ValidationIssue("error", name, "duplicate policy name"))

    activity_names = set(process.activity_names()) if process is not None else None

    for policy in document.adaptation_policies:
        retry_only = all(isinstance(action, RetryAction) for action in policy.actions)
        if retry_only and any(action.max_retries == 0 for action in policy.actions):
            issues.append(
                ValidationIssue(
                    "warning", policy.name, "retry action with maxRetries=0 does nothing"
                )
            )
        for action in policy.actions:
            issues.extend(_check_action(policy.name, action, activity_names, known_service_types))
            # A configuration assertion is read only by the load-time scan
            # for its trigger; resilience assertions are also enacted by
            # the Adaptation Manager under any other trigger.
            scanned = action.trigger in (None, *policy.triggers)
            if not scanned and not isinstance(action, ResilienceAction):
                issues.append(
                    ValidationIssue(
                        "warning",
                        policy.name,
                        f"{action.element} is only read from policies triggered by "
                        f"{action.trigger!r}; here nothing will ever apply it",
                    )
                )
        if policy.state_before is not None and policy.state_after == policy.state_before:
            issues.append(
                ValidationIssue(
                    "warning",
                    policy.name,
                    f"state transition {policy.state_before!r} -> {policy.state_after!r} "
                    "is a no-op",
                )
            )

    # Ambiguous ordering: same trigger + same priority among adaptation policies.
    seen: dict[tuple[str, int], str] = {}
    for policy in document.adaptation_policies:
        for trigger in policy.triggers:
            key = (trigger, policy.priority)
            if key in seen and seen[key] != policy.name:
                issues.append(
                    ValidationIssue(
                        "warning",
                        policy.name,
                        f"shares trigger {trigger!r} and priority {policy.priority} with "
                        f"{seen[key]!r}; execution order falls back to name ordering",
                    )
                )
            else:
                seen[key] = policy.name

    for policy in document.monitoring_policies:
        if not policy.emits and policy.classify_as is None and not policy.qos_thresholds:
            if not policy.conditions:
                issues.append(
                    ValidationIssue(
                        "warning",
                        policy.name,
                        "policy neither emits events, classifies faults, nor checks "
                        "conditions — it has no observable effect",
                    )
                )

    issues.sort(key=lambda issue: (issue.severity != "error", issue.policy_name))
    if raise_on_error and any(issue.severity == "error" for issue in issues):
        raise PolicyValidationError([i for i in issues if i.severity == "error"])
    return issues


def _check_action(
    policy_name: str,
    action,
    activity_names: set[str] | None,
    known_service_types: set[str] | None,
) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []

    def check_anchor(anchor: str, role: str) -> None:
        if activity_names is not None and anchor not in activity_names:
            issues.append(
                ValidationIssue(
                    "error",
                    policy_name,
                    f"{role} {anchor!r} does not exist in the target process",
                )
            )

    if isinstance(action, AddActivityAction):
        check_anchor(action.anchor, "anchor activity")
        for spec in action.invokes:
            if (
                known_service_types is not None
                and spec.service_type is not None
                and spec.service_type not in known_service_types
            ):
                issues.append(
                    ValidationIssue(
                        "error",
                        policy_name,
                        f"inserted invoke {spec.name!r} references unknown service type "
                        f"{spec.service_type!r}",
                    )
                )
    elif isinstance(action, RemoveActivityAction):
        check_anchor(action.target, "removal target")
        if action.block_end is not None:
            check_anchor(action.block_end, "block end")
    elif isinstance(action, ReplaceActivityAction):
        check_anchor(action.target, "replacement target")
    return issues
