"""Process definitions.

A :class:`ProcessDefinition` is the *class* of a composition (the paper's
"abstract process"): a named, validated activity tree plus declared
variables. Instances execute a private copy of the tree so that per-instance
dynamic customization never mutates the class — the paper's first adaptation
dimension ("whether the complete class of compositions is changed or whether
only a particular composition instance is changed"; MASC changes instances).
"""

from __future__ import annotations

from typing import Any

from repro.orchestration.activities import Activity
from repro.orchestration.errors import DefinitionError

__all__ = ["ProcessDefinition"]


class ProcessDefinition:
    """A named, validated activity tree."""

    def __init__(
        self,
        name: str,
        root: Activity,
        initial_variables: dict[str, Any] | None = None,
    ) -> None:
        if not name:
            raise DefinitionError("process definition name must be non-empty")
        self.name = name
        self.root = root
        self.initial_variables = dict(initial_variables or {})
        self.validate()

    def validate(self) -> None:
        """Check structural invariants (currently: unique activity names)."""
        seen: set[str] = set()
        for activity in self.root.iter_tree():
            if activity.name in seen:
                raise DefinitionError(
                    f"duplicate activity name {activity.name!r} in process {self.name!r}"
                )
            seen.add(activity.name)

    def find(self, activity_name: str) -> Activity | None:
        """The activity with the given name, or None."""
        for activity in self.root.iter_tree():
            if activity.name == activity_name:
                return activity
        return None

    def activity_names(self) -> list[str]:
        return [activity.name for activity in self.root.iter_tree()]

    def copy_tree(self) -> Activity:
        """A private copy of the activity tree for a new instance."""
        return self.root.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcessDefinition {self.name!r} activities={len(self.activity_names())}>"
