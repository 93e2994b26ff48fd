"""The Federation Service: policy-driven fleet configuration.

Reads the federation vocabulary of WS-Policy4MASC
(:class:`~repro.policy.actions.FederationAction`,
:class:`~repro.policy.actions.ShardRoutingAction`) out of the policy
repository. Configuration policies use the conventional
``federation.configure`` trigger (the same load-time-scan convention as
``resilience.configure`` and ``traffic.configure``) and are matched
through their :class:`~repro.policy.model.PolicyScope`.

With no federation policies loaded the service is inert
(:attr:`FederationService.active` is False) and the fleet runs on the
built-in :class:`~repro.policy.actions.FederationAction` defaults with
pure consistent-hash placement.
"""

from __future__ import annotations

from fnmatch import fnmatch

from repro.policy.actions import FederationAction, ShardRoutingAction

__all__ = ["FEDERATION_CONFIGURE", "FederationService"]

#: The trigger event name scanned for at load time.
FEDERATION_CONFIGURE = FederationAction.trigger


class FederationService:
    """Materializes and serves the fleet's federation configuration."""

    def __init__(self, repository) -> None:
        self.repository = repository
        self._config_rules: list[tuple] = []
        self._routing_rules: list[tuple] = []
        repository.router.subscribe(self.refresh_from_policies, ("changed",))
        self.refresh_from_policies()

    @property
    def active(self) -> bool:
        """True when any federation policy is loaded."""
        return bool(self._config_rules or self._routing_rules)

    def refresh_from_policies(self) -> None:
        """Re-scan the repository for ``federation.configure`` policies
        (runs on every repository ``load``/``unload``)."""
        self._config_rules, self._routing_rules = (
            [(policy.scope, action) for policy, action in self.repository.configuration(kind)]
            for kind in (FederationAction, ShardRoutingAction)
        )

    def config(self) -> FederationAction:
        """The fleet tuning (first configured action, or the defaults)."""
        if self._config_rules:
            return self._config_rules[0][1]
        return FederationAction()

    def pinned_bus(self, vep_name: str, service_type: str | None = None) -> str | None:
        """The policy-pinned owner for a VEP, or None for hash placement."""
        for scope, action in self._routing_rules:
            if not scope.matches(endpoint=vep_name, service_type=service_type):
                continue
            if fnmatch(vep_name, action.vep_pattern):
                return action.bus
        return None

    def summary(self) -> dict:
        return {
            "active": self.active,
            "config": self.config().describe(),
            "routing_rules": [
                action.describe() for _, action in self._routing_rules
            ],
        }
