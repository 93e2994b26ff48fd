"""Out-of-band messaging-layer enforcement.

The Adaptation Manager enacts retry/substitute/broadcast/skip *inline* in
the failing message's path. Optimizing and preventive actions are
different: they fire from events (QoS trends, SLA forecasts) with no
message waiting for an answer. :class:`BusEnforcementPoint` is the
``messaging``-layer enforcement point the decision maker dispatches those
actions to:

- :class:`~repro.policy.QuarantineAction` — temporarily remove the
  affected endpoint from every VEP that lists it, restoring it after the
  quarantine period;
- :class:`~repro.policy.PreferBestAction` — reorder VEP membership by the
  measured QoS so primary-ordered selection prefers the best endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.decision_maker import EnforcementPoint
from repro.core.events import MASCEvent
from repro.policy import AdaptationPolicy, PreferBestAction, QuarantineAction
from repro.policy.actions import AdaptationAction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wsbus.bus import WsBus

__all__ = ["BusEnforcementPoint", "QuarantineRecord"]


@dataclass
class QuarantineRecord:
    """One quarantine episode, for experiment reporting."""

    endpoint: str
    started_at: float
    duration: float
    vep_names: list[str]
    policy_name: str


class BusEnforcementPoint(EnforcementPoint):
    """Enacts out-of-band messaging-layer actions against a WsBus."""

    layer = "messaging"

    def __init__(self, bus: "WsBus") -> None:
        self.bus = bus
        self.quarantines: list[QuarantineRecord] = []
        self._active_quarantines: set[str] = set()

    def enact(
        self, action: AdaptationAction, policy: AdaptationPolicy, event: MASCEvent
    ) -> bool:
        if isinstance(action, QuarantineAction):
            return self._quarantine(action, policy, event)
        if isinstance(action, PreferBestAction):
            return self._prefer_best(action, event)
        # Inline recovery actions (retry/substitute/...) cannot be enacted
        # out of band: there is no failed message to redeliver.
        return False

    # -- quarantine ----------------------------------------------------------------

    def _quarantine(
        self, action: QuarantineAction, policy: AdaptationPolicy, event: MASCEvent
    ) -> bool:
        endpoint = event.endpoint or event.context.get("endpoint")
        if not endpoint or endpoint in self._active_quarantines:
            return False
        affected = [
            vep for vep in self.bus.veps.values() if endpoint in vep.members
        ]
        removable = [vep for vep in affected if len(vep.members) > 1]
        if not removable:
            return False  # never quarantine an endpoint out of existence
        for vep in removable:
            vep.remove_member(endpoint)
        self._active_quarantines.add(endpoint)
        record = QuarantineRecord(
            endpoint=endpoint,
            started_at=self.bus.env.now,
            duration=action.duration_seconds,
            vep_names=[vep.name for vep in removable],
            policy_name=policy.name,
        )
        self.quarantines.append(record)
        self.bus.env.process(
            self._release(endpoint, removable, action.duration_seconds),
            name=f"quarantine:{endpoint}",
        )
        return True

    def _release(self, endpoint: str, veps, duration: float):
        yield duration
        for vep in veps:
            vep.add_member(endpoint)
        self._active_quarantines.discard(endpoint)

    # -- preference re-ordering ---------------------------------------------------------

    def _prefer_best(self, action: PreferBestAction, event: MASCEvent) -> bool:
        changed = False
        for vep in self.bus.veps.values():
            if len(vep.members) < 2:
                continue
            best = self.bus.qos.best_endpoint(
                list(vep.members), metric=action.metric, window=action.window
            )
            if best is not None and vep.members[0] != best:
                vep.members.remove(best)
                vep.members.insert(0, best)
                changed = True
        return changed
