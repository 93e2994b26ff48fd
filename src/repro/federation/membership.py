"""Fleet membership with heartbeat-based failure suspicion.

Each bus of a federated fleet heartbeats into this registry; a monitor
process suspects any member whose last heartbeat is older than
``heartbeat_interval * suspicion_multiplier``. Suspicion, joins and
graceful leaves are pushed to listeners (the fleet re-shards VEPs and the
leader election re-evaluates on every change).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.observability import NULL_METRICS, NULL_TRACER

__all__ = ["BusMember", "FleetMembership"]


@dataclass
class BusMember:
    """One bus instance as the membership layer sees it."""

    name: str
    joined_at: float
    last_heartbeat: float
    alive: bool = True
    suspected_at: float | None = None
    left_at: float | None = None
    history: list[tuple[float, str]] = field(default_factory=list)


class FleetMembership:
    """Service-discovery/membership registry for a bus fleet."""

    def __init__(
        self,
        env,
        heartbeat_interval: float = 0.5,
        suspicion_multiplier: float = 3.0,
        tracer=None,
        metrics=None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be positive: {heartbeat_interval}")
        if suspicion_multiplier <= 1.0:
            raise ValueError(f"suspicion_multiplier must exceed 1: {suspicion_multiplier}")
        self.env = env
        #: Both may be re-tuned on a live registry (a federation policy
        #: reload); the monitor reads them on every sweep.
        self.heartbeat_interval = heartbeat_interval
        self.suspicion_multiplier = suspicion_multiplier
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.members: dict[str, BusMember] = {}
        #: ``listener(kind, name)`` with kind in {"join", "leave", "suspect"}.
        self._listeners: list[Callable[[str, str], None]] = []
        self._monitoring = False

    @property
    def suspicion_after(self) -> float:
        """Seconds without a heartbeat after which a member is suspected."""
        return self.heartbeat_interval * self.suspicion_multiplier

    def add_listener(self, listener: Callable[[str, str], None]) -> None:
        self._listeners.append(listener)

    def _notify(self, kind: str, name: str) -> None:
        member = self.members.get(name)
        if member is not None:
            member.history.append((self.env.now, kind))
        if self.metrics.enabled:
            self.metrics.counter(f"federation.membership.{kind}").inc()
        for listener in list(self._listeners):
            listener(kind, name)

    # -- lifecycle -----------------------------------------------------------------

    def join(self, name: str) -> BusMember:
        member = BusMember(name=name, joined_at=self.env.now, last_heartbeat=self.env.now)
        self.members[name] = member
        self._notify("join", name)
        return member

    def leave(self, name: str) -> None:
        """Graceful departure (announced, not suspected)."""
        member = self.members.get(name)
        if member is None or not member.alive:
            return
        member.alive = False
        member.left_at = self.env.now
        self._notify("leave", name)

    def heartbeat(self, name: str) -> None:
        member = self.members.get(name)
        if member is not None and member.left_at is None:
            member.last_heartbeat = self.env.now
            if not member.alive:
                # A suspected member heartbeating again rejoins.
                member.alive = True
                member.suspected_at = None
                self._notify("join", name)

    def alive(self) -> list[str]:
        """Sorted names of members currently believed alive."""
        return sorted(name for name, member in self.members.items() if member.alive)

    def is_alive(self, name: str) -> bool:
        member = self.members.get(name)
        return member is not None and member.alive

    # -- failure suspicion ---------------------------------------------------------

    def start(self) -> None:
        """Run the suspicion monitor (idempotent)."""
        if not self._monitoring:
            self._monitoring = True
            self.env.process(self._monitor(), name="fleet-membership-monitor")

    def _monitor(self):
        while True:
            yield self.env.timeout(self.heartbeat_interval)
            self.check_now()

    def check_now(self) -> list[str]:
        """One suspicion sweep; returns the members newly suspected."""
        suspected = []
        for name in sorted(self.members):
            member = self.members[name]
            if not member.alive or member.left_at is not None:
                continue
            if self.env.now - member.last_heartbeat > self.suspicion_after:
                member.alive = False
                member.suspected_at = self.env.now
                suspected.append(name)
                if self.tracer.enabled:
                    span = self.tracer.start_span(
                        "federation.membership.suspect",
                        attributes={
                            "bus": name,
                            "last_heartbeat": str(member.last_heartbeat),
                        },
                    )
                    span.end(status="suspected")
                self._notify("suspect", name)
        return suspected

    def summary(self) -> dict:
        return {
            "alive": self.alive(),
            "members": {
                name: {
                    "alive": member.alive,
                    "joined_at": member.joined_at,
                    "suspected_at": member.suspected_at,
                    "left_at": member.left_at,
                }
                for name, member in sorted(self.members.items())
            },
        }
