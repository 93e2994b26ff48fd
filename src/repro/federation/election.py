"""Lease-based leader election for the fleet's adaptation plane.

Exactly one bus may enact fleet-wide policy reactions. The election is a
simulated lease: the lowest-named alive bus holds a lease it renews while
alive; when it dies, followers must wait for the lease to *expire* before
the next candidate takes over (the realistic failover gap), then the new
leader is installed and listeners re-wire event forwarding.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.observability import NULL_METRICS, NULL_TRACER

__all__ = ["LeaderElection", "LeaderLease"]


@dataclass
class LeaderLease:
    """The current leadership grant."""

    holder: str
    epoch: int
    granted_at: float
    expires_at: float


class LeaderElection:
    """Grants and transfers the fleet's adaptation leadership."""

    def __init__(
        self,
        env,
        membership,
        lease_seconds: float = 3.0,
        tracer=None,
        metrics=None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive: {lease_seconds}")
        self.env = env
        self.membership = membership
        self.lease_seconds = lease_seconds
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.lease: LeaderLease | None = None
        self.epoch = 0
        #: ``(time, previous, new)`` per change, oldest first.
        self.changes: list[tuple[float, str | None, str]] = []
        #: ``listener(previous, new)`` fired on every leadership change.
        self._listeners: list[Callable[[str | None, str], None]] = []
        self._running = False

    @property
    def leader(self) -> str | None:
        return self.lease.holder if self.lease is not None else None

    def add_listener(self, listener: Callable[[str | None, str], None]) -> None:
        self._listeners.append(listener)

    def start(self) -> None:
        """Run the periodic lease check (idempotent)."""
        if not self._running:
            self._running = True
            self.evaluate()
            self.env.process(self._loop(), name="fleet-election")

    def _loop(self):
        # Check at a fraction of the lease so renewal always lands before
        # expiry and takeover happens promptly after it; read every turn,
        # so a re-tuned ``lease_seconds`` applies from the next sleep.
        while True:
            yield self.env.timeout(self.lease_seconds / 3.0)
            self.evaluate()

    def evaluate(self) -> None:
        """Renew, expire, or grant the lease against the membership view."""
        alive = self.membership.alive()
        lease = self.lease
        if lease is not None and lease.holder in alive:
            lease.expires_at = self.env.now + self.lease_seconds
            return
        if lease is not None and self.env.now < lease.expires_at:
            # The holder is suspected dead but its lease has not expired:
            # no follower may usurp an unexpired grant.
            return
        if not alive:
            return
        self._elect(alive[0])

    def _elect(self, new: str) -> None:
        previous = self.leader
        if new == previous:
            return
        self.epoch += 1
        self.lease = LeaderLease(
            holder=new,
            epoch=self.epoch,
            granted_at=self.env.now,
            expires_at=self.env.now + self.lease_seconds,
        )
        self.changes.append((self.env.now, previous, new))
        if self.metrics.enabled:
            self.metrics.counter("federation.leader.changes").inc()
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "federation.leader.elected" if previous is None else "federation.leader.transfer",
                attributes={
                    "leader": new,
                    "previous": previous or "",
                    "epoch": str(self.epoch),
                },
            )
            span.end(status="elected")
        for listener in list(self._listeners):
            listener(previous, new)

    def summary(self) -> dict:
        return {
            "leader": self.leader,
            "epoch": self.epoch,
            "changes": [
                {"time": time, "previous": previous, "new": new}
                for time, previous, new in self.changes
            ],
        }
