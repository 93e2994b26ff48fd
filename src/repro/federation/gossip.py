"""Gossip-style anti-entropy of QoS observations between buses.

Each bus only measures the invocations it mediated itself, so its
``best_response_time``/``best_reliability`` selection would otherwise see
a fraction of the fleet's evidence. Every gossip round each alive bus
push-pulls its per-endpoint :class:`~repro.services.InvocationRecord`
digest with a seeded-random peer; deltas are applied in a sorted order so
fleet-wide QoS views converge deterministically.
"""

from __future__ import annotations

from itertools import islice

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.simulation import RandomSource

__all__ = ["GossipAgent", "QoSGossip"]


class GossipAgent:
    """One bus's view: its QoS service plus everything it has heard."""

    def __init__(self, name: str, qos) -> None:
        self.name = name
        self.qos = qos
        #: Per-endpoint identity sets of every record known (locally
        #: observed or merged), so re-gossip never double-counts. A record
        #: is hashed when it first enters one of these sets; set difference
        #: and update between agents reuse the stored hash.
        self.known: dict[str, set] = {}
        #: Per-endpoint ``total_invocations`` already folded into ``known``.
        self._folded: dict[str, int] = {}

    def sync_local(self) -> None:
        """Fold the records observed since the last sync into the known set.

        Local observations are appended, so the unseen ones are the newest
        ``total_invocations - folded`` of the window; an endpoint that saw
        no traffic is skipped on one integer comparison.
        """
        for address, endpoint in self.qos.endpoints.items():
            unseen = endpoint.total_invocations - self._folded.get(address, 0)
            if unseen:
                self.known.setdefault(address, set()).update(
                    islice(reversed(endpoint.records), unseen)
                )
                self._folded[address] = endpoint.total_invocations

    def merge(self, address: str, delta: set) -> None:
        """Take in records another agent knows and this one lacks."""
        self._folded[address] = self._folded.get(address, 0) + self.qos.merge_records(
            address, delta
        )
        self.known.setdefault(address, set()).update(delta)


class QoSGossip:
    """Runs periodic anti-entropy rounds over the fleet's QoS digests."""

    def __init__(
        self,
        env,
        interval_seconds: float = 2.0,
        fanout: int = 1,
        random_source: RandomSource | None = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"gossip interval must be positive: {interval_seconds}")
        if fanout < 1:
            raise ValueError(f"gossip fanout must be positive: {fanout}")
        self.env = env
        self.interval_seconds = interval_seconds
        self.fanout = fanout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._rng = (random_source or RandomSource()).stream("federation.gossip")
        self.agents: dict[str, GossipAgent] = {}
        self.rounds = 0
        self.records_exchanged = 0
        self._running = False

    def register(self, name: str, qos) -> GossipAgent:
        agent = GossipAgent(name, qos)
        self.agents[name] = agent
        return agent

    def unregister(self, name: str) -> None:
        self.agents.pop(name, None)

    def start(self, membership) -> None:
        """Run the periodic gossip loop against a membership view."""
        if not self._running:
            self._running = True
            self.env.process(self._loop(membership), name="fleet-gossip")

    def _loop(self, membership):
        while True:
            yield self.interval_seconds
            self.run_round(membership.alive())

    def run_round(self, alive: list[str]) -> int:
        """One anti-entropy round over the alive buses; returns records moved."""
        participants = sorted(name for name in alive if name in self.agents)
        if len(participants) < 2:
            return 0
        self.rounds += 1
        for name in participants:
            self.agents[name].sync_local()
        moved = 0
        for name in participants:
            peers = [p for p in participants if p != name]
            for _ in range(min(self.fanout, len(peers))):
                peer = self._rng.choice(peers)
                moved += self._exchange(self.agents[name], self.agents[peer])
        self.records_exchanged += moved
        if moved and self.metrics.enabled:
            self.metrics.counter("federation.gossip.records").inc(moved)
        return moved

    def _exchange(self, a: GossipAgent, b: GossipAgent) -> int:
        """Push-pull: each side merges what the other has and it lacks."""
        moved = 0
        for source, sink in ((a, b), (b, a)):
            for address in sorted(source.known):
                delta = source.known[address] - sink.known.get(address, set())
                if delta:
                    # Unsorted: merge_records orders the window itself.
                    sink.merge(address, delta)
                    moved += len(delta)
        return moved

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "records_exchanged": self.records_exchanged,
            "agents": sorted(self.agents),
        }
