"""A federated fleet of wsBus instances over one simulated environment.

The paper's middleware is a singleton; :class:`BusFleet` makes the
adaptation plane distributable: N :class:`~repro.wsbus.WsBus` shards front
partitioned VEP sets, a consistent-hash ring (policy-overridable through
:class:`~repro.federation.service.FederationService`) places each VEP on
the shard owning it, heartbeat membership suspects dead buses, gossip
spreads QoS observations so best-of selection converges fleet-wide, and a
lease-based leader election leaves exactly one bus's Adaptation Manager
enacting fleet-wide policy reactions (followers forward their MASC/SLO
events to the leader).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.federation.election import LeaderElection
from repro.federation.gossip import QoSGossip
from repro.federation.membership import FleetMembership
from repro.federation.ring import HashRing
from repro.federation.service import FederationService
from repro.observability import NULL_METRICS, NULL_TRACER
from repro.policy import PolicyRepository
from repro.wsbus import WsBus

__all__ = ["BusFleet", "FleetVep"]


@dataclass
class FleetVep:
    """Placement record for one logical VEP (what failover re-creates)."""

    name: str
    contract: object
    owner: str
    address: str
    members: list[str] = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)
    moves: int = 0


class BusFleet:
    """N wsBus shards with membership, gossip QoS and a leader."""

    def __init__(
        self,
        env,
        network,
        shards: int = 4,
        repository=None,
        registry=None,
        random_source=None,
        base_address: str = "http://fleet",
        member_timeout: float | None = 10.0,
        qos_window: int = 500,
        mediation_capacity: int | None = None,
        colocated_with_clients: bool = False,
        tracer=None,
        metrics=None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"fleet needs at least one shard: {shards}")
        self.env = env
        self.network = network
        self.repository = repository if repository is not None else PolicyRepository()
        self.registry = registry
        self.random_source = random_source
        self.base_address = base_address
        self.member_timeout = member_timeout
        self.qos_window = qos_window
        self.mediation_capacity = mediation_capacity
        self.colocated_with_clients = colocated_with_clients
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

        self.federation = FederationService(self.repository)
        config = self.federation.config()
        self.membership = FleetMembership(
            env,
            heartbeat_interval=config.heartbeat_interval_seconds,
            suspicion_multiplier=config.suspicion_multiplier,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.election = LeaderElection(
            env,
            self.membership,
            lease_seconds=config.lease_seconds,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.gossip = QoSGossip(
            env,
            interval_seconds=config.gossip_interval_seconds,
            fanout=config.gossip_fanout,
            random_source=random_source,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.ring = HashRing(virtual_nodes=config.virtual_nodes)
        self.buses: dict[str, WsBus] = {}
        self.veps: dict[str, FleetVep] = {}
        self._crashed: set[str] = set()

        self.membership.router.subscribe(self._on_membership_event)
        self.election.router.subscribe(self._on_leader_change)
        for index in range(shards):
            self.add_bus(f"bus-{index}")
        self.membership.start()
        self.election.start()
        self.gossip.start(self.membership)
        # After the FederationService's own subscription, so config() is current.
        self.repository.router.subscribe(self._retune, ("changed",))

    def _retune(self) -> None:
        """Apply the federation tuning to the running fleet (every repository change).

        Each loop reads its interval when it next goes to sleep, so a wait
        already under way ends when it was due. The ring's ``virtual_nodes``
        is read at construction only: changing it would re-place every VEP.
        """
        config = self.federation.config()
        self.membership.heartbeat_interval = config.heartbeat_interval_seconds
        self.membership.suspicion_multiplier = config.suspicion_multiplier
        self.election.lease_seconds = config.lease_seconds
        self.gossip.interval_seconds = config.gossip_interval_seconds
        self.gossip.fanout = config.gossip_fanout

    # -- bus lifecycle --------------------------------------------------------------

    @property
    def leader(self) -> str | None:
        return self.election.leader

    def add_bus(self, name: str) -> WsBus:
        """Join a (new or returning) bus instance to the fleet."""
        if name in self.buses and name not in self._crashed:
            raise ValueError(f"bus {name!r} already in the fleet")
        self._crashed.discard(name)
        bus = WsBus(
            self.env,
            self.network,
            repository=self.repository,
            registry=self.registry,
            random_source=self.random_source,
            base_address=f"{self.base_address}/{name}",
            member_timeout=self.member_timeout,
            qos_window=self.qos_window,
            colocated_with_clients=self.colocated_with_clients,
            tracer=self.tracer,
            metrics=self.metrics,
            name=name,
            mediation_capacity=self.mediation_capacity,
        )
        bus.adaptation.owner_label = name
        self.buses[name] = bus
        self.gossip.register(name, bus.qos)
        self.ring.add(name)
        self.membership.join(name)
        self.env.process(self._heartbeat_loop(name), name=("fleet-heartbeat", name))
        self._apply_leadership()
        self._rebalance()
        return bus

    def remove_bus(self, name: str) -> None:
        """Graceful departure: hand off VEPs, release any lease."""
        if name not in self.buses:
            return
        self.membership.leave(name)

    def crash_bus(self, name: str) -> None:
        """Abrupt death: the bus stops heartbeating and serving instantly.

        Its VEP frontdoors go dark until failure suspicion triggers
        re-placement on the survivors; if it held the leadership lease,
        followers keep forwarding events into the void until the lease
        expires and a new leader is elected — the realistic outage window.
        """
        if name in self._crashed or name not in self.buses:
            return
        self._crashed.add(name)
        bus = self.buses[name]
        for vep_name in sorted(self.veps):
            if self.veps[vep_name].owner == name:
                bus.remove_vep(vep_name)
        if self.metrics.enabled:
            self.metrics.counter("federation.bus.crashed").inc()
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "federation.bus.crash", attributes={"bus": name}
            )
            span.end(status="crashed")

    def _heartbeat_loop(self, name: str):
        while name not in self._crashed and name in self.buses:
            self.membership.heartbeat(name)
            yield self.membership.heartbeat_interval

    # -- membership / leadership reactions ------------------------------------------

    def _on_membership_event(self, kind: str, name: str) -> None:
        if kind in ("suspect", "leave"):
            if name in self.ring:
                self.ring.remove(name)
                self.gossip.unregister(name)
            if kind == "leave":
                if self.election.leader == name and self.election.lease is not None:
                    # Stepping down gracefully releases the lease at once.
                    self.election.lease.expires_at = self.env.now
                owned = [v for v in sorted(self.veps) if self.veps[v].owner == name]
                self.election.evaluate()
                if owned and len(self.ring):
                    self._rebalance()
            else:
                self.election.evaluate()
                if len(self.ring):
                    self._rebalance()
        elif kind == "join":
            if name not in self.ring and name in self.buses and name not in self._crashed:
                self.ring.add(name)
                if name not in self.gossip.agents:
                    self.gossip.register(name, self.buses[name].qos)
            self.election.evaluate()
            self._rebalance()

    def _on_leader_change(self, previous: str | None, new: str) -> None:
        self._apply_leadership()

    def _apply_leadership(self) -> None:
        leader = self.election.leader
        leader_manager = self.buses[leader].adaptation if leader in self.buses else None
        for name, bus in self.buses.items():
            if name in self._crashed:
                continue
            bus.adaptation.forward_to = None if name == leader else leader_manager

    # -- VEP placement ---------------------------------------------------------------

    def route(self, vep_name: str, service_type: str | None = None) -> str:
        """The bus owning a VEP: policy pin when alive, else the ring."""
        pinned = self.federation.pinned_bus(vep_name, service_type)
        if pinned is not None and pinned in self.ring:
            return pinned
        return self.ring.route(vep_name)

    def create_vep(self, name: str, contract, members=None, **kwargs):
        """Create a logical VEP, placed on the shard owning it.

        The VEP's address lives under the *fleet* base address — clients
        target the logical name; which bus serves it is a placement
        decision that failover may revisit.
        """
        if name in self.veps:
            raise ValueError(f"fleet VEP {name!r} already exists")
        owner = self.route(name, contract.service_type)
        address = f"{self.base_address}/{name}"
        vep = self.buses[owner].create_vep(
            name, contract, members=members, address=address, **kwargs
        )
        self.veps[name] = FleetVep(
            name=name,
            contract=contract,
            owner=owner,
            address=address,
            members=list(vep.members),
            kwargs=dict(kwargs),
        )
        if self.metrics.enabled:
            self.metrics.counter(f"federation.vep.placed.{owner}").inc()
        return vep

    def vep(self, name: str):
        spec = self.veps.get(name)
        if spec is None:
            return None
        return self.buses[spec.owner].vep(name)

    def _rebalance(self) -> None:
        """Move every VEP whose owner no longer matches the routing."""
        if not len(self.ring):
            return
        for name in sorted(self.veps):
            spec = self.veps[name]
            owner = self.route(name, getattr(spec.contract, "service_type", None))
            if owner != spec.owner:
                self._move_vep(spec, owner)

    def _move_vep(self, spec: FleetVep, new_owner: str) -> None:
        old_bus = self.buses.get(spec.owner)
        if spec.owner not in self._crashed and old_bus is not None and spec.name in old_bus.veps:
            # Capture live membership (churn may have changed it) before
            # tearing the old placement down.
            spec.members = list(old_bus.veps[spec.name].members)
            old_bus.remove_vep(spec.name)
        vep = self.buses[new_owner].create_vep(
            spec.name,
            spec.contract,
            members=list(spec.members),
            address=spec.address,
            **spec.kwargs,
        )
        previous = spec.owner
        spec.owner = new_owner
        spec.moves += 1
        spec.members = list(vep.members)
        if self.metrics.enabled:
            self.metrics.counter("federation.vep.moved").inc()
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "federation.vep.failover",
                attributes={"vep": spec.name, "from": previous, "to": new_owner},
            )
            span.end(status="moved")

    # -- VEP member churn --------------------------------------------------------------

    def add_vep_member(self, vep_name: str, address: str) -> None:
        """Service discovery: a new member joins a logical VEP at runtime."""
        spec = self.veps[vep_name]
        bus = self.buses[spec.owner]
        vep = bus.veps[vep_name]
        vep.add_member(address)
        bus.slo.register_endpoint(address, spec.contract.service_type)
        spec.members = list(vep.members)

    def remove_vep_member(self, vep_name: str, address: str) -> None:
        """A member leaves a logical VEP at runtime."""
        spec = self.veps[vep_name]
        vep = self.buses[spec.owner].veps[vep_name]
        vep.remove_member(address)
        spec.members = list(vep.members)

    # -- reporting ---------------------------------------------------------------------

    def stats_summary(self) -> dict:
        """Fleet-wide statistics for experiment reports."""
        return {
            "leader": self.leader,
            "epoch": self.election.epoch,
            "placement": {name: spec.owner for name, spec in sorted(self.veps.items())},
            "moves": sum(spec.moves for spec in self.veps.values()),
            "membership": self.membership.summary(),
            "election": self.election.summary(),
            "gossip": self.gossip.summary(),
            "buses": {
                name: self.buses[name].stats_summary()
                for name in sorted(self.buses)
                if name not in self._crashed
            },
        }
