"""Tests for the federated multi-bus fleet: consistent-hash placement,
membership suspicion, gossip QoS convergence, lease-based leader election
with crash failover, and policy-driven fleet configuration."""

import pytest

from conftest import ECHO_CONTRACT, EchoService, run_process
from repro.casestudies.scm import federation_policy_document
from repro.core.events import MASCEvent
from repro.faultinjection import BusCrashInjector
from repro.federation import (
    BusFleet,
    FederationService,
    FleetMembership,
    HashRing,
    LeaderElection,
    QoSGossip,
)
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer
from repro.policy import (
    AdaptationPolicy,
    FederationAction,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    SelectionStrategyAction,
    ShardRoutingAction,
)
from repro.services import InvocationOutcome, InvocationRecord, Invoker
from repro.wsbus import QoSMeasurementService


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    KEYS = [f"vep-{i}" for i in range(40)]

    def test_routing_is_deterministic(self):
        a = HashRing(["bus-0", "bus-1", "bus-2"])
        b = HashRing(["bus-2", "bus-0", "bus-1"])  # insertion order irrelevant
        assert [a.route(key) for key in self.KEYS] == [b.route(key) for key in self.KEYS]

    def test_removal_only_moves_the_departed_nodes_keys(self):
        ring = HashRing(["bus-0", "bus-1", "bus-2", "bus-3"])
        before = {key: ring.route(key) for key in self.KEYS}
        ring.remove("bus-1")
        for key, owner in before.items():
            if owner != "bus-1":
                assert ring.route(key) == owner
            else:
                assert ring.route(key) != "bus-1"

    def test_addition_reclaims_some_keys(self):
        ring = HashRing(["bus-0", "bus-1"])
        before = {key: ring.route(key) for key in self.KEYS}
        ring.add("bus-2")
        moved = [key for key in self.KEYS if ring.route(key) != before[key]]
        assert moved  # the new node takes ownership of a share...
        assert all(ring.route(key) == "bus-2" for key in moved)  # ...and only it

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().route("anything")

    def test_invalid_virtual_nodes(self):
        with pytest.raises(ValueError):
            HashRing(virtual_nodes=0)


# ---------------------------------------------------------------------------
# Policy-driven configuration
# ---------------------------------------------------------------------------


class TestFederationService:
    def test_inert_without_policies(self):
        service = FederationService(PolicyRepository())
        assert not service.active
        assert service.config() == FederationAction()
        assert service.pinned_bus("retailers-p0") is None

    def test_document_round_trips_and_configures(self):
        repository = PolicyRepository()
        repository.load(
            federation_policy_document(
                heartbeat_interval_seconds=0.25,
                suspicion_multiplier=4.0,
                gossip_interval_seconds=1.5,
                gossip_fanout=2,
                lease_seconds=2.0,
                virtual_nodes=16,
                pin_vep_pattern="orders-*",
                pin_bus="bus-1",
            )
        )
        service = FederationService(repository)
        assert service.active
        config = service.config()
        assert config.heartbeat_interval_seconds == 0.25
        assert config.suspicion_multiplier == 4.0
        assert config.gossip_interval_seconds == 1.5
        assert config.gossip_fanout == 2
        assert config.lease_seconds == 2.0
        assert config.virtual_nodes == 16
        assert service.pinned_bus("orders-7") == "bus-1"
        assert service.pinned_bus("retailers-p0") is None

    def test_fleet_honors_policy_config_and_pins(self, env, network):
        repository = PolicyRepository()
        repository.load(
            federation_policy_document(
                heartbeat_interval_seconds=0.25,
                lease_seconds=2.0,
                virtual_nodes=16,
                pin_vep_pattern="echo-pinned",
                pin_bus="bus-2",
            )
        )
        fleet = BusFleet(env, network, shards=3, repository=repository)
        assert fleet.membership.heartbeat_interval == 0.25
        assert fleet.election.lease_seconds == 2.0
        assert fleet.ring.virtual_nodes == 16
        vep = fleet.create_vep("echo-pinned", ECHO_CONTRACT, members=[])
        assert fleet.veps["echo-pinned"].owner == "bus-2"
        assert vep is fleet.buses["bus-2"].vep("echo-pinned")


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


class TestMembership:
    def test_silent_member_is_suspected(self, env):
        membership = FleetMembership(env, heartbeat_interval=1.0, suspicion_multiplier=3.0)
        events = []
        membership.router.subscribe(lambda kind, name: events.append((env.now, kind, name)))
        membership.join("a")
        membership.join("b")

        def beat():
            while True:
                membership.heartbeat("a")
                yield env.timeout(1.0)

        env.process(beat())
        membership.start()
        env.run(until=10.0)
        assert membership.alive() == ["a"]
        assert membership.members["b"].suspected_at is not None
        assert ("suspect", "b") in [(kind, name) for _, kind, name in events]

    def test_heartbeat_revives_a_suspected_member(self, env):
        membership = FleetMembership(env, heartbeat_interval=1.0, suspicion_multiplier=3.0)
        membership.join("a")
        env.run(until=5.0)
        assert membership.check_now() == ["a"]
        assert not membership.is_alive("a")
        membership.heartbeat("a")
        assert membership.is_alive("a")
        assert membership.members["a"].history[-1] == (5.0, "join")

    def test_graceful_leave_is_not_a_suspicion(self, env):
        membership = FleetMembership(env, heartbeat_interval=1.0)
        membership.join("a")
        membership.leave("a")
        assert membership.alive() == []
        assert membership.members["a"].left_at == 0.0
        assert membership.members["a"].suspected_at is None


# ---------------------------------------------------------------------------
# Gossip anti-entropy
# ---------------------------------------------------------------------------


def _record(target, caller, started, duration, ok=True):
    return InvocationRecord(
        caller=caller,
        target=target,
        operation="echo",
        started_at=started,
        finished_at=started + duration,
        outcome=InvocationOutcome.SUCCESS if ok else InvocationOutcome.FAULT,
    )


class TestGossip:
    def test_round_converges_both_directions(self, env):
        gossip = QoSGossip(env, interval_seconds=1.0)
        qos_a, qos_b = QoSMeasurementService(), QoSMeasurementService()
        gossip.register("a", qos_a)
        gossip.register("b", qos_b)
        qos_a.observe(_record("http://svc/x", "vep@a", 1.0, 0.2))
        qos_b.observe(_record("http://svc/y", "vep@b", 2.0, 0.4))
        moved = gossip.run_round(["a", "b"])
        assert moved == 2
        # Both sides now hold both observations.
        for qos in (qos_a, qos_b):
            assert qos.lookup("response_time", 0, "mean", "http://svc/x") == pytest.approx(0.2)
            assert qos.lookup("response_time", 0, "mean", "http://svc/y") == pytest.approx(0.4)
        # A second round with nothing new moves nothing (no double counting).
        assert gossip.run_round(["a", "b"]) == 0
        assert qos_b.endpoint("http://svc/x").total_invocations == 1

    def test_gossiped_evidence_drives_best_of_selection(self, env):
        """A bus that never mediated an endpoint still selects with the
        fleet's evidence for it after gossip."""
        from repro.simulation import RandomSource
        from repro.wsbus import SelectionService

        gossip = QoSGossip(env, interval_seconds=1.0)
        qos_a, qos_b = QoSMeasurementService(), QoSMeasurementService()
        gossip.register("a", qos_a)
        gossip.register("b", qos_b)
        # Bus A observed: slow member "x", fast member "y".
        qos_a.observe(_record("http://svc/x", "vep@a", 1.0, 0.9))
        qos_a.observe(_record("http://svc/y", "vep@a", 1.0, 0.1))
        selection_b = SelectionService(qos_b, RandomSource(4))
        members = ["http://svc/x", "http://svc/y"]
        # Without gossip bus B has no evidence: falls back to the first member.
        assert selection_b.select("vep", "best_response_time", members) == "http://svc/x"
        gossip.run_round(["a", "b"])
        assert selection_b.select("vep", "best_response_time", members) == "http://svc/y"

    def test_single_member_round_is_a_no_op(self, env):
        gossip = QoSGossip(env, interval_seconds=1.0)
        gossip.register("a", QoSMeasurementService())
        assert gossip.run_round(["a"]) == 0
        assert gossip.rounds == 0


# ---------------------------------------------------------------------------
# Leader election
# ---------------------------------------------------------------------------


class TestLeaderElection:
    def _world(self, env, lease_seconds=3.0):
        membership = FleetMembership(env, heartbeat_interval=0.5)
        election = LeaderElection(env, membership, lease_seconds=lease_seconds)
        return membership, election

    def test_lowest_named_alive_bus_wins(self, env):
        membership, election = self._world(env)
        membership.join("bus-1")
        membership.join("bus-0")
        election.evaluate()
        assert election.leader == "bus-0"
        assert election.epoch == 1

    def test_no_usurping_before_lease_expiry(self, env):
        membership, election = self._world(env, lease_seconds=3.0)
        membership.join("bus-0")
        membership.join("bus-1")
        election.evaluate()
        assert election.leader == "bus-0"
        expires_at = election.lease.expires_at
        # bus-0 goes silent; suspicion alone must not transfer leadership.
        membership.members["bus-0"].alive = False
        env.run(until=expires_at - 0.5)
        election.evaluate()
        assert election.leader == "bus-0"  # lease still held
        env.run(until=expires_at + 0.1)
        election.evaluate()
        assert election.leader == "bus-1"
        assert election.epoch == 2

    def test_renewal_keeps_the_leader(self, env):
        membership, election = self._world(env, lease_seconds=2.0)
        membership.join("bus-0")
        election.start()
        env.run(until=10.0)  # many lease periods; bus-0 stays alive
        assert election.leader == "bus-0"
        assert election.epoch == 1
        assert election.lease.expires_at > 10.0


# ---------------------------------------------------------------------------
# The fleet end to end
# ---------------------------------------------------------------------------


def deploy_members(env, container, names=("a", "b", "c")):
    addresses = []
    for name in names:
        address = f"http://svc/{name}"
        container.deploy(EchoService(env, f"echo-{name}", address))
        addresses.append(address)
    return addresses


def call(env, network, address, text="hi", timeout=30.0):
    invoker = Invoker(env, network, caller="client")

    def client():
        payload = ECHO_CONTRACT.operation("echo").input.build(text=text)
        response = yield from invoker.invoke(address, "echo", payload, timeout=timeout)
        return response.body.child_text("text")

    return run_process(env, client())


class TestBusFleet:
    def test_veps_spread_over_shards_and_serve(self, env, network, container):
        members = deploy_members(env, container)
        fleet = BusFleet(env, network, shards=4, member_timeout=5.0)
        for index in range(8):
            fleet.create_vep(f"echo-{index}", ECHO_CONTRACT, members=members)
        owners = {spec.owner for spec in fleet.veps.values()}
        assert len(owners) > 1  # placement actually shards
        for index in range(8):
            assert call(env, network, f"http://fleet/echo-{index}").endswith("@echo-a")

    def test_exactly_one_leader_enacts_fleet_events(self, env, network, container):
        members = deploy_members(env, container)
        repository = PolicyRepository()
        document = PolicyDocument("fleet-reaction")
        document.adaptation_policies.append(
            AdaptationPolicy(
                name="switch-on-alarm",
                triggers=("fleet.alarm",),
                scope=PolicyScope(service_type="Echo"),
                actions=(SelectionStrategyAction(strategy="best_reliability"),),
            )
        )
        repository.load(document)
        tracer = Tracer()
        tracer.rebind_clock(env)
        memory = tracer.add_exporter(InMemoryExporter())
        fleet = BusFleet(
            env, network, shards=3, repository=repository,
            member_timeout=5.0, tracer=tracer,
        )
        fleet.create_vep("echo", ECHO_CONTRACT, members=members)
        assert fleet.leader == "bus-0"
        # The same detection arrives at every bus (leader and followers).
        event = MASCEvent(name="fleet.alarm", time=env.now, service_type="Echo")
        for name in sorted(fleet.buses):
            fleet.buses[name].adaptation.handle_event(event)
        spans = [s for s in memory.spans if s.name == "wsbus.adaptation.event"]
        assert len(spans) == 3
        assert {span.attributes["bus"] for span in spans} == {"bus-0"}
        followers = [fleet.buses[n].adaptation for n in ("bus-1", "bus-2")]
        assert [manager.forwarded_events for manager in followers] == [1, 1]
        assert fleet.buses["bus-0"].adaptation.forwarded_events == 0

    def test_crash_transfers_leadership_and_vep_placement(self, env, network, container):
        members = deploy_members(env, container)
        tracer = Tracer()
        tracer.rebind_clock(env)
        memory = tracer.add_exporter(InMemoryExporter())
        fleet = BusFleet(env, network, shards=3, member_timeout=5.0, tracer=tracer)
        for index in range(6):
            fleet.create_vep(f"echo-{index}", ECHO_CONTRACT, members=members)
        assert fleet.leader == "bus-0"
        owned_by_leader = [
            name for name, spec in fleet.veps.items() if spec.owner == "bus-0"
        ]
        assert owned_by_leader  # the scenario must exercise VEP failover too

        injector = BusCrashInjector(env, fleet, "bus-0", at_time=5.0)
        env.run(until=injector.crashed_event)
        assert injector.crash_time == 5.0
        # The lease has not expired yet: no usurping during the outage window.
        assert fleet.leader == "bus-0"
        env.run(until=20.0)
        assert fleet.leader == "bus-1"
        assert fleet.election.epoch == 2
        # Every VEP moved off the dead bus and still answers at its address.
        for name, spec in fleet.veps.items():
            assert spec.owner != "bus-0"
            assert call(env, network, spec.address).endswith("@echo-a")
        # Followers now forward to the new leader's manager.
        assert fleet.buses["bus-2"].adaptation.forward_to is fleet.buses["bus-1"].adaptation
        assert fleet.buses["bus-1"].adaptation.forward_to is None
        names = [span.name for span in memory.spans]
        assert "federation.bus.crash" in names
        assert "federation.membership.suspect" in names
        assert "federation.leader.transfer" in names
        assert "federation.vep.failover" in names
        transfer = next(s for s in memory.spans if s.name == "federation.leader.transfer")
        assert transfer.attributes == {"leader": "bus-1", "previous": "bus-0", "epoch": "2"}

    def test_graceful_removal_hands_off_immediately(self, env, network, container):
        members = deploy_members(env, container)
        fleet = BusFleet(env, network, shards=2, member_timeout=5.0)
        fleet.create_vep("echo", ECHO_CONTRACT, members=members)
        assert fleet.leader == "bus-0"
        fleet.remove_bus("bus-0")
        # No lease wait on a graceful leave: the lease is released at once.
        assert fleet.leader == "bus-1"
        assert fleet.veps["echo"].owner == "bus-1"
        assert call(env, network, "http://fleet/echo").endswith("@echo-a")

    def test_bus_join_rebalances_and_keeps_serving(self, env, network, container):
        members = deploy_members(env, container)
        fleet = BusFleet(env, network, shards=2, member_timeout=5.0)
        for index in range(8):
            fleet.create_vep(f"echo-{index}", ECHO_CONTRACT, members=members)
        before = {name: spec.owner for name, spec in fleet.veps.items()}
        fleet.add_bus("bus-2")
        after = {name: spec.owner for name, spec in fleet.veps.items()}
        moved = [name for name in before if after[name] != before[name]]
        assert moved  # the new bus takes a share...
        assert all(after[name] == "bus-2" for name in moved)  # ...and only it
        for name in fleet.veps:
            assert call(env, network, fleet.veps[name].address).endswith("@echo-a")

    def test_vep_member_churn_during_operation(self, env, network, container):
        members = deploy_members(env, container, names=("a", "b"))
        fleet = BusFleet(env, network, shards=2, member_timeout=5.0)
        fleet.create_vep(
            "echo", ECHO_CONTRACT, members=members, selection_strategy="round_robin"
        )
        # Round-robin over the two initial members.
        assert call(env, network, "http://fleet/echo") == "hi@echo-a"
        assert call(env, network, "http://fleet/echo") == "hi@echo-b"
        # A third member joins at runtime and enters the rotation.
        container.deploy(EchoService(env, "echo-c", "http://svc/c"))
        fleet.add_vep_member("echo", "http://svc/c")
        picks = {call(env, network, "http://fleet/echo") for _ in range(3)}
        assert picks == {"hi@echo-a", "hi@echo-b", "hi@echo-c"}
        # A member leaves; the rotation shrinks without skipping survivors.
        fleet.remove_vep_member("echo", "http://svc/a")
        picks = [call(env, network, "http://fleet/echo") for _ in range(4)]
        assert "hi@echo-a" not in picks
        assert set(picks) == {"hi@echo-b", "hi@echo-c"}
        # The placement record follows the churn, so failover re-creates
        # the VEP with the *current* membership.
        assert fleet.veps["echo"].members == ["http://svc/b", "http://svc/c"]

    def test_membership_survives_vep_failover(self, env, network, container):
        """Member churn applied before a crash is preserved by failover."""
        members = deploy_members(env, container, names=("a", "b"))
        fleet = BusFleet(env, network, shards=2, member_timeout=5.0)
        for index in range(8):
            fleet.create_vep(f"echo-{index}", ECHO_CONTRACT, members=members)
        moved_name = next(
            name for name, spec in sorted(fleet.veps.items()) if spec.owner == "bus-1"
        )
        container.deploy(EchoService(env, "echo-c", "http://svc/c"))
        fleet.add_vep_member(moved_name, "http://svc/c")
        BusCrashInjector(env, fleet, "bus-1", at_time=1.0)
        env.run(until=15.0)
        spec = fleet.veps[moved_name]
        assert spec.owner == "bus-0"
        assert "http://svc/c" in spec.members
        assert fleet.buses["bus-0"].vep(moved_name).members == spec.members

    def test_fleet_metrics_and_stats(self, env, network, container):
        members = deploy_members(env, container)
        metrics = MetricsRegistry()
        fleet = BusFleet(env, network, shards=2, member_timeout=5.0, metrics=metrics)
        fleet.create_vep("echo", ECHO_CONTRACT, members=members)
        BusCrashInjector(env, fleet, "bus-0", at_time=2.0)
        env.run(until=15.0)
        counters = metrics.snapshot()["counters"]
        assert counters["federation.bus.crashed"] == 1
        assert counters["federation.membership.suspect"] == 1
        assert counters["federation.leader.changes"] == 2
        assert counters["federation.vep.moved"] >= 1
        stats = fleet.stats_summary()
        assert stats["leader"] == "bus-1"
        assert stats["epoch"] == 2
        assert set(stats["buses"]) == {"bus-1"}
        assert stats["placement"]["echo"] == "bus-1"

    def test_duplicate_bus_and_vep_names_rejected(self, env, network):
        fleet = BusFleet(env, network, shards=2, member_timeout=5.0)
        with pytest.raises(ValueError):
            fleet.add_bus("bus-0")
        fleet.create_vep("echo", ECHO_CONTRACT, members=[])
        with pytest.raises(ValueError):
            fleet.create_vep("echo", ECHO_CONTRACT, members=[])

    def test_crash_injector_validates_inputs(self, env, network):
        fleet = BusFleet(env, network, shards=2, member_timeout=5.0)
        with pytest.raises(ValueError):
            BusCrashInjector(env, fleet, "bus-9", at_time=1.0)
        with pytest.raises(ValueError):
            BusCrashInjector(env, fleet, "bus-0", at_time=-1.0)
