"""Fault specs and the injectors that apply them."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.simulation import Environment, RandomSource
from repro.soap import FaultCode, SoapEnvelope, SoapFault
from repro.transport import Network, NetworkEndpoint

__all__ = [
    "ApplicationFault",
    "BusCrash",
    "BusCrashInjector",
    "DowntimeLog",
    "EndpointFault",
    "FaultInjector",
    "ProcessCrashInjector",
]


@dataclass(frozen=True)
class EndpointFault:
    """One endpoint's fault schedule, as data.

    After ``start_after`` seconds the endpoint cycles: ``up`` seconds
    healthy, then ``down`` seconds faulted, ``cycles`` times (None: for
    ever). While faulted it is unavailable when ``delay`` is None, and
    otherwise ``delay`` seconds slower. With ``random`` the two stretches
    are exponential with means ``up`` and ``down``, drawn once per cycle
    (the MTBF/MTTR of the paper's availability definition); otherwise they
    are fixed. A zero-second stretch is not waited.
    """

    address: str
    up: float
    down: float
    delay: float | None = None
    random: bool = False
    start_after: float = 0.0
    cycles: int | None = None

    def __post_init__(self) -> None:
        # Written so that a NaN anywhere fails the check.
        if not (
            self.down > 0
            and self.up >= 0
            and (self.up > 0 or not self.random)
            and (self.delay is None or self.delay > 0)
            and self.start_after >= 0
            and (self.cycles is None or self.cycles >= 1)
        ):
            raise ValueError(
                "need down > 0, up >= 0 (up > 0 when random), delay > 0 when set, "
                f"start_after >= 0 and cycles >= 1 when set: {self}"
            )


@dataclass(frozen=True)
class ApplicationFault:
    """Unexpected results: a request at ``address`` is answered by a
    ``ServiceFailure`` fault with ``probability`` instead of being served."""

    address: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"fault probability out of [0, 1]: {self.probability}")


@dataclass(frozen=True)
class BusCrash:
    """Crash fleet bus ``bus`` at simulated time ``at`` (see :class:`BusCrashInjector`)."""

    bus: str
    at: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.at < math.inf:
            raise ValueError(f"crash time must be finite and non-negative: {self.at}")


@dataclass
class DowntimeLog:
    """Recorded unavailability windows for one endpoint."""

    address: str
    windows: list[tuple[float, float]] = field(default_factory=list)
    _open_since: float | None = None

    def mark_down(self, now: float) -> None:
        if self._open_since is None:
            self._open_since = now

    def mark_up(self, now: float) -> None:
        if self._open_since is not None:
            self.windows.append((self._open_since, now))
            self._open_since = None

    def close(self, now: float) -> None:
        """Close any still-open window at the end of the observation period."""
        self.mark_up(now)

    def total_downtime(self, horizon: float) -> float:
        closed = sum(end - start for start, end in self.windows)
        if self._open_since is not None:
            closed += max(0.0, horizon - self._open_since)
        return closed

    def availability(self, horizon: float) -> float:
        """Observed availability over ``[0, horizon]``."""
        if horizon <= 0:
            return 1.0
        return max(0.0, 1.0 - self.total_downtime(horizon) / horizon)

    @property
    def failure_count(self) -> int:
        return len(self.windows) + (1 if self._open_since is not None else 0)


class FaultInjector:
    """Applies :class:`EndpointFault` and :class:`ApplicationFault` specs.

    Injection at a proxied address hits the origin behind it
    (:meth:`~repro.transport.Network.fault_injection_target`). Endpoint
    fault windows overlap the way their effects add up: delays stack, and
    an endpoint stays unavailable until the last window holding it down
    closes. ``logs`` maps each address an unavailability fault was
    injected at to its endpoint's :class:`DowntimeLog`, the union of those
    windows; ``injected_counts`` maps each address an application fault
    was injected at to the faulty replies it gave.
    """

    def __init__(self, env: Environment, network: Network, random_source: RandomSource) -> None:
        self.env = env
        self.network = network
        kinds = ("availability", "degradation", "appfaults")
        self._sources = {kind: random_source.fork(kind) for kind in kinds}
        self.logs: dict[str, DowntimeLog] = {}
        self.injected_counts: dict[str, int] = {}
        self._outages: dict[NetworkEndpoint, DowntimeLog] = {}
        self._holding_down: Counter[NetworkEndpoint] = Counter()

    def inject(self, fault: EndpointFault | ApplicationFault) -> None:
        """Start ``fault``."""
        endpoint = self.network.fault_injection_target(fault.address)
        if endpoint is None:
            raise ValueError(f"no endpoint registered at {fault.address!r}")
        if isinstance(fault, ApplicationFault):
            self._answer_faulty(endpoint, fault)
            return
        rng = log = None
        kind = "availability" if fault.delay is None else "degradation"
        if fault.random:
            rng = self._sources[kind].stream(f"{kind}.{fault.address}")
        if fault.delay is None:
            log = self._outages.setdefault(endpoint, DowntimeLog(fault.address))
            self.logs[fault.address] = log
        self.env.process(self._run(endpoint, fault, rng, log), name=(kind, fault.address))

    def _run(
        self, endpoint: NetworkEndpoint, fault: EndpointFault, rng, log: DowntimeLog | None
    ) -> Generator:
        env = self.env
        if fault.start_after > 0:
            yield fault.start_after
        completed = 0
        while fault.cycles is None or completed < fault.cycles:
            up = rng.expovariate(1.0 / fault.up) if fault.random else fault.up
            if up > 0:
                yield up
            if fault.delay is None:
                self._holding_down[endpoint] += 1
                endpoint.available = False
                log.mark_down(env.now)
            else:
                endpoint.added_delay_seconds += fault.delay
            yield rng.expovariate(1.0 / fault.down) if fault.random else fault.down
            if fault.delay is None:
                self._holding_down[endpoint] -= 1
                if not self._holding_down[endpoint]:
                    endpoint.available = True
                    log.mark_up(env.now)
            else:
                endpoint.added_delay_seconds = max(0.0, endpoint.added_delay_seconds - fault.delay)
            completed += 1

    def _answer_faulty(self, endpoint: NetworkEndpoint, fault: ApplicationFault) -> None:
        """Wrap ``endpoint``'s handler in ``fault``'s faulty replies."""
        address = fault.address
        rng = self._sources["appfaults"].stream(f"appfault.{address}")
        inner = endpoint.handler
        self.injected_counts.setdefault(address, 0)

        def wrapped(request: SoapEnvelope) -> Generator:
            if rng.random() < fault.probability:
                self.injected_counts[address] += 1
                yield 0.0
                return request.reply_fault(
                    SoapFault(
                        FaultCode.SERVICE_FAILURE,
                        "injected application failure",
                        actor=address,
                        source="fault-injector",
                    )
                )
            return (yield from inner(request))

        endpoint.handler = wrapped

    def finalize(self) -> None:
        """Close open windows at the current instant (end of experiment)."""
        for log in self.logs.values():
            log.close(self.env.now)


class ProcessCrashInjector:
    """Kills the workflow engine after a set number of activity completions.

    The crash-recovery counterpart of :class:`FaultInjector`: instead of
    degrading a *service*, it takes down the *orchestration host* mid-flight.
    Attach to the engine under test (``engine.add_service(...)``); once the
    configured number of ``activity_completed`` events has been
    observed, it calls ``engine.crash()`` — live instances freeze at their
    next activity boundary (the state their latest checkpoint captured) and
    recovery must rehydrate them from the checkpoint store into a fresh
    engine. ``crashed_event`` fires at the kill, so a scenario can run the
    simulation up to the crash and then schedule the recovery phase.
    """

    def __init__(self, env: Environment, crash_after_completions: int) -> None:
        if crash_after_completions < 1:
            raise ValueError("crash_after_completions must be >= 1")
        self.env = env
        self.crash_after_completions = crash_after_completions
        self.completions_seen = 0
        self.crash_time: float | None = None
        self.crashed_event = env.event()
        self._engine = None

    # A runtime service by duck typing, so this module stays free of
    # orchestration imports.

    kinds = frozenset({"activity_completed"})

    def attached(self, engine) -> None:
        self._engine = engine

    def on_event(self, event) -> None:
        self.completions_seen += 1
        if (
            self.completions_seen >= self.crash_after_completions
            and self._engine is not None
            and not self._engine.crashed
        ):
            self._engine.crash("injected engine crash")
            self.crash_time = self.env.now
            if not self.crashed_event.triggered:
                self.crashed_event.succeed(self.env.now)


class BusCrashInjector:
    """Kills one bus of a federated fleet at a fixed simulated time.

    The federation counterpart of :class:`ProcessCrashInjector`: instead
    of the orchestration host, it takes down a whole *bus instance* —
    heartbeats stop, its VEP frontdoors go dark, and if it held the
    leadership lease the fleet must detect the failure and transfer
    leadership. ``crashed_event`` fires at the kill so scenarios can
    sequence the failover phase deterministically.
    """

    def __init__(self, env: Environment, fleet, bus_name: str, at_time: float) -> None:
        if at_time < 0:
            raise ValueError(f"crash time must be non-negative: {at_time}")
        if bus_name not in fleet.buses:
            raise ValueError(f"unknown bus {bus_name!r}")
        self.env = env
        self.fleet = fleet
        self.bus_name = bus_name
        self.at_time = at_time
        self.crash_time: float | None = None
        self.crashed_event = env.event()
        env.process(self._run(), name=("bus-crash", bus_name))

    def _run(self) -> Generator:
        if self.at_time > 0:
            yield self.at_time
        self.fleet.crash_bus(self.bus_name)
        self.crash_time = self.env.now
        if not self.crashed_event.triggered:
            self.crashed_event.succeed(self.env.now)
