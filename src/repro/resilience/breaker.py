"""Per-endpoint circuit breakers.

The recovery literature the ISSUE cites (Saboohi & Kareem, "Requirements
of a Recovery Solution for Failure of Composite Web Services") argues a
recovery solution must *detect and isolate* a failed constituent rather
than blindly re-invoke it. The breaker is that isolation primitive: it
watches the invocation outcomes already flowing past the QoS Measurement
Service observer hook and, once an endpoint is evidently broken, makes
the cost of discovering "still broken" zero by failing fast.

State machine (the classic three states):

    CLOSED --(failure-rate or consecutive-failure threshold)--> OPEN
    OPEN   --(open_seconds elapsed)--> HALF_OPEN
    HALF_OPEN --(all probes succeed)--> CLOSED
    HALF_OPEN --(any probe fails)-----> OPEN
    HALF_OPEN --(probe outcome lost for open_seconds)--> OPEN

The last edge reclaims wedged probes: an admitted half-open probe whose
request is shed, bulkhead-rejected, or lost mid-flight never reports an
outcome, and without a clock-based escape the probe budget would stay
exhausted and the breaker would reject forever.

Everything is driven by the simulation clock, so a fixed seed yields a
bit-identical transition log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.policy.actions import CircuitBreakerAction
from repro.simulation import EventRouter

__all__ = ["BreakerState", "BreakerTransition", "CircuitBreaker"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerTransition:
    """One edge of the breaker state machine, for audit and metrics."""

    time: float
    endpoint: str
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Outcome-driven admission control for one endpoint.

    ``clock`` is a zero-argument callable returning the current simulation
    time (``lambda: env.now``). ``router`` publishes each
    :class:`BreakerTransition`, keyed by its ``to_state`` (the resilience
    service logs it and exports metrics and span events).
    """

    def __init__(self, endpoint: str, config: CircuitBreakerAction, clock) -> None:
        self.endpoint = endpoint
        self.config = config
        self._clock = clock
        self.router = EventRouter()
        self.state = BreakerState.CLOSED
        self._outcomes: deque[bool] = deque(maxlen=config.window)
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        #: Probes admitted / succeeded since entering HALF_OPEN.
        self._probes_admitted = 0
        self._probes_succeeded = 0
        #: Clock reading of the latest probe admission, for reclaiming
        #: probes whose outcome never arrives.
        self._probe_admitted_at: float | None = None

    def reconfigure(self, config: CircuitBreakerAction) -> None:
        """Adopt ``config`` in place, keeping the state and newest outcomes."""
        self.config = config
        self._outcomes = deque(self._outcomes, maxlen=config.window)

    # -- admission ---------------------------------------------------------------

    def allow_request(self) -> bool:
        """Admission decision at send time; consumes a probe in half-open."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if not self._open_interval_elapsed():
                return False
            self._transition(BreakerState.HALF_OPEN, "open interval elapsed")
        elif self._probe_timed_out():
            self._transition(BreakerState.OPEN, "half-open probe timed out")
            return False
        if self._probes_admitted < self.config.half_open_probes:
            self._probes_admitted += 1
            self._probe_admitted_at = self._clock()
            return True
        return False

    def would_allow(self) -> bool:
        """Peek used by selection filtering; never consumes probe budget.

        Selection may inspect every member before the VEP commits to one,
        so this must not count as an admission — but it does reclaim a
        timed-out probe, because a wedged breaker whose endpoint selection
        keeps filtering out would otherwise never see another
        ``allow_request`` call to clear it.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            return self._open_interval_elapsed()
        if self._probe_timed_out():
            self._transition(BreakerState.OPEN, "half-open probe timed out")
            return False
        return self._probes_admitted < self.config.half_open_probes

    def _probe_timed_out(self) -> bool:
        """True when every half-open probe was admitted ``open_seconds``
        ago or more without an outcome resolving the state."""
        return (
            self._probes_admitted >= self.config.half_open_probes
            and self._probe_admitted_at is not None
            and self._clock() - self._probe_admitted_at >= self.config.open_seconds
        )

    def _open_interval_elapsed(self) -> bool:
        return (
            self._opened_at is not None
            and self._clock() - self._opened_at >= self.config.open_seconds
        )

    # -- outcome feed ------------------------------------------------------------

    def record_success(self) -> None:
        self._outcomes.append(True)
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probes_succeeded += 1
            if self._probes_succeeded >= self.config.half_open_probes:
                self._transition(BreakerState.CLOSED, "probe succeeded")
                self._outcomes.clear()

    def record_failure(self) -> None:
        self._outcomes.append(False)
        self._consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, "probe failed")
            return
        if self.state is BreakerState.CLOSED:
            reason = self._trip_reason()
            if reason is not None:
                self._transition(BreakerState.OPEN, reason)

    def _trip_reason(self) -> str | None:
        if self._consecutive_failures >= self.config.consecutive_failures:
            return f"{self._consecutive_failures} consecutive failures"
        if len(self._outcomes) >= self.config.min_calls:
            failures = sum(1 for ok in self._outcomes if not ok)
            rate = failures / len(self._outcomes)
            if rate >= self.config.failure_rate_threshold:
                return f"failure rate {rate:.2f} over {len(self._outcomes)} calls"
        return None

    # -- bookkeeping ---------------------------------------------------------------

    def _transition(self, to_state: BreakerState, reason: str) -> None:
        transition = BreakerTransition(
            time=self._clock(),
            endpoint=self.endpoint,
            from_state=self.state.value,
            to_state=to_state.value,
            reason=reason,
        )
        self.state = to_state
        if to_state is BreakerState.OPEN:
            self._opened_at = self._clock()
        self._probes_admitted = 0
        self._probes_succeeded = 0
        self._probe_admitted_at = None
        self.router.publish(transition.to_state, transition)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CircuitBreaker {self.endpoint} {self.state.value}>"
