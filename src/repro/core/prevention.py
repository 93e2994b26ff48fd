"""Preventive adaptation: acting before faults occur.

The paper's fourth adaptation type: "prevention – to prevent future faults
or extra-functional issues before they occur". The sensor half is a QoS
trend detector: it watches each endpoint's response-time series and raises
a ``qos.trend.degrading`` MASC event when the fitted slope over the
observation window exceeds a threshold — *before* the endpoint breaches
any SLA or starts failing. Preventive adaptation policies (typically
:class:`~repro.policy.QuarantineAction` or
:class:`~repro.policy.PreferBestAction`) then take the endpoint out of
rotation or demote it while it degrades.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.events import MASCEvent
from repro.services import InvocationRecord
from repro.simulation import EventRouter

__all__ = ["QoSTrendDetector", "TrendReport", "linear_slope"]


def linear_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of (time, value) points; 0 for degenerate input."""
    n = len(points)
    if n < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    denominator = sum((x - mean_x) ** 2 for x, _ in points)
    if denominator == 0:
        return 0.0
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return numerator / denominator


@dataclass
class TrendReport:
    """One detected degradation trend."""

    time: float
    endpoint: str
    slope: float  # seconds of RTT growth per second of wall time
    mean_response_time: float
    samples: int


@dataclass
class _EndpointTrend:
    window: deque = field(default_factory=lambda: deque(maxlen=30))
    last_alert_at: float = float("-inf")


class QoSTrendDetector:
    """Watches invocation records and predicts degradation.

    - ``slope_threshold``: relative growth per second that counts as a
      degrading trend (e.g. 0.02 = RTT growing by 2% of its mean every
      second).
    - ``min_samples``: observations required before trusting a fit.
    - ``cooldown_seconds``: minimum spacing between alerts per endpoint.
    """

    def __init__(
        self,
        env,
        slope_threshold: float = 0.02,
        min_samples: int = 10,
        cooldown_seconds: float = 60.0,
        window: int = 30,
    ) -> None:
        self.env = env
        self.slope_threshold = slope_threshold
        self.min_samples = min_samples
        self.cooldown_seconds = cooldown_seconds
        self.window = window
        self._endpoints: dict[str, _EndpointTrend] = {}
        self.router = EventRouter()
        self.reports: list[TrendReport] = []

    def attach_to_invoker(self, invoker) -> None:
        invoker.router.subscribe(self.observe, ("record",))

    # -- observation --------------------------------------------------------------

    def observe(self, record: InvocationRecord) -> None:
        if not record.succeeded:
            return  # failures are the *corrective* path's business
        trend = self._endpoints.get(record.target)
        if trend is None:
            trend = _EndpointTrend(window=deque(maxlen=self.window))
            self._endpoints[record.target] = trend
        trend.window.append((record.finished_at, record.duration))
        self._evaluate(record.target, trend)

    def _evaluate(self, endpoint: str, trend: _EndpointTrend) -> None:
        if len(trend.window) < self.min_samples:
            return
        if self.env.now - trend.last_alert_at < self.cooldown_seconds:
            return
        points = list(trend.window)
        slope = linear_slope(points)
        mean_rt = sum(value for _, value in points) / len(points)
        if mean_rt <= 0:
            return
        relative_slope = slope / mean_rt
        if relative_slope < self.slope_threshold:
            return
        trend.last_alert_at = self.env.now
        report = TrendReport(
            time=self.env.now,
            endpoint=endpoint,
            slope=slope,
            mean_response_time=mean_rt,
            samples=len(points),
        )
        self.reports.append(report)
        event = MASCEvent(
            name="qos.trend.degrading",
            time=self.env.now,
            endpoint=endpoint,
            context={
                "endpoint": endpoint,
                "slope": slope,
                "relative_slope": relative_slope,
                "mean_response_time": mean_rt,
            },
            raised_by="qos-trend-detector",
        )
        self.router.publish(event.name, event)

    def reset(self, endpoint: str) -> None:
        """Forget history for an endpoint (e.g. after it was quarantined)."""
        self._endpoints.pop(endpoint, None)
