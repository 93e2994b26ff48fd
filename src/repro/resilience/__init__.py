"""Resilience subsystem: graceful degradation machinery for wsBus.

Four protections, all configured through WS-Policy4MASC resilience
assertions (``resilience.configure`` policies) so behavior stays
policy-driven like everything else in MASC:

- **circuit breakers** (:mod:`repro.resilience.breaker`): per-endpoint
  closed/open/half-open state machines fed by invocation outcomes;
  open endpoints are skipped by selection and fail fast at send time
  until a half-open probe succeeds;
- **bulkheads** (:mod:`repro.resilience.bulkhead`): bounded concurrency
  partitions per endpoint and per VEP with bounded wait queues;
- **adaptive timeouts** (:mod:`repro.resilience.timeouts`): invocation
  timeouts derived from the QoS Measurement Service's observed latency
  percentiles instead of one fixed ``invocation_timeout``;
- **load shedding** (:mod:`repro.resilience.shedding`): bus-wide
  admission control rejecting work with a retryable fault once
  mediation utilization or retry-queue depth crosses its threshold.

:class:`~repro.resilience.service.ResilienceService` ties them together
and is hosted by :class:`~repro.wsbus.bus.WsBus`.
"""

from repro.resilience.breaker import BreakerState, BreakerTransition, CircuitBreaker
from repro.resilience.bulkhead import Bulkhead
from repro.resilience.service import ResilienceService
from repro.resilience.shedding import LoadShedder
from repro.resilience.timeouts import adaptive_timeout

__all__ = [
    "BreakerState",
    "BreakerTransition",
    "Bulkhead",
    "CircuitBreaker",
    "LoadShedder",
    "ResilienceService",
    "adaptive_timeout",
]
