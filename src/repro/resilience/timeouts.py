"""Adaptive timeouts derived from observed latency percentiles.

The paper's bus uses one fixed ``invocation_timeout`` per VEP. Under a
fault storm that single number is always wrong somewhere: too long for a
healthy endpoint (a hung call burns the whole client budget before
recovery even starts) and too short for a slow-but-working one. The
adaptive policy replaces it with ``multiplier`` × an aggregate (p95/p99/
mean/max) of the QoS Measurement Service's recent *successful* response
times, clamped to a configured band — so timeouts track what "normal"
currently looks like per endpoint.
"""

from __future__ import annotations

from repro.policy.actions import AdaptiveTimeoutAction

__all__ = ["adaptive_timeout"]


def adaptive_timeout(
    qos,
    endpoint: str,
    config: AdaptiveTimeoutAction,
    fallback: float | None,
) -> float | None:
    """The timeout to use for ``endpoint``, or ``fallback`` without data.

    ``qos`` is a :class:`~repro.wsbus.qos.QoSMeasurementService`. Until
    ``config.min_samples`` of the last ``config.window`` observations are
    successes the fixed ``fallback`` is returned unchanged (optimistic
    guessing from two samples would be worse than the status quo).
    """
    endpoint_qos = qos.endpoint(endpoint)
    if endpoint_qos is None:
        return fallback
    observed = endpoint_qos.response_time(
        config.window, config.aggregate, min_samples=config.min_samples
    )
    if observed is None:
        return fallback
    derived = config.multiplier * observed
    return max(config.min_seconds, min(config.max_seconds, derived))
