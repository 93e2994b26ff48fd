"""Discrete-event simulation kernel.

Every latency, timeout, retry delay and availability window in this
reproduction runs on simulated time. The kernel is a small generator-based
discrete-event engine (in the style of SimPy): simulated activities are
Python generators that ``yield`` events (timeouts, completions, composites)
and are resumed by the :class:`Environment` when those events trigger.

Using simulated instead of wall-clock time keeps the paper's experiments
(thousands of SOAP round trips with multi-second retry delays) deterministic
and fast, while exercising exactly the same middleware code paths.
"""

from repro.simulation.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Expired,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.simulation.random_source import RandomSource
from repro.simulation.routing import EventRouter

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventRouter",
    "Expired",
    "Interrupt",
    "Process",
    "RandomSource",
    "SimulationError",
    "Timeout",
]
