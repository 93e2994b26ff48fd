"""Fault injection harness.

Reproduces the paper's test setup: "we wrote test code that occasionally (at
random times) injected exception events in the tested system. For service
failures, we randomly picked some of available services and made them
unavailable for a random amount of time. For service QoS degradations, test
code occasionally picked some service instances and changed their QoS values
(e.g., introduced delays)."

Every injected fault is a frozen spec, one per fault class:
:class:`EndpointFault` (an endpoint unavailable or slowed, on a random or a
fixed schedule), :class:`ApplicationFault` (requests answered by
``ServiceFailure`` faults: "remote applications can produce unexpected
results") and :class:`BusCrash` (one bus of a federated fleet killed at a
fixed time). One :class:`FaultInjector` applies the first two and keeps a
:class:`DowntimeLog` per unavailable endpoint for availability accounting;
:class:`BusCrashInjector` applies the third to a fleet.

:class:`ProcessCrashInjector` targets the *orchestration host* instead of a
service: it kills the workflow engine mid-flight so the crash-recovery
scenarios can prove instances rehydrate from the checkpoint store.
"""

from repro.faultinjection.injectors import (
    ApplicationFault,
    BusCrash,
    BusCrashInjector,
    DowntimeLog,
    EndpointFault,
    FaultInjector,
    ProcessCrashInjector,
)

__all__ = [
    "ApplicationFault",
    "BusCrash",
    "BusCrashInjector",
    "DowntimeLog",
    "EndpointFault",
    "FaultInjector",
    "ProcessCrashInjector",
]
