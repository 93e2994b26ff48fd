"""Fault injection harness.

Reproduces the paper's test setup: "we wrote test code that occasionally (at
random times) injected exception events in the tested system. For service
failures, we randomly picked some of available services and made them
unavailable for a random amount of time. For service QoS degradations, test
code occasionally picked some service instances and changed their QoS values
(e.g., introduced delays)."

Both endpoint effects — unavailability and added delay — on a random or a
fixed schedule are one frozen spec, :class:`EndpointFault`, driven by one
:class:`EndpointFaultInjector`, which keeps a :class:`DowntimeLog` per
unavailable endpoint for availability accounting. Two more injectors act
on requests rather than on an endpoint's schedule:

- :class:`ApplicationFaultInjector` — probabilistic application fault
  replies wrapped around an endpoint's handler;
- :class:`OverloadBurstInjector` — bursts of synthetic background traffic.

:class:`ProcessCrashInjector` targets the *orchestration host* instead of a
service: it kills the workflow engine mid-flight so the crash-recovery
scenarios can prove instances rehydrate from the checkpoint store.

:class:`BusCrashInjector` targets a *bus instance* of a federated fleet:
it kills one shard at a fixed time so the federation scenarios can prove
membership suspicion, VEP failover, and leadership transfer.
"""

from repro.faultinjection.injectors import (
    ApplicationFaultInjector,
    BusCrashInjector,
    DowntimeLog,
    EndpointFault,
    EndpointFaultInjector,
    OverloadBurstInjector,
    ProcessCrashInjector,
)

__all__ = [
    "ApplicationFaultInjector",
    "BusCrashInjector",
    "DowntimeLog",
    "EndpointFault",
    "EndpointFaultInjector",
    "OverloadBurstInjector",
    "ProcessCrashInjector",
]
