"""Policy-driven head-based trace sampling.

Recording every span of every request is the right default for the
reproduction experiments, but a fleet-sized storm emits hundreds of
thousands of spans — operators of the paper's wsBus would drown. The
standard remedy is **head-based sampling**: decide at trace birth whether
to record it, and bias the decision so the traces worth keeping (faults,
SLO violations) are never the ones thrown away.

The knobs are declared as a WS-Policy4MASC
:class:`~repro.policy.actions.TracingAction` in a policy carrying the
conventional ``observability.tracing`` trigger — the same load-time-scan
convention as ``observability.slo`` — and materialized by
:class:`TracingService` into a :class:`TraceSampler` on the bus's tracer.

Two properties matter for reproducibility:

- the sampling decision is a pure function of the trace id (a CRC32
  bucket test), so the same seed samples the same traces no matter how
  the run is sharded;
- sampling only filters which finished spans reach the exporters — span
  and trace ids are still minted for every span, and the verdict rides
  on each envelope only as part of its trace context (the sending span
  itself, whose ``sampled`` flag the next hop inherits; the ``01``/``00``
  flags once serialized). Nothing on the message path acts on it, so
  simulated timings and metrics are byte-identical with sampling on,
  off, or absent.

**Promotion**: unsampled traces are buffered (bounded) inside the tracer;
when a span of such a trace finishes with a non-``ok`` status (a fault)
or is an ``slo.violation``, the whole trace is flushed retroactively and
its future spans export directly.
"""

from __future__ import annotations

import zlib

from repro.policy.actions import TracingAction

__all__ = ["TRACING_TRIGGER", "TraceSampler", "TracingService"]

#: The trigger naming convention for tracing configuration policies.
TRACING_TRIGGER = TracingAction.trigger

#: Bucket count of the deterministic hash test (rate resolution 0.01%).
_BUCKETS = 10_000


class TraceSampler:
    """The head-based sampling decision, derived from a TracingAction."""

    __slots__ = ("sample_rate", "always_sample_faults", "always_sample_slo_violations")

    def __init__(
        self,
        sample_rate: float = 1.0,
        always_sample_faults: bool = True,
        always_sample_slo_violations: bool = True,
    ) -> None:
        self.sample_rate = sample_rate
        self.always_sample_faults = always_sample_faults
        self.always_sample_slo_violations = always_sample_slo_violations

    @classmethod
    def from_action(cls, action: TracingAction) -> "TraceSampler":
        return cls(
            sample_rate=action.sample_rate,
            always_sample_faults=action.always_sample_faults,
            always_sample_slo_violations=action.always_sample_slo_violations,
        )

    def sample(self, trace_id: str) -> bool:
        """The head decision for a new trace: record it or buffer it.

        A CRC32 bucket test, not an RNG draw: deterministic per trace id,
        independent of call order, and identical across ``--jobs`` shards.
        """
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return zlib.crc32(trace_id.encode("ascii")) % _BUCKETS < rate * _BUCKETS

    def promotes(self, span) -> bool:
        """True when ``span`` retroactively promotes its unsampled trace."""
        if self.always_sample_faults and span.status != "ok":
            return True
        if self.always_sample_slo_violations and span.name == "slo.violation":
            return True
        return False


class TracingService:
    """Materializes ``observability.tracing`` policies onto a tracer.

    Mirrors :class:`~repro.observability.slo.SloService`'s load-time-scan
    convention: the bus constructs one per tracer/repository pair and the
    last ``Tracing`` assertion found wins (tracing is a global knob, not a
    per-scope one). With no tracing policy loaded the tracer keeps its
    record-everything default.
    """

    def __init__(self, tracer, repository) -> None:
        self.tracer = tracer
        self.repository = repository
        self.action: TracingAction | None = None
        repository.subscribe(self.refresh_from_policies)
        self.refresh_from_policies()

    def refresh_from_policies(self) -> TracingAction | None:
        """Re-scan the repository (runs on every ``load``/``unload``)."""
        found = self.repository.configuration(TracingAction)
        self.action = action = found[-1][1] if found else None
        self.tracer.configure_sampling(
            TraceSampler.from_action(action) if action is not None else None
        )
        return action
