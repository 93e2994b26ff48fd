"""Queue-based load leveling + token-bucket throttling for a VEP.

Shedding rejects everything past the knee; leveling *reshapes* the
arrival curve instead. The algorithm is the classic GCRA (the
cell-rate/token-bucket equivalence): the leveler tracks a theoretical
arrival time ``tat`` — the virtual instant at which the next request
conforms to the long-run rate. A request whose computed delay fits the
burst tolerance passes immediately; otherwise it waits in a bounded
*virtual* queue (a simulation timeout — a queued request occupies no
shedder or bulkhead slot while it waits). Only past the queue bounds —
too many already waiting, or a delay beyond ``max_wait_seconds`` — is the
request rejected with a retryable ``ServiceUnavailable`` fault.

Everything is clock-driven, so a fixed seed yields identical admission
decisions.
"""

from __future__ import annotations

from repro.policy.actions import LoadLevelingAction
from repro.soap import FaultCode, SoapFault, SoapFaultError

__all__ = ["LoadLeveler"]


class LoadLeveler:
    """Token-bucket smoothing for one VEP, driven by a :class:`LoadLevelingAction`."""

    def __init__(self, key: str, env, config: LoadLevelingAction) -> None:
        self.key = key
        self.env = env
        self.config = config
        #: GCRA theoretical arrival time.
        self._tat = 0.0
        #: Requests currently sitting out their leveling delay.
        self.waiting = 0
        self.max_waiting = 0
        self.admitted_immediately = 0
        self.delayed = 0
        self.shed = 0
        self.total_delay_seconds = 0.0

    def admit(self):
        """Admit one request: None to proceed now, or a timeout to yield.

        The caller must call :meth:`release` after a returned timeout
        elapses (or fails). Raises :class:`SoapFaultError` when the
        request must be rejected instead.
        """
        now = self.env.now
        config = self.config
        interval = 1.0 / config.rate_per_second
        tat = self._tat
        if tat < now:
            tat = now
        # Burst tolerance tau = (burst - 1) * interval: up to ``burst``
        # back-to-back requests conform without any delay.
        wait = (tat - now) - (config.burst - 1) * interval
        if wait <= 1e-12:
            self._tat = tat + interval
            self.admitted_immediately += 1
            return None
        if self.waiting >= config.max_queue:
            reason = f"{self.waiting} requests already queued"
        elif wait > config.max_wait_seconds:
            reason = f"computed delay {wait:.3f}s exceeds {config.max_wait_seconds:g}s"
        else:
            reason = None
        if reason is not None:
            self.shed += 1
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_UNAVAILABLE,
                    f"wsbus load leveling at {self.key} ({reason}); retry later",
                    source="wsbus-traffic",
                )
            )
        self._tat = tat + interval
        self.waiting += 1
        if self.waiting > self.max_waiting:
            self.max_waiting = self.waiting
        self.delayed += 1
        self.total_delay_seconds += wait
        return self.env.timeout(wait)

    def release(self) -> None:
        """A delayed request finished (or abandoned) its wait."""
        if self.waiting > 0:
            self.waiting -= 1

    def stats(self) -> dict:
        return {
            "immediate": self.admitted_immediately,
            "delayed": self.delayed,
            "shed": self.shed,
            "waiting": self.waiting,
            "max_waiting": self.max_waiting,
            "total_delay_seconds": round(self.total_delay_seconds, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LoadLeveler {self.key} waiting={self.waiting}>"
