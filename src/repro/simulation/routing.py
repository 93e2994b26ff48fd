"""Kind-routed fan-out: the one "call every subscriber" step.

Every event producer in the middleware owns one :class:`EventRouter` as
its ``router``; consumers, the producer's own audit logs included,
subscribe to it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

__all__ = ["EventRouter"]


class EventRouter:
    """Routes each published ``(kind, *args)`` to the handlers reading ``kind``.

    The kind -> handlers tuples are rebuilt per subscription, never per
    event. A hot producer reads :meth:`handlers`' table itself, without a
    Python-level call: ``router.routes.get(kind, router.every)``.
    """

    __slots__ = ("routes", "every")

    def __init__(self) -> None:
        #: Each kind some subscriber named -> the handlers reading it.
        self.routes: dict[str, tuple[Callable, ...]] = {}
        #: The handlers that named no kinds, which read every kind.
        self.every: tuple[Callable, ...] = ()

    def subscribe(self, handler: Callable, kinds: Iterable[str] | None = None) -> None:
        """Add ``handler`` after every earlier subscriber of each kind it reads.

        ``kinds=None`` reads every kind, also kinds a later subscriber
        names first; empty ``kinds`` reads nothing. A handler subscribed
        during a publish first sees the next one.
        """
        routes = self.routes
        if kinds is None:
            self.every += (handler,)
            for kind, handlers in routes.items():
                routes[kind] = handlers + (handler,)
        else:
            for kind in dict.fromkeys(kinds):
                routes[kind] = routes.get(kind, self.every) + (handler,)

    def handlers(self, kind: str) -> tuple[Callable, ...]:
        """The handlers reading ``kind``, in subscription order."""
        return self.routes.get(kind, self.every)

    def publish(self, kind: str, *args) -> None:
        """Call every handler reading ``kind`` with ``args``, in order."""
        for handler in self.routes.get(kind, self.every):
            handler(*args)
