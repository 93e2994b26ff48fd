"""Qualified XML names."""

from __future__ import annotations

from functools import lru_cache

__all__ = ["QName"]


class QName:
    """An XML qualified name: a (namespace URI, local part) pair.

    Immutable and hashable so qualified names can key dictionaries (fault
    code tables, policy-subject maps, operation dispatch tables).
    """

    __slots__ = ("namespace", "local")

    def __init__(self, namespace: str | None, local: str) -> None:
        if not local:
            raise ValueError("local part must be non-empty")
        object.__setattr__(self, "namespace", namespace or "")
        object.__setattr__(self, "local", local)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QName is immutable")

    @classmethod
    @lru_cache(maxsize=1024)
    def parse(cls, text: str) -> "QName":
        """Parse Clark notation (``{uri}local``) or a bare local name.

        String lookups (``Element.find("{uri}local")``, comparing a name
        with a string) parse the same dozen names over and over, so the
        most recent results are kept: a ``QName`` is immutable and may be
        shared. The memo is bounded because ``parse_xml`` sends every tag
        of a foreign document through here.
        """
        if text.startswith("{"):
            uri, _, local = text[1:].partition("}")
            return cls(uri, local)
        return cls("", text)

    def clark(self) -> str:
        """Clark notation, the canonical text form."""
        return f"{{{self.namespace}}}{self.local}" if self.namespace else self.local

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QName):
            return self.namespace == other.namespace and self.local == other.local
        if isinstance(other, str):
            return self == QName.parse(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.namespace, self.local))

    def __repr__(self) -> str:
        return f"QName({self.clark()!r})"

    def __str__(self) -> str:
        return self.clark()
