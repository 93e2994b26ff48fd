"""UDDI-style service registry.

The registry maps abstract service types to concrete endpoint addresses.
The SCM case study's Configuration service "lists all implementations
registered in the UDDI registry for each of the Web Services"; wsBus VEPs
and adaptation policies use the same lookup for dynamic service selection
("a set of criteria for dynamically selecting the best Web service from a
directory").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ServiceRecord", "ServiceRegistry"]


@dataclass
class ServiceRecord:
    """One registered service implementation."""

    service_type: str
    name: str
    address: str
    #: Free-form attributes used by selection criteria (vendor, region,
    #: advertised QoS class...).
    properties: dict[str, str] = field(default_factory=dict)


class ServiceRegistry:
    """Find service implementations by abstract type."""

    def __init__(self) -> None:
        self._records: dict[str, list[ServiceRecord]] = {}
        #: address -> the first (sorted) type implemented there.
        self._type_of: dict[str, str] = {}

    def register(
        self,
        service_type: str,
        name: str,
        address: str,
        properties: dict[str, str] | None = None,
    ) -> ServiceRecord:
        record = ServiceRecord(service_type, name, address, dict(properties or {}))
        self._records.setdefault(service_type, []).append(record)
        known = self._type_of.get(address)
        if known is None or service_type < known:
            self._type_of[address] = service_type
        return record

    def unregister(self, address: str) -> None:
        """Drop every implementation at ``address``; a type left without
        one is no longer listed."""
        for service_type in list(self._records):
            records = [r for r in self._records[service_type] if r.address != address]
            if records:
                self._records[service_type] = records
            else:
                del self._records[service_type]
        self._type_of.pop(address, None)

    def service_type_of(self, address: str) -> str | None:
        """The type implemented at ``address`` (the first in sorted order
        when it implements several), or None."""
        return self._type_of.get(address)

    def find(
        self, service_type: str, predicate=None
    ) -> list[ServiceRecord]:
        """All implementations of ``service_type`` (optionally filtered)."""
        records = list(self._records.get(service_type, ()))
        if predicate is not None:
            records = [record for record in records if predicate(record)]
        return records

    def find_one(self, service_type: str, predicate=None) -> ServiceRecord | None:
        records = self.find(service_type, predicate)
        return records[0] if records else None

    @property
    def service_types(self) -> list[str]:
        return sorted(self._records)

    def __len__(self) -> int:
        return sum(len(records) for records in self._records.values())
