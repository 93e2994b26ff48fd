"""Structured encoding of process variables for dehydration.

Process variables are arbitrary Python values: scalars, nested containers,
XML :class:`~repro.xmlutils.Element` payloads (invoke outputs), and
:class:`~repro.soap.SoapFault` objects (the ``_fault`` scope variable). The
old snapshot service silently filtered everything non-scalar; this module
instead maps every supported value to a JSON-serializable tagged form and
back, so a checkpoint record can round-trip the *complete* variable set.

Encoding rules: JSON scalars pass through unchanged; every other supported
type becomes a ``{"t": <tag>, ...}`` dict. Raw dicts never appear untagged,
so decoding is unambiguous. Unsupported values raise
:class:`StateEncodingError` — dehydration must fail loudly, not drop state.
"""

from __future__ import annotations

from typing import Any

from repro.soap import FaultCode, SoapFault
from repro.xmlutils import Element, parse_xml, serialize_xml

__all__ = [
    "StateEncodingError",
    "decode_value",
    "decode_variables",
    "encode_value",
    "encode_variables",
]

_SCALARS = (str, int, float, bool, type(None))


class StateEncodingError(TypeError):
    """A process variable cannot be represented in checkpoint form."""


def encode_value(value: Any) -> Any:
    """Map one variable value to its JSON-serializable tagged form."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, Element):
        return {"t": "xml", "v": serialize_xml(value)}
    if isinstance(value, SoapFault):
        return {
            "t": "fault",
            "code": value.code.value,
            "reason": value.reason,
            "actor": value.actor,
            "source": value.source,
            "detail": None if value.detail is None else serialize_xml(value.detail),
        }
    if isinstance(value, FaultCode):
        return {"t": "faultcode", "v": value.value}
    if isinstance(value, list):
        return {"t": "list", "v": [encode_value(item) for item in value]}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=repr)  # deterministic record bytes
        return {"t": "set", "v": encoded}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {"t": "map", "v": {key: encode_value(item) for key, item in value.items()}}
        return {
            "t": "pairs",
            "v": [[encode_value(key), encode_value(item)] for key, item in value.items()],
        }
    raise StateEncodingError(
        f"cannot checkpoint value of type {type(value).__name__}: {value!r}"
    )


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, _SCALARS):
        return encoded
    if isinstance(encoded, dict):
        tag = encoded.get("t")
        if tag == "xml":
            return parse_xml(encoded["v"])
        if tag == "fault":
            detail = encoded.get("detail")
            return SoapFault(
                code=FaultCode(encoded["code"]),
                reason=encoded["reason"],
                actor=encoded.get("actor"),
                detail=None if detail is None else parse_xml(detail),
                source=encoded.get("source"),
            )
        if tag == "faultcode":
            return FaultCode(encoded["v"])
        if tag == "list":
            return [decode_value(item) for item in encoded["v"]]
        if tag == "tuple":
            return tuple(decode_value(item) for item in encoded["v"])
        if tag == "set":
            return {decode_value(item) for item in encoded["v"]}
        if tag == "map":
            return {key: decode_value(item) for key, item in encoded["v"].items()}
        if tag == "pairs":
            return {decode_value(key): decode_value(item) for key, item in encoded["v"]}
    raise StateEncodingError(f"malformed encoded value: {encoded!r}")


def encode_variables(variables: dict[str, Any]) -> dict[str, Any]:
    """Encode a whole variable set (keys must be strings)."""
    encoded: dict[str, Any] = {}
    for name, value in variables.items():
        if not isinstance(name, str):
            raise StateEncodingError(f"variable names must be strings, got {name!r}")
        try:
            encoded[name] = encode_value(value)
        except StateEncodingError as error:
            raise StateEncodingError(f"variable {name!r}: {error}") from None
    return encoded


def decode_variables(encoded: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`encode_variables`."""
    return {name: decode_value(value) for name, value in encoded.items()}
