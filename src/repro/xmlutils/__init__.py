"""Lightweight namespace-aware XML infrastructure.

The policy language (WS-Policy4MASC), the SOAP envelope model and the wsBus
message-routing rules all operate on XML. This package supplies a small
element tree with first-class qualified names, parse/serialize round-tripping
(bridged through the standard library parser) and an XPath-lite evaluator
covering the subset the paper's monitoring policies use: absolute and
relative location paths, ``//`` descendant steps, wildcards, attribute
selection and simple equality/comparison predicates.
"""

from repro.xmlutils.element import (
    Element,
    SizeSummary,
    XmlError,
    combined_size,
    escaped_size,
    parse_xml,
    serialize_xml,
    serialize_xml_reference,
    size_summary,
)
from repro.xmlutils.qname import QName
from repro.xmlutils.xpath import XPath, XPathError, coerce_text, xpath_evaluate, xpath_value

__all__ = [
    "Element",
    "QName",
    "SizeSummary",
    "XPath",
    "XPathError",
    "XmlError",
    "coerce_text",
    "combined_size",
    "escaped_size",
    "parse_xml",
    "serialize_xml",
    "serialize_xml_reference",
    "size_summary",
    "xpath_evaluate",
    "xpath_value",
]
