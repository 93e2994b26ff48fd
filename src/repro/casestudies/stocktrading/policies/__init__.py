"""WS-Policy4MASC documents for the four §2.2 customization experiments.

Each document is the committed ``<name>.xml`` beside this module, whose
leading comment says what it is for, read through the MASCPolicyParser
path (:func:`repro.casestudies.load_policy_document`).
"""

from __future__ import annotations

from functools import partial

from repro.casestudies import load_policy_document
from repro.policy import PolicyDocument

__all__ = [
    "compliance_removal_policy_document",
    "credit_rating_policy_document",
    "currency_conversion_policy_document",
    "customization_policy_documents",
    "pest_analysis_policy_document",
]

_load = partial(load_policy_document, __name__)


def currency_conversion_policy_document() -> PolicyDocument:
    """``trading-currency-conversion.xml``: experiment 1."""
    return _load("trading-currency-conversion")


def pest_analysis_policy_document() -> PolicyDocument:
    """``trading-pest-analysis.xml``: experiment 2."""
    return _load("trading-pest-analysis")


def credit_rating_policy_document() -> PolicyDocument:
    """``trading-credit-rating.xml``: experiment 3."""
    return _load("trading-credit-rating")


def compliance_removal_policy_document(
    amount_threshold: float = 10_000.0,
) -> PolicyDocument:
    """``trading-compliance-removal.xml``: experiment 4, below ``amount_threshold``."""
    return _load(
        "trading-compliance-removal",
        {"remove-compliance-small-trades": {"condition": f"amount < {amount_threshold}"}},
    )


def customization_policy_documents() -> tuple[PolicyDocument, ...]:
    """The four experiments' documents, in the order they are loaded."""
    return (
        currency_conversion_policy_document(),
        pest_analysis_policy_document(),
        credit_rating_policy_document(),
        compliance_removal_policy_document(),
    )
