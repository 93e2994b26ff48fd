"""The paper's two evaluation case studies.

- :mod:`repro.casestudies.scm` — the WS-I Supply Chain Management
  application used to evaluate wsBus (Section 3.2, Table 1, Figure 5);
- :mod:`repro.casestudies.stocktrading` — the Stock Trading composition
  used to evaluate MASC customization (Section 2.2).

Each case study's WS-Policy4MASC documents are committed XML files in its
``policies`` package; :func:`load_policy_document` reads one back.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields, replace
from importlib.resources import files
from typing import Any

from repro.policy import PolicyDocument, PolicyError, parse_policy_document

__all__ = ["load_policy_document"]


def load_policy_document(
    package: str, name: str, settings: Mapping[str, Mapping[str, Any]] | None = None
) -> PolicyDocument:
    """Parse ``<name>.xml`` from ``package`` and apply ``settings``.

    ``settings`` maps a policy name to ``{field: value}``: each field is
    set on every action of that policy that declares it, or on the policy
    itself when no action does. An unknown policy or field raises
    :class:`~repro.policy.PolicyError`.
    """
    text = (files(package) / f"{name}.xml").read_text(encoding="utf-8")
    document = parse_policy_document(text)
    settings = settings or {}
    unknown = set(settings) - set(document.policy_names())
    if unknown:
        raise PolicyError(f"{name}.xml has no policy named {sorted(unknown)}")
    for policies in (document.monitoring_policies, document.adaptation_policies):
        for index, policy in enumerate(policies):
            if policy.name in settings:
                policies[index] = _with_fields(policy, settings[policy.name])
    return document


def _field_names(declared) -> set[str]:
    return {spec.name for spec in fields(declared)}


def _with_fields(policy, values: Mapping[str, Any]):
    actions, own = list(getattr(policy, "actions", ())), {}
    for key, value in values.items():
        declaring = [i for i, action in enumerate(actions) if key in _field_names(action)]
        for i in declaring:
            actions[i] = replace(actions[i], **{key: value})
        if not declaring:
            if key not in _field_names(policy):
                raise PolicyError(f"policy {policy.name!r} has no field {key!r}")
            own[key] = value
    if actions:
        own["actions"] = tuple(actions)
    return replace(policy, **own)
