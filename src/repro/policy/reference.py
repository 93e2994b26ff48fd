"""The action reference tables of ``docs/policy-language.md``.

Rendered from the same dataclass declarations the XML codec reads
(:func:`repro.policy.actions.schema`), so the documentation cannot name
an attribute, default or bound the code does not have. The tables live
between ``<!-- actions:GROUP -->`` / ``<!-- /actions -->`` marker
comments, one group per enforcement layer or configuration trigger.
"""

from __future__ import annotations

import re
from dataclasses import MISSING

from repro.policy.actions import AdaptationAction, attribute_text, schema

__all__ = ["render_action_tables"]

_MARKED = re.compile(r"(<!-- actions:(\S+) -->\n).*?(<!-- /actions -->)", re.DOTALL)
_HEADER = "| Element | Attributes / children | Effect |\n|---|---|---|\n"


def _row(cls) -> str:
    attributes, children = schema(cls)
    cells = []
    for spec in attributes:
        if spec.optional:
            presence = "optional"
        elif spec.default is MISSING or not all(ok(spec.default) for _, ok in spec.constraints):
            presence = "required"  # no default, or one its own constraints reject
        else:
            presence = f"default `{attribute_text(spec.default)}`"
        notes = [spec.type.__name__, presence, *(text for text, _ in spec.constraints)]
        cells.append(f"`{spec.xml_name}` ({', '.join(notes)})")
    for spec in children:
        child = spec.rules["child"]
        shape = child.element if isinstance(child, type) else " ".join(
            [child[0], *(f"{name}=" for name in child[1:])]
        )
        cells.append(f"children `{shape}` ({'1+' if spec.rules.get('nonempty') else '0+'})")
    effect = cls.__doc__.strip().splitlines()[0]
    return f"| `{cls.element}` | {'; '.join(cells) or '—'} | {effect} |\n"


def _tables() -> dict[str, str]:
    """``group -> markdown table``; a group is a trigger, or else a layer."""
    tables: dict[str, str] = {}
    rendered = set()
    for cls in AdaptationAction.by_element.values():
        nested = [
            spec.rules["child"] for spec in schema(cls)[1] if isinstance(spec.rules["child"], type)
        ]
        group = cls.trigger or cls.layer
        for declared in (cls, *nested):
            if declared not in rendered:  # parse aliases and shared children appear once
                rendered.add(declared)
                tables[group] = tables.get(group, _HEADER) + _row(declared)
    return tables


def render_action_tables(text: str) -> str:
    """``text`` with every marked block replaced by its current table."""
    tables = _tables()
    return _MARKED.sub(lambda block: block[1] + tables[block[2]] + block[3], text)
