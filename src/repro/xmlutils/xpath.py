"""XPath-lite: the location-path subset used by monitoring policies.

The paper's monitoring policies "use XPath to reference variables defined in
the header or the body" of messages, and wsBus VEPs route messages with
"simple rules expressed as a regular expression or XPath query against the
header or the payload". This module implements the subset those rules need:

- absolute (``/a/b``), relative (``a/b``) and descendant (``//a``) paths
- name tests by local name, prefixed Clark notation (``{uri}local``), ``*``
- ``.`` and ``..`` steps, ``@attr`` attribute selection, ``text()``
- predicates: positional (``[2]``), existence (``[child]``, ``[@attr]``),
  and comparisons (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``) between a
  relative path / attribute / ``text()`` and a string or numeric literal
- the functions ``contains()``, ``starts-with()``, ``count()``,
  ``number()`` and ``string()`` inside predicates

Selection results are :class:`~repro.xmlutils.element.Element` nodes or, for
``@attr`` and ``text()`` terminal steps, strings.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import Any

from repro.xmlutils.element import Element
from repro.xmlutils.qname import QName

__all__ = ["XPath", "XPathError", "coerce_text", "xpath_evaluate", "xpath_value"]


class XPathError(Exception):
    """Raised for expressions outside the supported subset."""


_TOKEN_RE = re.compile(
    r"""
    (?P<dslash>//)
  | (?P<slash>/)
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<at>@)
  | (?P<dotdot>\.\.)
  | (?P<dot>\.)
  | (?P<star>\*)
  | (?P<name>\{[^}]*\}[\w.-]+|[\w.-]+(?::[\w.-]+)?)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(expression: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(expression):
        match = _TOKEN_RE.match(expression, position)
        if match is None:
            raise XPathError(f"cannot tokenize {expression!r} at offset {position}")
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, match.group()))
        position = match.end()
    return tokens


class _Step:
    """One location step: axis + node test + predicates."""

    def __init__(self, axis: str, test: str, predicates: list["_Predicate"]) -> None:
        self.axis = axis  # "child", "descendant", "self", "parent", "attribute", "text"
        self.test = test
        self.predicates = predicates


class _Predicate:
    """A predicate: position index, existence test, or comparison."""

    def __init__(
        self,
        position: int | None = None,
        operand: Any = None,
        op: str | None = None,
        right: Any = None,
    ) -> None:
        self.position = position
        self.operand = operand
        self.op = op
        self.right = right


class _Function:
    def __init__(self, name: str, args: list[Any]) -> None:
        self.name = name
        self.args = args


class _Parser:
    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.tokens = _tokenize(expression)
        self.index = 0

    def _peek(self) -> tuple[str, str] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise XPathError(f"unexpected end of expression {self.expression!r}")
        self.index += 1
        return token

    def _expect(self, kind: str) -> str:
        token_kind, value = self._next()
        if token_kind != kind:
            raise XPathError(f"expected {kind} but got {value!r} in {self.expression!r}")
        return value

    def parse(self) -> tuple[bool, list[_Step]]:
        absolute = False
        token = self._peek()
        if token and token[0] in ("slash", "dslash"):
            absolute = True
        steps = self._parse_relative(allow_leading_slash=True)
        if self._peek() is not None:
            raise XPathError(f"trailing tokens in {self.expression!r}")
        return absolute, steps

    _STEP_TOKENS = ("name", "star", "dot", "dotdot", "at")

    def _parse_relative(self, allow_leading_slash: bool = False) -> list[_Step]:
        steps: list[_Step] = []
        descendant = False
        token = self._peek()
        if token is not None and token[0] in ("slash", "dslash"):
            if not allow_leading_slash:
                raise XPathError(f"unexpected '/' in {self.expression!r}")
            self._next()
            descendant = token[0] == "dslash"
        while True:
            token = self._peek()
            if token is None or token[0] not in self._STEP_TOKENS:
                if descendant or not steps:
                    raise XPathError(f"expected a step in {self.expression!r}")
                break
            steps.append(self._parse_step(descendant))
            follow = self._peek()
            if follow is None or follow[0] not in ("slash", "dslash"):
                break
            self._next()
            descendant = follow[0] == "dslash"
        return steps

    def _parse_step(self, descendant: bool) -> _Step:
        kind, value = self._next()
        axis = "descendant" if descendant else "child"
        if kind == "dot":
            return _Step("self", "*", [])
        if kind == "dotdot":
            return _Step("parent", "*", [])
        if kind == "at":
            name = self._expect("name")
            return _Step("attribute", name, self._parse_predicates())
        if kind == "star":
            return _Step(axis, "*", self._parse_predicates())
        if kind == "name":
            if value == "text" and self._peek() and self._peek()[0] == "lparen":
                self._next()
                self._expect("rparen")
                return _Step("text", "*", [])
            return _Step(axis, value, self._parse_predicates())
        raise XPathError(f"unexpected token {value!r} in {self.expression!r}")

    def _parse_predicates(self) -> list[_Predicate]:
        predicates: list[_Predicate] = []
        while True:
            token = self._peek()
            if token is None or token[0] != "lbracket":
                return predicates
            self._next()
            predicates.append(self._parse_predicate())
            self._expect("rbracket")

    def _parse_predicate(self) -> _Predicate:
        token = self._peek()
        if token is None:
            raise XPathError(f"empty predicate in {self.expression!r}")
        if token[0] == "number":
            nxt = self.tokens[self.index + 1] if self.index + 1 < len(self.tokens) else None
            if nxt is not None and nxt[0] == "rbracket":
                self._next()
                return _Predicate(position=int(float(token[1])))
        operand = self._parse_operand()
        token = self._peek()
        if token is not None and token[0] == "op":
            op = self._next()[1]
            right = self._parse_operand()
            return _Predicate(operand=operand, op=op, right=right)
        return _Predicate(operand=operand)

    def _parse_operand(self) -> Any:
        token = self._peek()
        if token is None:
            raise XPathError(f"missing operand in {self.expression!r}")
        kind, value = token
        if kind == "string":
            self._next()
            return value[1:-1]
        if kind == "number":
            self._next()
            return float(value)
        if kind == "name":
            nxt = self.tokens[self.index + 1] if self.index + 1 < len(self.tokens) else None
            if nxt is not None and nxt[0] == "lparen" and value != "text":
                return self._parse_function()
        return self._parse_relative()

    _FUNCTIONS = ("contains", "starts-with", "count", "number", "string")

    def _parse_function(self) -> _Function:
        name = self._expect("name")
        if name not in self._FUNCTIONS:
            raise XPathError(
                f"unsupported function {name!r} in {self.expression!r}; "
                f"supported: {', '.join(self._FUNCTIONS)}"
            )
        self._expect("lparen")
        args: list[Any] = []
        if self._peek() and self._peek()[0] != "rparen":
            args.append(self._parse_operand())
            while self._peek() and self._peek()[0] == "comma":
                self._next()
                args.append(self._parse_operand())
        self._expect("rparen")
        return _Function(name, args)


def _name_matches(element: Element, test: str) -> bool:
    if test == "*":
        return True
    if test.startswith("{"):
        return element.name == QName.parse(test)
    if ":" in test:
        test = test.split(":", 1)[1]
    return element.name.local == test


class XPath:
    """A compiled XPath-lite expression."""

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.absolute, self.steps = _Parser(expression).parse()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XPath({self.expression!r})"

    # -- evaluation ----------------------------------------------------------

    def select(self, context: Element) -> list[Any]:
        """Nodes (or attribute/text strings) matching from ``context``."""
        if self.absolute:
            root = context
            while root.parent is not None:
                root = root.parent
            # An absolute path's first step tests the document element itself.
            nodes: list[Any] = [_Root(root)]
        else:
            nodes = [context]
        return _apply_steps(nodes, self.steps)

    def value(self, context: Element) -> str | None:
        """String value of the first match, or ``None`` if nothing matches."""
        selected = self.select(context)
        if not selected:
            return None
        first = selected[0]
        if isinstance(first, Element):
            return first.string_value
        return str(first)

    def matches(self, context: Element) -> bool:
        """True if the expression selects anything from ``context``."""
        return bool(self.select(context))


def coerce_text(text: str | None) -> Any:
    """Best-effort typing of extracted message text for use in conditions:
    int, else float, else the literals ``true``/``false``, else the string."""
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text in ("true", "false"):
        return text == "true"
    return text


class _Root:
    """Synthetic parent of the document element, for absolute paths."""

    def __init__(self, document_element: Element) -> None:
        self.document_element = document_element


def _children_of(node: Any) -> Sequence[Element]:
    if isinstance(node, _Root):
        return (node.document_element,)
    if isinstance(node, Element):
        return node.children
    return ()


def _descendants_of(node: Any) -> list[Element]:
    result: list[Element] = []
    for child in _children_of(node):
        result.extend(child.iter())
    return result


def _apply_steps(nodes: list[Any], steps: list[_Step]) -> list[Any]:
    current = nodes
    for step in steps:
        matched: list[Any] = []
        for node in current:
            matched.extend(_apply_step(node, step))
        # De-duplicate while preserving document order.
        seen: set[int] = set()
        unique: list[Any] = []
        for node in matched:
            key = id(node)
            if key not in seen:
                seen.add(key)
                unique.append(node)
        current = unique
    return current


def _apply_step(node: Any, step: _Step) -> list[Any]:
    if step.axis == "self":
        return [node]
    if step.axis == "parent":
        if isinstance(node, Element) and node.parent is not None:
            return [node.parent]
        return []
    if step.axis == "attribute":
        if isinstance(node, Element) and step.test in node.attributes:
            return [node.attributes[step.test]]
        return []
    if step.axis == "text":
        if isinstance(node, Element) and node.text is not None:
            return [node.text]
        return []
    if step.axis == "descendant":
        candidates: Sequence[Element] = _descendants_of(node)
    else:
        candidates = _children_of(node)
    matched = [el for el in candidates if _name_matches(el, step.test)]
    for predicate in step.predicates:
        matched = [
            el for index, el in enumerate(matched, start=1) if _predicate_holds(el, index, predicate)
        ]
    return matched


def _predicate_holds(element: Element, position: int, predicate: _Predicate) -> bool:
    if predicate.position is not None:
        return position == predicate.position
    left = _operand_value(element, predicate.operand)
    if predicate.op is None:
        if isinstance(left, bool):
            return left
        if isinstance(left, (list, float, int)):
            return bool(left)
        return left is not None and left != ""
    right = _operand_value(element, predicate.right)
    return _compare(left, predicate.op, right)


def _operand_value(element: Element, operand: Any) -> Any:
    if isinstance(operand, (str, float, int)):
        return operand
    if isinstance(operand, _Function):
        return _call_function(element, operand)
    if isinstance(operand, list):  # a relative path
        selected = _apply_steps([element], operand)
        if not selected:
            return None
        first = selected[0]
        if isinstance(first, Element):
            return first.string_value
        return first
    raise XPathError(f"unsupported operand {operand!r}")


def _call_function(element: Element, function: _Function) -> Any:
    args = [_operand_value(element, arg) for arg in function.args]
    if function.name == "contains":
        return args[1] is not None and args[0] is not None and str(args[1]) in str(args[0])
    if function.name == "starts-with":
        return args[0] is not None and str(args[0]).startswith(str(args[1]))
    if function.name == "count":
        selected = _apply_steps([element], function.args[0])
        return float(len(selected))
    if function.name == "number":
        try:
            return float(args[0])
        except (TypeError, ValueError):
            return float("nan")
    if function.name == "string":
        return "" if args[0] is None else str(args[0])
    raise XPathError(f"unsupported function {function.name!r}")


def _compare(left: Any, op: str, right: Any) -> bool:
    if left is None or right is None:
        # XPath: comparisons against an empty node-set are false (even '!=').
        return False
    if isinstance(left, bool) or isinstance(right, bool):
        left, right = bool(left), bool(right)
    elif isinstance(left, (int, float)) or isinstance(right, (int, float)):
        try:
            left, right = float(left), float(right)
        except (TypeError, ValueError):
            return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if not isinstance(left, (int, float)):
        try:
            left, right = float(left), float(right)
        except (TypeError, ValueError):
            return False
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise XPathError(f"unsupported operator {op!r}")


def xpath_evaluate(element: Element, expression: str) -> list[Any]:
    """One-shot select: compile and evaluate ``expression`` at ``element``."""
    return XPath(expression).select(element)


def xpath_value(element: Element, expression: str) -> str | None:
    """One-shot string value of the first match."""
    return XPath(expression).value(element)
