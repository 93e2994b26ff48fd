"""Activity model for process definitions.

A process is a tree of named activities. Names are unique within a
definition — they are the anchors that WS-Policy4MASC adaptation policies
use to address insertion/removal points ("an activity block is specified
using beginning and ending points").

Execution protocol: ``execute(instance)`` returns a generator that the
engine runs as a simulated process. Composite activities re-read their child
lists on every scheduling step, which is what makes dynamic modification of
a running instance effective without restarting it.

Each class says what it looks like **once**, in the ``element`` /
``attributes`` / ``slots`` class attributes :class:`Activity` documents.
The base class derives ``children()``, ``copy()`` and ``replace_child()``
from the slots and :mod:`repro.orchestration.xmlio` both directions of the
process-document format from all three: a new activity class is declared
here and nowhere else (docs/process-documents.md, "Adding an activity").
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.orchestration.errors import (
    DefinitionError,
    ModificationError,
    ProcessFault,
    ProcessTerminated,
)
from repro.orchestration.expressions import Expression
from repro.soap import FaultCode, SoapFault
from repro.xmlutils import Element, coerce_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.orchestration.instance import ProcessInstance

__all__ = [
    "Activity",
    "Assign",
    "Compensate",
    "CompensateScope",
    "CompensationPair",
    "CompensationScope",
    "Delay",
    "Empty",
    "Flow",
    "IfElse",
    "Invoke",
    "Receive",
    "Reply",
    "Scope",
    "Sequence",
    "Slot",
    "Terminate",
    "Throw",
    "While",
]

Computation = Callable[[dict[str, Any]], Any]


class Slot(NamedTuple):
    """One child slot of a composite: the instance attribute (and constructor
    keyword) ``name`` holds child activities, in one of three shapes."""

    name: str
    #: ``"list"`` (any number, ordered), ``"one"`` (a single activity) or
    #: ``"map"`` (a dict of key → activity).
    kind: str
    #: XML element wrapped around *each* child; ``None`` writes the children
    #: straight into the activity's own element (at most one such slot).
    wrapper: str | None = None
    #: ``"map"`` only: ``(XML attribute, codec[, default])`` of the key on the
    #: wrapper, read like an entry of ``Activity.attributes``.
    key: tuple | None = None
    #: ``"one"`` only: the slot may be empty (``None``).
    optional: bool = False

    def items(self, activity: "Activity") -> list[tuple[Any, "Activity"]]:
        """The ``(key, child)`` pairs the slot holds on ``activity``, in order."""
        held = getattr(activity, self.name)
        if self.kind == "list":
            return list(enumerate(held))
        if self.kind == "map":
            return list(held.items())
        return [] if held is None else [(None, held)]

    def put(self, activity: "Activity", key: Any, child: "Activity") -> None:
        """Store ``child`` under a key :meth:`items` reported."""
        if self.kind == "one":
            setattr(activity, self.name, child)
        else:
            getattr(activity, self.name)[key] = child


class Activity:
    """Base class: a named node in the process tree.

    The declaration every subclass fills in (``name`` is implicit):

    - ``element``: the XML element; ``None`` means not serializable.
    - ``attributes``: ``(XML name, constructor keyword, codec[, default])``
      tuples in XML order. The codec is ``str``, ``int``, ``float``,
      ``bool`` (a flag, written only when true), ``FaultCode`` or
      ``Expression`` (the text of an expression-valued field, see
      :meth:`_computed`). A fourth item makes the attribute optional: it is
      what the reader passes when the attribute is absent, and a ``None``
      value is not written.
    - ``slots``: the :class:`Slot` s, in XML order.
    """

    element: str | None = None
    attributes: tuple[tuple, ...] = ()
    slots: tuple[Slot, ...] = ()

    def __init__(self, name: str) -> None:
        if not name:
            raise DefinitionError("activity name must be non-empty")
        self.name = name

    def _computed(self, field: str, given: str | Expression | Computation) -> Computation:
        """Normalize an expression-valued field to the callable computing it.

        Strings compile to safe :class:`Expression` s. The declarative source
        stays on the activity as ``<field>_source``: the expression text, or
        the Python callable itself — which has no text, so the XML writer
        refuses it.
        """
        if isinstance(given, str):
            given = Expression(given)
        if isinstance(given, Expression):
            setattr(self, f"{field}_source", given.source)
            return given.evaluate
        if not callable(given):
            raise DefinitionError(
                f"{type(self).__name__} {self.name!r}: invalid {field} {given!r}"
            )
        setattr(self, f"{field}_source", given)
        return given

    def children(self) -> list["Activity"]:
        """Direct child activities, slot by slot in declaration order."""
        found: list[Activity] = []
        for slot in self.slots:  # not via Slot.items: every tree walk calls this
            held = getattr(self, slot.name)
            if slot.kind == "list":
                found += held
            elif slot.kind == "map":
                found += held.values()
            elif held is not None:
                found.append(held)
        return found

    def iter_tree(self) -> Generator["Activity", None, None]:
        """This activity and all descendants, depth-first."""
        yield self
        for child in self.children():
            yield from child.iter_tree()

    def copy(self) -> "Activity":
        """A structural clone for transient-modification workflows.

        Everything an edit can mutate — the declared slots and every plain
        list or dict beside them (``Invoke.inputs``) — is copied; immutable
        leaves (compiled expressions, callables, literals) are shared with
        the original.
        """
        clone = object.__new__(type(self))
        state = clone.__dict__
        state.update(self.__dict__)
        for attribute, value in self.__dict__.items():
            if type(value) in (list, dict):
                state[attribute] = value.copy()
        for slot in self.slots:
            for key, child in slot.items(self):
                slot.put(clone, key, child.copy())
        return clone

    def replace_child(self, target: "Activity", replacement: "Activity") -> None:
        """Put ``replacement`` where ``target`` hangs, whichever slot that is."""
        for slot in self.slots:
            for key, child in slot.items(self):
                if child is target:
                    slot.put(self, key, replacement)
                    return
        raise ModificationError(
            f"cannot locate {target.name!r} inside parent {self.name!r} for replacement"
        )

    def execute(self, instance: "ProcessInstance") -> Generator:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Empty(Activity):
    """A no-op; the canonical replacement body when removing an activity."""

    element = "Empty"

    def execute(self, instance: "ProcessInstance") -> Generator:
        return
        yield  # pragma: no cover - makes this a generator function


class Assign(Activity):
    """Set a process variable from an expression, callable or literal."""

    element = "Assign"
    attributes = (("variable", "variable", str), ("expression", "expression", Expression))

    def __init__(
        self,
        name: str,
        variable: str,
        expression: str | Expression | Computation | None = None,
        value: Any = None,
    ) -> None:
        super().__init__(name)
        self.variable = variable
        if expression is not None:
            self._compute = self._computed("expression", expression)
        else:
            self._compute = lambda _vars: value
            #: A primitive literal is declarative too: its repr is its text.
            primitive = value is None or isinstance(value, (str, int, float, bool))
            self.expression_source = repr(value) if primitive else None

    def execute(self, instance: "ProcessInstance") -> Generator:
        instance.variables[self.variable] = self._compute(instance.variables)
        return
        yield  # pragma: no cover


class Delay(Activity):
    """Wait a fixed or computed number of simulated seconds."""

    element = "Delay"
    attributes = (("seconds", "seconds", Expression),)

    def __init__(self, name: str, seconds: float | str | Expression) -> None:
        super().__init__(name)
        if isinstance(seconds, (str, Expression)):
            self._seconds = self._computed("seconds", seconds)
        else:
            fixed = float(seconds)
            if fixed < 0:
                raise DefinitionError(f"negative delay {fixed}")
            self._seconds = lambda _v: fixed
            self.seconds_source = str(fixed)

    def execute(self, instance: "ProcessInstance") -> Generator:
        yield float(self._seconds(instance.variables))


class Sequence(Activity):
    """Run children one after another.

    The child list is re-read on every step, so activities inserted into a
    *running* sequence (after the execution frontier) are picked up without
    restarting the instance — the core mechanism behind MASC's dynamic
    customization.
    """

    element = "Sequence"
    slots = (Slot("activities", "list"),)

    def __init__(self, name: str, activities: list[Activity] | None = None) -> None:
        super().__init__(name)
        self.activities: list[Activity] = list(activities or ())

    def execute(self, instance: "ProcessInstance") -> Generator:
        completed: set[str] = set()
        while True:
            pending = [child for child in self.activities if child.name not in completed]
            if not pending:
                return
            child = pending[0]
            yield from instance.run_activity(child)
            completed.add(child.name)


class Flow(Activity):
    """Run children concurrently; completes when all complete.

    A fault in any branch fails the flow (remaining branches are abandoned),
    matching BPEL flow semantics closely enough for the case studies.
    """

    element = "Flow"
    slots = (Slot("activities", "list"),)

    def __init__(self, name: str, activities: list[Activity] | None = None) -> None:
        super().__init__(name)
        self.activities: list[Activity] = list(activities or ())

    def execute(self, instance: "ProcessInstance") -> Generator:
        env = instance.env
        branches = [
            env.process(instance.run_activity(child), name=f"flow:{child.name}")
            for child in self.activities
        ]
        if not branches:
            return
        composite = env.all_of(branches)
        try:
            yield composite
        except ProcessFault:
            # A branch faulted. Interrupt deliveries are deferred to the next
            # scheduler turn, so cancel the siblings and *wait for the
            # cancellations to land* before propagating: an enclosing scope's
            # fault handler (and its compensation chain) must observe a
            # quiesced flow, not race against branches that are still running.
            composite.defused = True
            interrupted = _cancel_branches(branches)
            if interrupted and not instance.engine.crashed:
                yield from _await_branches_settled(env, interrupted)
            raise
        except BaseException:
            # Abrupt unwinding (interrupt, crashed-engine tear-down): the
            # composite loses its listener; defuse so a branch failing later
            # doesn't raise unattended in the simulation core. Generator
            # unwinds cannot yield, so settling is not awaited here.
            composite.defused = True
            _cancel_branches(branches)
            raise


def _cancel_branches(branches: list) -> list:
    """Interrupt live flow branches; returns the ones that need to settle."""
    interrupted = []
    for branch in branches:
        if branch.is_alive:
            branch.interrupt("flow aborted")
            branch.defused = True
            interrupted.append(branch)
        elif not branch.processed:
            branch.defused = True
    return interrupted


def _await_branches_settled(env, interrupted: list) -> Generator:
    """Wait until every interrupted branch process has finished unwinding."""
    gate = env.event()
    remaining = len(interrupted)

    def _settled(_event) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            gate.succeed()

    for branch in interrupted:
        branch.callbacks.append(_settled)
    yield gate


class IfElse(Activity):
    """Conditional branch."""

    element = "If"
    attributes = (("condition", "condition", Expression),)
    slots = (Slot("then", "one", "Then"), Slot("orelse", "one", "Else", optional=True))

    def __init__(
        self,
        name: str,
        condition: str | Expression | Computation,
        then: Activity,
        orelse: Activity | None = None,
    ) -> None:
        super().__init__(name)
        self.condition = self._computed("condition", condition)
        self.then = then
        self.orelse = orelse

    def execute(self, instance: "ProcessInstance") -> Generator:
        credits = instance._replay_credits
        if credits:
            # Replaying a rehydrated instance: the branch actually taken
            # before the checkpoint is the one holding completion credits —
            # re-take it rather than re-evaluating the condition, whose
            # variables may have changed after the original decision.
            for branch in self.children():
                if any(credits.get(node.name) for node in branch.iter_tree()):
                    yield from instance.run_activity(branch)
                    return
            if credits.get(self.name):
                # Completed without taking a branch (false condition, no
                # orelse); run_activity consumes this activity's credit.
                return
        if self.condition(instance.variables):
            yield from instance.run_activity(self.then)
        elif self.orelse is not None:
            yield from instance.run_activity(self.orelse)


class While(Activity):
    """Loop while a condition holds.

    ``max_iterations`` is a defensive bound: a policy-inserted loop that
    never converges fails the process instead of hanging the simulation.
    """

    element = "While"
    attributes = (
        ("condition", "condition", Expression),
        ("maxIterations", "max_iterations", int, 10_000),
    )
    slots = (Slot("body", "one"),)

    def __init__(
        self,
        name: str,
        condition: str | Expression | Computation,
        body: Activity,
        max_iterations: int = 10_000,
    ) -> None:
        super().__init__(name)
        self.condition = self._computed("condition", condition)
        self.body = body
        self.max_iterations = max_iterations

    def execute(self, instance: "ProcessInstance") -> Generator:
        iterations = 0
        while self.condition(instance.variables):
            iterations += 1
            if iterations > self.max_iterations:
                raise ProcessFault(
                    SoapFault(
                        FaultCode.SERVER,
                        f"while loop {self.name!r} exceeded {self.max_iterations} iterations",
                    ),
                    self.name,
                )
            yield from instance.run_activity(self.body)


class Invoke(Activity):
    """Call a partner Web service.

    The target can be a concrete address (``to``) or an abstract
    ``service_type`` resolved at runtime by the engine's binder — which is
    how wsBus VEPs and registry-based dynamic selection slot in underneath
    the process without the process knowing.

    ``inputs`` maps message part names to variable names, literal values or
    safe expressions; the response payload lands in ``output_variable`` and
    individual parts can be extracted (type-coerced) into variables via
    ``extract``.
    """

    element = "Invoke"
    #: A document without ``timeoutSeconds`` means no deadline, whatever the
    #: constructor's own default. The ``<Input>``/``<Output>`` parts
    #: (``inputs``, ``extract``) are the one hand-written piece of xmlio.
    attributes = (
        ("operation", "operation", str),
        ("to", "to", str, None),
        ("serviceType", "service_type", str, None),
        ("timeoutSeconds", "timeout_seconds", float, None),
        ("outputVariable", "output_variable", str, None),
        ("paddingVariable", "padding_variable", str, None),
    )

    def __init__(
        self,
        name: str,
        operation: str,
        to: str | None = None,
        service_type: str | None = None,
        inputs: dict[str, Any] | None = None,
        input_builder: Callable[[dict[str, Any]], Element] | None = None,
        output_variable: str | None = None,
        extract: dict[str, str] | None = None,
        timeout_seconds: float | None = 30.0,
        padding_variable: str | None = None,
    ) -> None:
        super().__init__(name)
        if to is None and service_type is None:
            raise DefinitionError(f"Invoke {name!r} needs a target address or service type")
        self.operation = operation
        self.to = to
        self.service_type = service_type
        self.inputs = dict(inputs or {})
        self.input_builder = input_builder
        self.output_variable = output_variable
        self.extract = dict(extract or {})
        self.timeout_seconds = timeout_seconds
        self.padding_variable = padding_variable

    def build_payload(self, instance: "ProcessInstance") -> Element:
        if self.input_builder is not None:
            return self.input_builder(instance.variables)
        payload = Element(f"{self.operation}Request")
        for part, spec in self.inputs.items():
            value = _resolve_input(spec, instance.variables)
            text = "true" if value is True else "false" if value is False else str(value)
            payload.add(part, text=text)
        return payload

    def execute(self, instance: "ProcessInstance") -> Generator:
        payload = self.build_payload(instance)
        padding = 0
        if self.padding_variable is not None:
            padding = int(instance.variables.get(self.padding_variable, 0))
        target = self.to
        if target is None:
            target = instance.engine.resolve_service(self.service_type or "", instance)
        response = yield from instance.invoke_partner(
            activity=self,
            to=target,
            operation=self.operation,
            payload=payload,
            timeout_seconds=self.timeout_seconds,
            padding=padding,
        )
        if self.output_variable is not None:
            instance.variables[self.output_variable] = response.body
        for variable, part in self.extract.items():
            text = response.body.child_text(part) if response.body is not None else None
            instance.variables[variable] = coerce_text(text)


def _resolve_input(spec: Any, variables: dict[str, Any]) -> Any:
    """Input specs: ``VarRef`` strings prefixed with '$', expressions via
    :class:`Expression`, callables, or literals."""
    if isinstance(spec, str) and spec.startswith("$"):
        name = spec[1:]
        if name not in variables:
            raise ProcessFault(
                SoapFault(FaultCode.CLIENT, f"unbound process variable {name!r}")
            )
        return variables[name]
    if isinstance(spec, Expression):
        return spec.evaluate(variables)
    if callable(spec):
        return spec(variables)
    return spec


class Receive(Activity):
    """Bind the instance's initiating message into a variable."""

    element = "Receive"
    attributes = (("variable", "variable", str, "request"),)

    def __init__(self, name: str, variable: str = "request") -> None:
        super().__init__(name)
        self.variable = variable

    def execute(self, instance: "ProcessInstance") -> Generator:
        instance.variables[self.variable] = instance.input
        return
        yield  # pragma: no cover


class Reply(Activity):
    """Set the instance's result (what the composition returns)."""

    element = "Reply"
    attributes = (
        ("variable", "variable", str, None),
        ("expression", "expression", Expression, None),
    )

    def __init__(
        self,
        name: str,
        expression: str | Expression | Computation | None = None,
        variable: str | None = None,
    ) -> None:
        super().__init__(name)
        if (expression is None) == (variable is None):
            raise DefinitionError(f"Reply {name!r} needs exactly one of expression/variable")
        self.variable = variable
        self.expression_source = None
        if expression is not None:
            self._compute = self._computed("expression", expression)

    def execute(self, instance: "ProcessInstance") -> Generator:
        if self.variable is not None:
            instance.result = instance.variables.get(self.variable)
        else:
            instance.result = self._compute(instance.variables)
        return
        yield  # pragma: no cover


class Throw(Activity):
    """Raise a business-process fault."""

    element = "Throw"
    attributes = (("fault", "code", FaultCode), ("reason", "reason", str, ""))

    def __init__(self, name: str, code: FaultCode, reason: str) -> None:
        super().__init__(name)
        self.code = code
        self.reason = reason

    def execute(self, instance: "ProcessInstance") -> Generator:
        raise ProcessFault(SoapFault(self.code, self.reason), self.name)
        yield  # pragma: no cover


class Terminate(Activity):
    """Stop the instance immediately (no fault handling).

    Plain scopes run no handlers on termination; an enclosing
    :class:`CompensationScope` still unwinds its registered compensation
    chain before the termination propagates.
    """

    element = "Terminate"
    attributes = (("reason", "reason", str, "terminated by process"),)

    def __init__(self, name: str, reason: str = "terminated by process") -> None:
        super().__init__(name)
        self.reason = reason

    def execute(self, instance: "ProcessInstance") -> Generator:
        raise ProcessTerminated(self.reason)
        yield  # pragma: no cover


class Scope(Activity):
    """A structured scope: fault handlers, compensation, optional deadline.

    - ``fault_handlers`` maps a :class:`FaultCode` (or ``None`` for
      catch-all) to a handler activity.
    - ``compensation`` is registered when the scope completes and runs if a
      later fault triggers compensation of completed work.
    - ``timeout_seconds`` races the body against an *extensible* deadline;
      cross-layer coordination can push the deadline out while the messaging
      layer retries (the paper's "increase its timeout interval to avoid the
      calling process timing out").
    """

    element = "Scope"
    attributes = (
        ("timeoutSeconds", "timeout_seconds", float, None),
        ("compensateOnFault", "compensate_on_fault", bool, False),
    )
    slots = (
        Slot("body", "one", "Body"),
        Slot("fault_handlers", "map", "FaultHandler", key=("fault", FaultCode, None)),
        Slot("compensation", "one", "Compensation", optional=True),
    )

    def __init__(
        self,
        name: str,
        body: Activity,
        fault_handlers: dict[FaultCode | None, Activity] | None = None,
        compensation: Activity | None = None,
        timeout_seconds: float | None = None,
        compensate_on_fault: bool = False,
    ) -> None:
        super().__init__(name)
        self.body = body
        self.fault_handlers = dict(fault_handlers or {})
        self.compensation = compensation
        self.timeout_seconds = timeout_seconds
        self.compensate_on_fault = compensate_on_fault

    def execute(self, instance: "ProcessInstance") -> Generator:
        try:
            yield from self._run_body(instance)
        except ProcessFault as fault:
            yield from self._handle(instance, fault)
            return
        if self.compensation is not None:
            instance.register_compensation(self)

    def _run_body(self, instance: "ProcessInstance") -> Generator:
        """The body, under the deadline if one is set."""
        if self.timeout_seconds is None:
            return instance.run_activity(self.body)
        return instance.run_with_deadline(self, self.body, self.timeout_seconds)

    def _handle(self, instance: "ProcessInstance", fault: ProcessFault) -> Generator:
        """Run the handler for ``fault``, or re-raise it when none matches.

        :meth:`_before_handler` runs between the look-up and the handler.
        """
        handler = self.fault_handlers.get(fault.code, self.fault_handlers.get(None))
        if handler is None:
            raise fault
        yield from self._before_handler(instance)
        instance.variables["_fault"] = fault.fault
        yield from instance.run_activity(handler)

    def _before_handler(self, instance: "ProcessInstance") -> Generator:
        if self.compensate_on_fault:
            yield from instance.compensate_completed_scopes(self)


def CompensationPair(name: str, primary: Activity, compensation: Activity) -> Scope:
    """Sugar: a scope pairing an activity with its compensation."""
    return Scope(f"{name}", body=primary, compensation=compensation)


class CompensationScope(Scope):
    """A saga scope: per-step compensations, unwound LIFO on fault.

    ``compensations`` maps the names of body activities (saga steps) to
    compensation activities. Each time a mapped step completes, its
    compensation is registered on the instance; a fault, a ``Terminate``
    or a policy-requested compensation unwinds the registered chain in
    reverse (LIFO) order before the scope's fault handler runs — the
    saga pattern's backward recovery, engine-orchestrated.
    """

    element = "CompensationScope"
    #: No ``compensateOnFault``: a saga always compensates.
    attributes = Scope.attributes[:1]
    slots = (
        Scope.slots[0],
        Slot("compensations", "map", "CompensationFor", key=("step", str)),
        *Scope.slots[1:],
    )

    def __init__(
        self,
        name: str,
        body: Activity,
        compensations: dict[str, Activity] | None = None,
        fault_handlers: dict[FaultCode | None, Activity] | None = None,
        compensation: Activity | None = None,
        timeout_seconds: float | None = None,
    ) -> None:
        super().__init__(
            name,
            body,
            fault_handlers=fault_handlers,
            compensation=compensation,
            timeout_seconds=timeout_seconds,
            compensate_on_fault=True,
        )
        self.compensations: dict[str, Activity] = dict(compensations or {})

    def execute(self, instance: "ProcessInstance") -> Generator:
        instance._saga_stack.append(self)
        try:
            try:
                yield from self._run_body(instance)
            except ProcessTerminated:
                # Terminate unwinds the saga before stopping the instance.
                yield from instance.compensate(scope=self.name, reason="terminate")
                raise
            except ProcessFault as fault:
                yield from instance.compensate(
                    scope=self.name, reason=f"fault:{fault.code.value}"
                )
                yield from self._handle(instance, fault)
                return
        finally:
            instance._saga_stack.pop()
        if self.compensation is not None:
            instance.register_compensation(self)

    def _before_handler(self, instance: "ProcessInstance") -> Generator:
        # The request's fault stopped here; later activities (the handler,
        # outer scopes) run normally again.
        instance._compensation_request = None
        yield from ()


class Compensate(Activity):
    """Run the registered compensation chain, LIFO.

    With ``scope`` set, only compensations registered under that
    :class:`CompensationScope` are run (BPEL's ``compensateScope``);
    without it, every registered compensation unwinds.
    """

    #: Replay must re-execute this activity (to re-pop registered
    #: compensations) instead of fast-forwarding it as a leaf.
    replay_composite = True

    element = "Compensate"
    attributes = (("scope", "scope", str, None),)

    def __init__(self, name: str, scope: str | None = None) -> None:
        super().__init__(name)
        self.scope = scope

    def execute(self, instance: "ProcessInstance") -> Generator:
        yield from instance.compensate(scope=self.scope, reason=f"compensate:{self.name}")


def CompensateScope(name: str, scope: str) -> Compensate:
    """Sugar: compensate exactly one named saga scope."""
    if not scope:
        raise DefinitionError(f"CompensateScope {name!r} needs a scope name")
    return Compensate(name, scope=scope)
