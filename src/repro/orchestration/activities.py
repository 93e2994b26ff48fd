"""Activity model for process definitions.

A process is a tree of named activities. Names are unique within a
definition — they are the anchors that WS-Policy4MASC adaptation policies
use to address insertion/removal points ("an activity block is specified
using beginning and ending points").

Execution protocol: ``execute(instance)`` returns a generator that the
engine runs as a simulated process. Composite activities re-read their child
lists on every scheduling step, which is what makes dynamic modification of
a running instance effective without restarting it.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any

from repro.orchestration.errors import DefinitionError, ProcessFault, ProcessTerminated
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
    "Terminate",
    "Throw",
    "While",
]

Condition = Callable[[dict[str, Any]], bool]


def as_condition(condition: str | Expression | Condition) -> Condition:
    """Normalize a condition: string → safe Expression, else callable."""
    if isinstance(condition, str):
        condition = Expression(condition)
    if isinstance(condition, Expression):
        expression = condition
        return expression.holds
    if callable(condition):
        return condition
    raise DefinitionError(f"not a valid condition: {condition!r}")


class Activity:
    """Base class: a named node in the process tree."""

    def __init__(self, name: str) -> None:
        if not name:
            raise DefinitionError("activity name must be non-empty")
        self.name = name

    def children(self) -> list["Activity"]:
        """Direct child activities (overridden by composites)."""
        return []

    def iter_tree(self) -> Generator["Activity", None, None]:
        """This activity and all descendants, depth-first."""
        yield self
        for child in self.children():
            yield from child.iter_tree()

    def copy(self) -> "Activity":
        """A structural clone for transient-modification workflows.

        Everything an edit can mutate — child lists, child slots, handler
        and input maps — is copied; immutable leaves (compiled expressions,
        callables, literals) are shared with the original. Composites extend
        this with their own containers.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def execute(self, instance: "ProcessInstance") -> Generator:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Empty(Activity):
    """A no-op; the canonical replacement body when removing an activity."""

    def execute(self, instance: "ProcessInstance") -> Generator:
        return
        yield  # pragma: no cover - makes this a generator function


class Assign(Activity):
    """Set a process variable from an expression, callable or literal."""

    def __init__(
        self,
        name: str,
        variable: str,
        expression: str | Expression | Callable[[dict[str, Any]], Any] | None = None,
        value: Any = None,
    ) -> None:
        super().__init__(name)
        self.variable = variable
        #: Serializable source of the computation, for the XML process form.
        self._assign_source: str | None = None
        if expression is None:
            self._compute: Callable[[dict[str, Any]], Any] = lambda _vars: value
            if isinstance(value, (str, int, float, bool)) or value is None:
                self._assign_source = repr(value)
        elif isinstance(expression, str):
            compiled = Expression(expression)
            self._compute = compiled.evaluate
            self._assign_source = expression
        elif isinstance(expression, Expression):
            self._compute = expression.evaluate
            self._assign_source = expression.source
        elif callable(expression):
            self._compute = expression
        else:
            raise DefinitionError(f"invalid Assign expression: {expression!r}")

    def execute(self, instance: "ProcessInstance") -> Generator:
        instance.variables[self.variable] = self._compute(instance.variables)
        return
        yield  # pragma: no cover


class Delay(Activity):
    """Wait a fixed or computed number of simulated seconds."""

    def __init__(self, name: str, seconds: float | str | Expression) -> None:
        super().__init__(name)
        if isinstance(seconds, (str, Expression)):
            expression = seconds if isinstance(seconds, Expression) else Expression(seconds)
            self._seconds: Callable[[dict[str, Any]], float] = lambda v: float(
                expression.evaluate(v)
            )
            self._delay_source: str | None = expression.source
        else:
            fixed = float(seconds)
            if fixed < 0:
                raise DefinitionError(f"negative delay {fixed}")
            self._seconds = lambda _v: fixed
            self._delay_source = str(fixed)

    def execute(self, instance: "ProcessInstance") -> Generator:
        yield instance.env.timeout(self._seconds(instance.variables))


class Sequence(Activity):
    """Run children one after another.

    The child list is re-read on every step, so activities inserted into a
    *running* sequence (after the execution frontier) are picked up without
    restarting the instance — the core mechanism behind MASC's dynamic
    customization.
    """

    def __init__(self, name: str, activities: list[Activity] | None = None) -> None:
        super().__init__(name)
        self.activities: list[Activity] = list(activities or ())

    def children(self) -> list[Activity]:
        return list(self.activities)

    def copy(self) -> "Activity":
        clone = super().copy()
        clone.activities = [child.copy() for child in self.activities]
        return clone

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

    def __init__(self, name: str, activities: list[Activity] | None = None) -> None:
        super().__init__(name)
        self.activities: list[Activity] = list(activities or ())

    def children(self) -> list[Activity]:
        return list(self.activities)

    def copy(self) -> "Activity":
        clone = super().copy()
        clone.activities = [child.copy() for child in self.activities]
        return clone

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

    def __init__(
        self,
        name: str,
        condition: str | Expression | Condition,
        then: Activity,
        orelse: Activity | None = None,
    ) -> None:
        super().__init__(name)
        self._condition_source = condition
        self.condition = as_condition(condition)
        self.then = then
        self.orelse = orelse

    def children(self) -> list[Activity]:
        branches = [self.then]
        if self.orelse is not None:
            branches.append(self.orelse)
        return branches

    def copy(self) -> "Activity":
        clone = super().copy()
        clone.then = self.then.copy()
        if self.orelse is not None:
            clone.orelse = self.orelse.copy()
        return clone

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

    def __init__(
        self,
        name: str,
        condition: str | Expression | Condition,
        body: Activity,
        max_iterations: int = 10_000,
    ) -> None:
        super().__init__(name)
        self.condition = as_condition(condition)
        self.body = body
        self.max_iterations = max_iterations
        #: Serializable condition source, for the XML process form.
        if isinstance(condition, str):
            self._condition_source_text: str | None = condition
        elif isinstance(condition, Expression):
            self._condition_source_text = condition.source
        else:
            self._condition_source_text = None

    def children(self) -> list[Activity]:
        return [self.body]

    def copy(self) -> "Activity":
        clone = super().copy()
        clone.body = self.body.copy()
        return clone

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

    def copy(self) -> "Activity":
        clone = super().copy()
        clone.inputs = dict(self.inputs)
        clone.extract = dict(self.extract)
        return clone

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

    def __init__(self, name: str, variable: str = "request") -> None:
        super().__init__(name)
        self.variable = variable

    def execute(self, instance: "ProcessInstance") -> Generator:
        instance.variables[self.variable] = instance.input
        return
        yield  # pragma: no cover


class Reply(Activity):
    """Set the instance's result (what the composition returns)."""

    def __init__(
        self,
        name: str,
        expression: str | Expression | Callable[[dict[str, Any]], Any] | None = None,
        variable: str | None = None,
    ) -> None:
        super().__init__(name)
        if (expression is None) == (variable is None):
            raise DefinitionError(f"Reply {name!r} needs exactly one of expression/variable")
        #: Serializable source ("variable"/"expression", value) or None.
        self._reply_source: tuple[str, str] | None = None
        if variable is not None:
            self._compute: Callable[[dict[str, Any]], Any] = (
                lambda v, _name=variable: v.get(_name)
            )
            self._reply_source = ("variable", variable)
        elif isinstance(expression, str):
            compiled = Expression(expression)
            self._compute = compiled.evaluate
            self._reply_source = ("expression", expression)
        elif isinstance(expression, Expression):
            self._compute = expression.evaluate
            self._reply_source = ("expression", expression.source)
        else:
            assert callable(expression)
            self._compute = expression

    def execute(self, instance: "ProcessInstance") -> Generator:
        instance.result = self._compute(instance.variables)
        return
        yield  # pragma: no cover


class Throw(Activity):
    """Raise a business-process fault."""

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

    def children(self) -> list[Activity]:
        nested = [self.body]
        nested.extend(self.fault_handlers.values())
        if self.compensation is not None:
            nested.append(self.compensation)
        return nested

    def copy(self) -> "Activity":
        clone = super().copy()
        clone.body = self.body.copy()
        clone.fault_handlers = {
            code: handler.copy() for code, handler in self.fault_handlers.items()
        }
        if self.compensation is not None:
            clone.compensation = self.compensation.copy()
        return clone

    def execute(self, instance: "ProcessInstance") -> Generator:
        try:
            if self.timeout_seconds is None:
                yield from instance.run_activity(self.body)
            else:
                yield from instance.run_with_deadline(self, self.body, self.timeout_seconds)
        except ProcessFault as fault:
            handler = self.fault_handlers.get(fault.code, self.fault_handlers.get(None))
            if handler is None:
                raise
            if self.compensate_on_fault:
                yield from instance.compensate_completed_scopes(self)
            instance.variables["_fault"] = fault.fault
            yield from instance.run_activity(handler)
            return
        if self.compensation is not None:
            instance.register_compensation(self)


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

    def children(self) -> list[Activity]:
        nested = super().children()
        nested.extend(self.compensations.values())
        return nested

    def copy(self) -> "Activity":
        clone = super().copy()
        clone.compensations = {
            step: activity.copy() for step, activity in self.compensations.items()
        }
        return clone

    def execute(self, instance: "ProcessInstance") -> Generator:
        instance._saga_stack.append(self)
        try:
            try:
                if self.timeout_seconds is None:
                    yield from instance.run_activity(self.body)
                else:
                    yield from instance.run_with_deadline(
                        self, self.body, self.timeout_seconds
                    )
            except ProcessTerminated:
                # Terminate unwinds the saga before stopping the instance.
                yield from instance.compensate(scope=self.name, reason="terminate")
                raise
            except ProcessFault as fault:
                yield from instance.compensate(
                    scope=self.name, reason=f"fault:{fault.code.value}"
                )
                handler = self.fault_handlers.get(fault.code, self.fault_handlers.get(None))
                if handler is None:
                    raise
                if instance._compensation_request is not None:
                    # The request's fault stopped here; later activities
                    # (the handler, outer scopes) run normally again.
                    instance._compensation_request = None
                instance.variables["_fault"] = fault.fault
                yield from instance.run_activity(handler)
                return
        finally:
            instance._saga_stack.pop()
        if self.compensation is not None:
            instance.register_compensation(self)


class Compensate(Activity):
    """Run the registered compensation chain, LIFO.

    With ``scope`` set, only compensations registered under that
    :class:`CompensationScope` are run (BPEL's ``compensateScope``);
    without it, every registered compensation unwinds.
    """

    #: Replay must re-execute this activity (to re-pop registered
    #: compensations) instead of fast-forwarding it as a leaf.
    replay_composite = True

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
