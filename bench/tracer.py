"""Outside-in per-layer attribution: no line of the program is edited.

A *layer* is a top-level package under ``src/repro/``. ``install()``
replaces, at run time and from this file only:

- every public function and method of every ``repro`` module with a thin
  wrapper that counts the call and, when the call crosses from one layer
  into another, times it;
- ``Environment.process`` so that every generator handed to the kernel
  runs behind a per-resume timing proxy labelled with the layer its code
  lives in. Generators returned by layer-crossing calls get the same
  proxy, because process ownership alone is blind: a delivery process of
  ``transport`` ``yield from``s the VEP of ``wsbus``.

Accounting is exclusive-time-by-stack. A frame is pushed when control
enters a layer and popped when it leaves; the time a frame was on top of
the stack is that layer's *self time*. ``measure()`` pushes the root
frame (layer ``workload``: the load generator), so the self times of all
layers tile the traced wall exactly; what is left in the kernel's own
frame (``Environment.run`` minus every process resume) is the
``simulation`` layer.

A *span* is recorded for every proxied generator — one per process or
layer-crossing generator call: (id, parent, op, name, layer, start, end,
busy, self). ``parent`` is the span that was running when the generator
was created, so spans of one client request share an ``op`` id inherited
from the request's root span. Plain calls are aggregated, not recorded:
there are a hundred of them per request.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from enum import Enum
from types import FunctionType, GeneratorType

__all__ = ["LAYERS", "LayerTracer", "layer_of_module"]

#: The sixteen reported layers, hot path first.
LAYERS = (
    "simulation",
    "soap",
    "xmlutils",
    "transport",
    "services",
    "workload",
    "wsbus",
    "policy",
    "resilience",
    "traffic",
    "observability",
    "federation",
    "faultinjection",
    "orchestration",
    "core",
    "persistence",
)

#: Packages that are not layers of their own: the case-study services are
#: service implementations, WSDL contracts build SOAP payloads, and the
#: experiment harness and statistics helpers belong to the load generator.
_FOLDED = {
    "casestudies": "services",
    "wsdl": "soap",
    "experiments": "workload",
    "metrics": "workload",
    "cli": "workload",
}

#: Spans that start a new op when no enclosing span carries one: a client
#: request, or a process instance on the orchestration workload.
_OP_ROOTS = frozenset({"Invoker.invoke", "ProcessInstance.run"})

#: Properties are not wrapped (``env.now`` is read millions of times); the
#: ones a metric needs counted are named here.
_COUNTED_PROPERTIES = frozenset({"repro.soap.envelope.SoapEnvelope.size_bytes"})

#: Functions whose result length is summed (bytes serialised).
_SIZED_RESULTS = frozenset({"repro.xmlutils.element.serialize_xml"})

# Span record slots.
_ID, _PARENT, _OP, _NAME, _LAYER, _START, _END, _BUSY, _SELF, _IS_PROCESS = range(10)


def layer_of_module(module_name: str) -> str | None:
    """The reported layer of a ``repro.*`` module name, else None."""
    parts = module_name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    package = parts[1]
    layer = _FOLDED.get(package, package)
    return sys.intern(layer) if layer in LAYERS else None


class LayerTracer:
    """Wraps the program's public surface and attributes host time to layers."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        #: Active frames, innermost last: [layer, entered, child seconds, span].
        self._stack: list[list] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        #: Layer-crossing entries (plain calls and generator spans) per layer.
        self.entries: dict[str, int] = defaultdict(int)
        #: Kernel-level resumes of processes, per owning layer.
        self.resumes: dict[str, int] = defaultdict(int)
        #: Calls per wrapped public name while measuring, same-layer calls included.
        self._call_cells: dict[str, list[int]] = {}
        self._size_cells: dict[str, list[int]] = {}
        #: (span name, exception type name) -> count, for escaped exceptions.
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[list] = []
        self._open_spans: dict[int, list] = {}
        self._span_of_proxy: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._next_span = 0
        self._next_op = 0
        self._layer_of_file: dict[str, str | None] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.wall_seconds = 0.0
        self.missing: list[str] = []

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of every ``repro`` module."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            importlib.import_module(info.name)
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if module is not None and layer_of_module(name) is not None
        }
        replaced: dict[int, object] = {}
        for module_name, module in modules.items():
            layer = layer_of_module(module_name)
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if isinstance(value, FunctionType) and not attr.startswith("_"):
                    qualified = f"{module_name}.{attr}"
                    replaced[id(value)] = self._wrap(value, attr, qualified, layer)
                elif isinstance(value, type) and not issubclass(value, (BaseException, Enum)):
                    self._wrap_class(value, module_name, layer)
        # ``from x import f`` binds f in the importer's globals as well.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and isinstance(value, FunctionType):
                    self._set(module, attr, wrapper)
        self._wrap_process()
        for name in sorted(_COUNTED_PROPERTIES | _SIZED_RESULTS):
            if name not in self._call_cells:
                self.missing.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, module_name: str, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            qualified = f"{module_name}.{cls.__name__}.{attr}"
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, property):
                if qualified in _COUNTED_PROPERTIES and value.fget is not None:
                    getter = self._wrap(value.fget, name, qualified, layer)
                    self._set(cls, attr, property(getter, value.fset, value.fdel, value.__doc__))
                continue
            if attr.startswith("_"):
                continue
            if isinstance(value, FunctionType):
                self._set(cls, attr, self._wrap(value, name, qualified, layer))
            elif isinstance(value, (staticmethod, classmethod)) and isinstance(
                value.__func__, FunctionType
            ):
                wrapped = self._wrap(value.__func__, name, qualified, layer)
                self._set(cls, attr, type(value)(wrapped))

    def _wrap(self, function, name: str, qualified: str, layer: str):
        cell = self._call_cells.setdefault(qualified, [0])
        stack = self._stack
        clock = self._clock
        self_seconds = self.self_seconds
        entries = self.entries
        proxy = self._proxy
        sized = self._size_cells.setdefault(qualified, [0]) if qualified in _SIZED_RESULTS else None

        if inspect.isgeneratorfunction(function):

            def wrapper(*args, **kwargs):
                generator = function(*args, **kwargs)
                if not stack:
                    return generator
                cell[0] += 1
                if stack[-1][0] is layer:
                    return generator
                return proxy(generator, name, layer)

        else:

            def wrapper(*args, **kwargs):
                if not stack:
                    return function(*args, **kwargs)
                cell[0] += 1
                if stack[-1][0] is layer:
                    result = function(*args, **kwargs)
                    if sized is not None:
                        sized[0] += len(result)
                    return result
                entries[layer] += 1
                entered = clock()
                frame = [layer, entered, 0.0, stack[-1][3]]
                stack.append(frame)
                try:
                    result = function(*args, **kwargs)
                finally:
                    elapsed = clock() - entered
                    stack.pop()
                    self_seconds[layer] += elapsed - frame[2]
                    stack[-1][2] += elapsed
                if sized is not None:
                    sized[0] += len(result)
                if type(result) is GeneratorType:
                    # A plain function handing back a generator of its layer
                    # (``Network.send`` returns ``self._exchange(...)``).
                    entries[layer] -= 1
                    return proxy(result, name, layer)
                return result

        return functools.update_wrapper(wrapper, function)

    def _wrap_process(self) -> None:
        from repro.simulation import Environment

        wrapped = vars(Environment)["process"]
        span_of_proxy = self._span_of_proxy

        def process(env, generator, name=None):
            span = span_of_proxy.get(generator)
            if span is None and type(generator) is GeneratorType:
                code = generator.gi_code
                layer = self._layer_of_code(code)
                if layer is not None:
                    generator = self._proxy(generator, generator.__qualname__, layer)
                    span = span_of_proxy[generator]
            if span is not None:
                span[_IS_PROCESS] = True
            return wrapped(env, generator, name)

        self._set(Environment, "process", functools.update_wrapper(process, wrapped))

    def _layer_of_code(self, code) -> str | None:
        filename = code.co_filename
        try:
            return self._layer_of_file[filename]
        except KeyError:
            layer = None
            marker = "/repro/"
            index = filename.rfind(marker)
            if index >= 0:
                relative = filename[index + len(marker) :].removesuffix(".py")
                layer = layer_of_module("repro." + relative.replace("/", "."))
            self._layer_of_file[filename] = layer
            return layer

    # -- generator proxy -----------------------------------------------------------

    def _proxy(self, generator, name: str, layer: str):
        stack = self._stack
        parent = stack[-1][3] if stack else None
        self._next_span += 1
        op = parent[_OP] if parent is not None else None
        if op is None and name in _OP_ROOTS:
            self._next_op += 1
            op = self._next_op
        span = [
            self._next_span,
            parent[_ID] if parent is not None else None,
            op,
            name,
            layer,
            None,
            None,
            0.0,
            0.0,
            False,
        ]
        self._open_spans[span[_ID]] = span
        self.entries[layer] += 1
        proxy = self._drive(generator, span, layer)
        self._span_of_proxy[proxy] = span
        return proxy

    def _drive(self, generator, span: list, layer: str):
        stack = self._stack
        clock = self._clock
        self_seconds = self.self_seconds
        resumes = self.resumes
        send = generator.send
        throw = generator.throw
        value = None
        error = None
        try:
            while True:
                # Unarmed (set-up, or after the timed phase) the proxy only forwards.
                armed = bool(stack)
                if armed:
                    entered = clock()
                    frame = [layer, entered, 0.0, span]
                    stack.append(frame)
                try:
                    target = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    return stop.value
                except BaseException as escaped:
                    if armed:
                        self.errors[(span[_NAME], type(escaped).__name__)] += 1
                    raise
                finally:
                    if armed:
                        left = clock()
                        stack.pop()
                        elapsed = left - entered
                        own = elapsed - frame[2]
                        self_seconds[layer] += own
                        stack[-1][2] += elapsed
                        if span[_START] is None:
                            span[_START] = entered
                        span[_END] = left
                        span[_BUSY] += elapsed
                        span[_SELF] += own
                        if span[_IS_PROCESS]:
                            resumes[layer] += 1
                try:
                    value = yield target
                    error = None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as thrown:
                    value = None
                    error = thrown
        finally:
            if self._open_spans.pop(span[_ID], None) is not None and span[_START] is not None:
                self.spans.append(span)

    # -- measuring ------------------------------------------------------------------

    @contextmanager
    def measure(self):
        """The timed phase: pushes the root ``workload`` frame."""
        if self._stack:
            raise RuntimeError("LayerTracer.measure() is not re-entrant")
        root_span = [0, None, None, "bench.drive", "workload", None, None, 0.0, 0.0, False]
        entered = self._clock()
        frame = ["workload", entered, 0.0, root_span]
        self._stack.append(frame)
        try:
            yield self
        finally:
            elapsed = self._clock() - entered
            self._stack.pop()
            self.self_seconds["workload"] += elapsed - frame[2]
            self.wall_seconds += elapsed

    def reset(self) -> None:
        """Forget everything measured so far; the wrappers stay installed."""
        if self._stack:
            raise RuntimeError("cannot reset while measuring")
        for cells in (self._call_cells, self._size_cells):
            for cell in cells.values():
                cell[0] = 0
        for table in (self.self_seconds, self.entries, self.resumes, self.errors):
            table.clear()
        self.spans.clear()
        self._open_spans.clear()
        self.wall_seconds = 0.0

    # -- read-out -------------------------------------------------------------------

    def calls(self, qualified: str) -> int:
        """Calls of one wrapped public name (0 if the program lacks it)."""
        cell = self._call_cells.get(qualified)
        return cell[0] if cell is not None else 0

    def calls_under(self, prefix: str, suffixes: tuple[str, ...]) -> int:
        """Calls summed over wrapped names under ``prefix`` ending in one of ``suffixes``."""
        return sum(
            cell[0]
            for name, cell in self._call_cells.items()
            if name.startswith(prefix) and name.endswith(suffixes)
        )

    def result_size(self, qualified: str) -> int:
        cell = self._size_cells.get(qualified)
        return cell[0] if cell is not None else 0

    def error_count(self, span_name: str, exception_name: str) -> int:
        return self.errors.get((span_name, exception_name), 0)

    def all_spans(self) -> list[list]:
        """Finished spans plus those still suspended when measuring ended."""
        unfinished = [span for span in self._open_spans.values() if span[_START] is not None]
        return self.spans + unfinished

    def write_spans(self, path) -> int:
        spans = self.all_spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span[_ID],
                            "parent": span[_PARENT],
                            "op": span[_OP],
                            "name": span[_NAME],
                            "layer": span[_LAYER],
                            "start": span[_START],
                            "end": span[_END],
                            "busy_us": round(span[_BUSY] * 1e6, 3),
                            "self_us": round(span[_SELF] * 1e6, 3),
                            "process": span[_IS_PROCESS],
                        }
                    )
                )
                handle.write("\n")
        return len(spans)
