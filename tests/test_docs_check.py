"""Keep the documentation true.

Two enforcement mechanisms:

1. every fenced ```python block in ``docs/*.md`` is extracted and
   executed here, so documented examples stay runnable as the code
   evolves (the README advertises this);
2. the API references the prose makes — dotted ``repro.*`` paths,
   class/method names, action element ↔ class mappings, the expression
   language's builtin whitelist — are resolved against the live code.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"

FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def python_blocks() -> list[tuple[str, int, str]]:
    """Every fenced python block in docs/*.md as (doc, index, source)."""
    blocks = []
    for doc in sorted(DOCS_DIR.glob("*.md")):
        for index, match in enumerate(FENCE.finditer(doc.read_text(encoding="utf-8"))):
            blocks.append((doc.name, index, match.group(1)))
    return blocks


_BLOCKS = python_blocks()


def test_docs_exist_and_contain_python_examples():
    names = {doc for doc, _, _ in _BLOCKS}
    assert {"observability.md", "simulation.md"} <= names
    # Diagram-only pages are allowed no python, but must exist.
    assert (DOCS_DIR / "architecture.md").is_file()
    assert (DOCS_DIR / "policy-language.md").is_file()


@pytest.mark.parametrize(
    "doc,index,source",
    _BLOCKS,
    ids=[f"{doc}#{index}" for doc, index, _ in _BLOCKS],
)
def test_fenced_python_blocks_execute(doc, index, source):
    """The documented examples run exactly as printed."""
    namespace = {"__name__": f"docscheck_{doc.replace('.', '_')}_{index}"}
    # dont_inherit: a documented example must not run under this module's
    # ``from __future__ import annotations``.
    exec(compile(source, f"{doc}[block {index}]", "exec", dont_inherit=True), namespace)


# --- API audit: the names the prose mentions must exist -----------------------

DOTTED = re.compile(r"\brepro(?:\.\w+)+")


def resolve(path: str):
    """Import the longest module prefix of ``path``, getattr the rest."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


@pytest.mark.parametrize("doc", ["simulation.md", "observability.md"])
def test_every_dotted_reference_resolves(doc):
    text = (DOCS_DIR / doc).read_text(encoding="utf-8")
    references = sorted(set(DOTTED.findall(text)))
    assert references, f"{doc} mentions no repro.* paths?"
    for reference in references:
        resolve(reference)


class TestSimulationDocAudit:
    def test_kernel_names(self):
        from repro import simulation

        for name in ("Environment", "Event", "Timeout", "Process", "AnyOf", "AllOf"):
            assert hasattr(simulation, name), name
        assert hasattr(simulation.Process, "interrupt")

    def test_random_source_streams(self):
        from repro.simulation import RandomSource

        source = RandomSource(42)
        assert source.stream("service.RetailerA") is source.stream("service.RetailerA")
        assert source.fork("availability") is not None

    def test_cost_model_names(self):
        from repro.policy import PolicyRepository
        from repro.services import ProcessingModel  # noqa: F401
        from repro.simulation import Environment, RandomSource
        from repro.transport import LatencyModel, Network
        from repro.wsbus import WsBus

        env = Environment()
        bus = WsBus(env, Network(env, RandomSource(1)), repository=PolicyRepository())
        assert isinstance(bus.mediation_overhead, LatencyModel)

    def test_referenced_tests_exist(self):
        tests_dir = Path(__file__).resolve().parent
        assert (tests_dir / "test_determinism.py").is_file()
        # The "one subtle bug" anecdote names a real regression test.
        corpus = "".join(
            p.read_text(encoding="utf-8") for p in tests_dir.glob("test_*.py")
        )
        assert "def test_any_of_pending_timeout_does_not_count_as_fired" in corpus

    def test_one_way_to_wait(self):
        """A wait in ``src/repro`` yields the delay; ``env.timeout`` is for a
        Timeout that must be an event (composed, shared or cancelled)."""
        source = DOCS_DIR.parent / "src" / "repro"
        # A timeout made only to be yielded, here or by a helper that hands
        # it to its caller: ``yield …timeout(`` / ``return …timeout(``.
        waited = re.compile(r"\b(?:yield|return)\b[^\n#]*\.timeout\(")
        offenders = [
            f"{path.relative_to(source)}:{text.count(chr(10), 0, match.start()) + 1}"
            for path in sorted(source.rglob("*.py"))
            for text in [path.read_text(encoding="utf-8")]
            for match in waited.finditer(text)
        ]
        assert offenders == [], "wait with `yield delay`, not a Timeout: " + ", ".join(offenders)


class TestPolicyLanguageDocAudit:
    def test_loading_entry_points(self):
        from repro.core import MASC
        from repro.core.parser import MASCPolicyParser
        from repro.policy import PolicyRepository

        assert callable(PolicyRepository.load_xml)
        assert callable(MASCPolicyParser.import_file)
        assert callable(MASCPolicyParser.import_directory)
        assert callable(MASC.load_policies)

    def test_validate_document_signature(self):
        from repro.policy import validate_document

        parameters = inspect.signature(validate_document).parameters
        assert {"document", "process", "known_service_types"} <= set(parameters)

    def test_action_tables_are_the_rendered_schema(self):
        """The committed tables equal what the declarations render to."""
        from repro.policy import render_action_tables

        text = (DOCS_DIR / "policy-language.md").read_text(encoding="utf-8")
        assert render_action_tables(text) == text

    def test_documented_rows_are_exactly_the_declared_elements(self):
        """Every declared element has a row; every row is a declared element."""
        from repro.policy import InvokeSpec
        from repro.policy.actions import AdaptationAction

        text = (DOCS_DIR / "policy-language.md").read_text(encoding="utf-8")
        blocks = re.findall(r"<!-- actions:\S+ -->\n(.*?)<!-- /actions -->", text, re.DOTALL)
        documented = re.findall(r"^\| `(\w+)` \|", "".join(blocks), re.MULTILINE)
        declared = {cls.element for cls in AdaptationAction.by_element.values()}
        assert sorted(documented) == sorted(declared | {InvokeSpec.element})

    def test_goal_policy_machinery(self):
        from repro.core.optimization import UtilityDrivenDecisionMaker  # noqa: F401

    def test_expression_builtin_whitelist_matches_doc(self):
        """The doc enumerates the safe builtins; the code must agree."""
        from repro.orchestration.expressions import _SAFE_FUNCTIONS

        documented = {"len", "min", "max", "abs", "round", "str", "int", "float", "bool", "sum"}
        assert set(_SAFE_FUNCTIONS) == documented

    def test_documented_xml_policies_parse(self):
        """The three XML fences in the doc are valid WS-Policy4MASC."""
        from repro.policy import PolicyRepository

        text = (DOCS_DIR / "policy-language.md").read_text(encoding="utf-8")
        fences = re.findall(r"^```xml\s*$(.*?)^```\s*$", text, re.MULTILINE | re.DOTALL)
        assert len(fences) >= 3
        wrapped = (
            '<wsp:Policy Name="doc-fences"'
            ' xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy"'
            ' xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc">'
            + "".join(re.sub(r"<!--.*?-->", "", fence, flags=re.DOTALL) for fence in fences)
            + "</wsp:Policy>"
        )
        repository = PolicyRepository()
        document = repository.load_xml(wrapped)
        names = {p.name for p in document.monitoring_policies} | {
            p.name for p in document.adaptation_policies
        } | {p.name for p in document.goal_policies}
        assert {
            "detect-international-trade",
            "retailer-retry-then-failover",
            "maximize-trading-value",
        } <= names


class TestArchitectureDocAudit:
    def test_stage_table_is_what_a_fully_configured_bus_composes(self):
        """Stage, chain and owning package, in the order the bus composes."""
        from repro.casestudies.scm import (
            RETAILER_CONTRACT,
            resilience_policy_document,
            slo_policy_document,
            traffic_policy_document,
        )
        from repro.observability import MetricsRegistry, Tracer
        from repro.policy import PolicyRepository
        from repro.simulation import Environment
        from repro.transport import Network
        from repro.wsbus import WsBus
        from repro.wsbus.pipeline import stages_of

        env = Environment()
        repository = PolicyRepository()
        for document in (
            resilience_policy_document(), traffic_policy_document(), slo_policy_document()
        ):
            repository.load(document)
        bus = WsBus(
            env, Network(env), repository=repository, tracer=Tracer(clock=lambda: env.now),
            metrics=MetricsRegistry(), mediation_capacity=2,
        )
        vep = bus.create_vep("retailers", RETAILER_CONTRACT, members=["http://scm/retailerA"])
        composed = [
            (stage.__name__, chain, ".".join(stage.__module__.split(".")[:2]))
            for chain, handler in (
                ("VEP", bus.network.endpoint(vep.address).handler),
                ("send", bus._deliver),
            )
            for stage in stages_of(handler)
        ]
        text = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        table = re.search(r"<!-- stages -->\n(.*?)<!-- /stages -->", text, re.DOTALL).group(1)
        documented = re.findall(r"^\| `(\w+)` \| (\w+) \| `([\w.]+)` \|", table, re.MULTILINE)
        assert documented == composed


    def test_router_table_is_what_a_fully_configured_bus_and_fleet_subscribe(self):
        """Owner, publisher and subscribers, in order, of every router."""
        import operator

        from repro.casestudies.scm import (
            RETAILER_CONTRACT,
            resilience_policy_document,
            slo_policy_document,
            traffic_policy_document,
        )
        from repro.core import MASC
        from repro.core.prevention import QoSTrendDetector
        from repro.federation import BusFleet
        from repro.observability import MetricsRegistry, Tracer
        from repro.policy import PolicyRepository
        from repro.simulation import Environment
        from repro.transport import Network
        from repro.wsbus import WsBus
        from repro.wsbus.conversation import ConversationManager
        from repro.wsbus.probing import ManagementEventSource

        env = Environment()
        repository = PolicyRepository()
        for document in (
            resilience_policy_document(), traffic_policy_document(), slo_policy_document()
        ):
            repository.load(document)
        bus = WsBus(
            env, Network(env), repository=repository, tracer=Tracer(clock=lambda: env.now),
            metrics=MetricsRegistry(), mediation_capacity=2,
        )
        bus.create_vep("retailers", RETAILER_CONTRACT, members=["http://scm/retailerA"])
        world = {
            "bus": bus,
            "breaker": bus.resilience.breaker_for("http://scm/retailerA"),
            "fleet": BusFleet(env, Network(env), shards=2),
            "masc": MASC(seed=1),
            "conversations": ConversationManager(env),
            "management": ManagementEventSource(env),
            "trends": QoSTrendDetector(env),
        }
        text = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        table = re.search(r"<!-- routers -->\n(.*?)<!-- /routers -->", text, re.DOTALL).group(1)
        rows = re.findall(
            r"^\| `(\w+)` \| `([\w.]+)` \| (.+?) \| (.+?) \| (.+?) \|$", table, re.MULTILINE
        )
        assert len(rows) == len(table.strip().splitlines()) - 2
        assert {row[0] for row in rows} == _router_owners()
        qualname = re.compile(r"`(\w+\.\w+)`")

        def name_of(owner, handler):
            """A handler's qualname; an audit list's ``append`` as ``<attribute>.append``."""
            target = getattr(handler, "__self__", None)
            if type(target) is not list:
                return handler.__qualname__
            return next(f"{name}.append" for name, held in vars(owner).items() if held is target)

        for owner_name, path, kind_cell, publishers, subscribers in rows:
            first, _, rest = path.removesuffix(".router").partition(".")
            owner = operator.attrgetter(rest)(world[first]) if rest else world[first]
            assert type(owner).__name__ == owner_name, path
            for publisher in qualname.findall(publishers):
                cls_name, method = publisher.split(".")
                assert cls_name == owner_name, publisher
                assert "self.router." in inspect.getsource(getattr(type(owner), method))
            kinds = re.findall(r"`([\w.]+)`", kind_cell) or ["fault.ServiceFailure", "anyName"]
            documented = qualname.findall(subscribers)
            for kind in kinds:
                subscribed = [name_of(owner, handler) for handler in owner.router.handlers(kind)]
                assert list(dict.fromkeys(subscribed)) == documented, (path, kind)


def _router_owners() -> set[str]:
    """Every class in ``src/repro`` whose code builds an ``EventRouter``."""
    owners = set()
    for path in (DOCS_DIR.parent / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and "EventRouter()" in ast.unparse(node):
                owners.add(node.name)
    return owners


class TestScenarioDocAudit:
    def test_field_table_is_exactly_the_scenario_dataclass(self):
        """Every field with its default, in declaration order, and no other."""
        from dataclasses import MISSING, fields

        from repro.experiments import Scenario

        text = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        table = re.search(r"<!-- scenario -->\n(.*?)<!-- /scenario -->", text, re.DOTALL).group(1)
        documented = re.findall(r"^\| `(\w+)` \| (.+?) \|", table, re.MULTILINE)
        declared = [
            (field.name, "—" if field.default is MISSING else f"`{field.default!r}`")
            for field in fields(Scenario)
        ]
        assert documented == declared


def _process_document_rows() -> list[str]:
    """The element table of process-documents.md, as the declarations render it."""
    from repro.orchestration import Expression
    from repro.orchestration.xmlio import _declared_classes
    from repro.soap import FaultCode

    kinds = {Expression: "expression", bool: "flag", FaultCode: "FaultCode"}

    def attribute(xml_name, _keyword, codec, *default):
        text = f"`{xml_name}` {kinds.get(codec, codec.__name__)}"
        if not default:
            return f"{text}, required"
        return f"{text}, optional" + ("" if default[0] is None else f" (`{default[0]!r}`)")

    def slot(declared):
        where = f"in `<{declared.wrapper}>`" if declared.wrapper else "inline"
        if declared.kind == "map":
            name, codec, *default = declared.key
            key = f"`{name}` {kinds.get(codec, codec.__name__)}"
            return f"`{declared.name}`: map {where} keyed by {key}" + (
                ", optional" if default else ", required"
            )
        count = {"list": "any number", "one": "at most one" if declared.optional else "one"}
        return f"`{declared.name}`: {count[declared.kind]} {where}"

    rows = []
    for cls in _declared_classes().values():
        if cls.__module__.startswith("repro."):
            attributes = "; ".join(attribute(*declared) for declared in cls.attributes)
            slots = "; ".join(slot(declared) for declared in cls.slots)
            rows.append(
                f"| `{cls.element}` | `{cls.__name__}` | {attributes or '—'} | {slots or '—'} |"
            )
    return sorted(rows)


class TestProcessDocumentsDocAudit:
    def test_element_table_is_exactly_the_declarations(self):
        """No undocumented element, attribute or slot; none documented that
        is not declared. On a mismatch the assertion shows the rows to paste."""
        text = (DOCS_DIR / "process-documents.md").read_text(encoding="utf-8")
        table = re.search(r"<!-- elements -->\n(.*?)<!-- /elements -->", text, re.DOTALL).group(1)
        documented = sorted(re.findall(r"^\| `\w+` \| `\w+` \|.*$", table, re.MULTILINE))
        assert documented == _process_document_rows()

    def test_doc_is_linked_from_the_index_and_from_persistence(self):
        readme = (DOCS_DIR.parent / "README.md").read_text(encoding="utf-8")
        assert "(docs/process-documents.md)" in readme
        assert "(process-documents.md)" in (DOCS_DIR / "persistence.md").read_text(encoding="utf-8")


def _engine_event_rows() -> list[tuple[str, str]]:
    """(kind, "Read by" cell) per row of docs/persistence.md's event table."""
    text = (DOCS_DIR / "persistence.md").read_text(encoding="utf-8")
    table = re.search(
        r"<!-- engine-events -->\n(.*?)<!-- /engine-events -->", text, re.DOTALL
    ).group(1)
    return re.findall(r"^\| `(\w+)` \|.*\| (.*) \|$", table, re.MULTILINE)


def _runtime_services() -> list[type]:
    """Every class of the package that reads engine events (defines
    ``on_event``), the ``RuntimeService`` base excluded."""
    import pkgutil

    import repro
    from repro.orchestration import RuntimeService

    found = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(module.name)).values():
            if (
                isinstance(value, type)
                and value.__module__.startswith("repro.")
                and "on_event" in vars(value)
                and value is not RuntimeService
            ):
                found.add(value)
    return sorted(found, key=lambda cls: cls.__name__)


class TestPersistenceDocAudit:
    def test_engine_event_table_is_exactly_the_published_kinds(self):
        """Every kind the source passes to ``notify(`` is tabled once, and
        nothing else is."""
        documented = [kind for kind, _ in _engine_event_rows()]
        source = Path(importlib.import_module("repro").__file__).parent
        published = {
            kind
            for path in source.rglob("*.py")
            for kind in re.findall(r'\bnotify\(\s*"(\w+)"', path.read_text(encoding="utf-8"))
        }
        assert sorted(documented) == sorted(published)

    def test_readers_are_exactly_the_services_declaring_the_kind(self):
        """The "Read by" cell of each kind names exactly the runtime services
        whose ``kinds`` declare it, and every runtime service of the package
        declares its kinds (the engine hands it nothing else)."""
        services = _runtime_services()
        assert {cls.__name__ for cls in services} == {
            "CheckpointingService",
            "MASCAdaptationService",
            "ProcessCrashInjector",
            "TrackingService",
        }
        for kind, readers in _engine_event_rows():
            declaring = {cls.__name__ for cls in services if kind in cls.kinds}
            assert set(re.findall(r"`(\w+)`", readers)) == declaring, kind

    def test_a_runtime_service_has_two_methods(self):
        from repro.orchestration import RuntimeService

        assert {name for name in vars(RuntimeService) if not name.startswith("_")} == {
            "attached",
            "on_event",
        }
