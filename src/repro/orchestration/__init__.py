"""Workflow orchestration engine.

A from-scratch equivalent of the capabilities MASC uses from the Windows
Workflow Foundation runtime (Section 2.1 of the paper):

- processes defined as activity trees (:mod:`repro.orchestration.activities`)
  and executed by a lightweight engine hosted in the simulation;
- an extensible set of runtime services, each reading the lifecycle
  events the engine publishes (Tracking and Persistence are built in; MASC
  plugs its adaptation service in the same way);
- instance suspension/resumption at activity boundaries;
- dynamic modification: the engine hands out a **transient copy** of a
  process's object representation, the caller edits it with the primitives
  in :mod:`repro.orchestration.modification`, and the engine applies the
  changes to the running instance.
"""

from repro.orchestration.activities import (
    Activity,
    Assign,
    Compensate,
    CompensateScope,
    CompensationPair,
    CompensationScope,
    Delay,
    Empty,
    Flow,
    IfElse,
    Invoke,
    Receive,
    Reply,
    Scope,
    Sequence,
    Slot,
    Terminate,
    Throw,
    While,
)
from repro.orchestration.definition import ProcessDefinition
from repro.orchestration.engine import (
    EngineEvent,
    FaultVerdict,
    RuntimeService,
    TrackingEvent,
    TrackingService,
    WorkflowEngine,
)
from repro.orchestration.errors import (
    DefinitionError,
    ModificationError,
    ProcessFault,
    ProcessTerminated,
)
from repro.orchestration.expressions import Expression, ExpressionError
from repro.orchestration.instance import (
    CompensationEntry,
    InstanceStatus,
    ProcessInstance,
)
from repro.orchestration.modification import (
    ModificationOperation,
    ProcessModifier,
    find_with_parent,
    perform_operation,
)
from repro.orchestration.xmlio import (
    PROCESS_NS,
    ProcessSerializationError,
    parse_activity,
    parse_process_definition,
    serialize_activity,
    serialize_process_definition,
)

__all__ = [
    "Activity",
    "Assign",
    "Compensate",
    "CompensateScope",
    "CompensationEntry",
    "CompensationPair",
    "CompensationScope",
    "DefinitionError",
    "Delay",
    "Empty",
    "EngineEvent",
    "Expression",
    "ExpressionError",
    "FaultVerdict",
    "Flow",
    "IfElse",
    "InstanceStatus",
    "Invoke",
    "ModificationError",
    "ModificationOperation",
    "PROCESS_NS",
    "ProcessDefinition",
    "ProcessFault",
    "ProcessInstance",
    "ProcessModifier",
    "ProcessSerializationError",
    "ProcessTerminated",
    "Receive",
    "Reply",
    "RuntimeService",
    "Scope",
    "Sequence",
    "Slot",
    "Terminate",
    "Throw",
    "TrackingEvent",
    "TrackingService",
    "While",
    "WorkflowEngine",
    "find_with_parent",
    "parse_activity",
    "parse_process_definition",
    "perform_operation",
    "serialize_activity",
    "serialize_process_definition",
]
