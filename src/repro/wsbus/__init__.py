"""wsBus: the SOAP messaging middleware (Section 3 of the paper).

The key abstraction is the :class:`VirtualEndpoint` (VEP): "a set of
functionally equivalent services" exposed behind "an abstract WSDL",
acting as a recovery block with attached runtime policies. Around it:

- :class:`QoSMeasurementService` — reliability / response time /
  availability measurement from invocation records;
- :class:`BusMonitoringService` — assertion-based fault capture and
  classification at the messaging layer;
- :class:`AdaptationManager` — policy-driven recovery: retries (with retry
  and dead-letter queues), substitution, concurrent invocation, skipping;
- :class:`SelectionService` — round-robin / best-QoS / broadcast /
  content-based dynamic binding;
- message :class:`~repro.wsbus.pipeline.MessagePipeline` with inspectors
  and the Message Adaptation Service's transformation modules
  (:mod:`repro.wsbus.transformation`);
- :class:`WsBus` — the deployable intermediary (gateway to an orchestration
  engine or transparent proxy).
"""

from repro.wsbus.adaptation import AdaptationManager, RecoveryOutcome
from repro.wsbus.enforcement import BusEnforcementPoint, QuarantineRecord
from repro.wsbus.bus import WsBus
from repro.wsbus.conversation import Conversation, ConversationManager, ConversationState
from repro.wsbus.monitoring import BusMonitoringService, MonitoringPoint
from repro.wsbus.probing import ManagementEventSource, ProbeResult, QoSProbe
from repro.wsbus.pipeline import (
    ApplicabilityRule,
    MessagePipeline,
    MessageProcessingModule,
    PipelineContext,
)
from repro.wsbus.inspectors import (
    BusinessEventTracer,
    ContractValidationInspector,
    MessageLogger,
)
from repro.wsbus.qos import EndpointQoS, QoSMeasurementService
from repro.wsbus.retry import DeadLetterQueue, RetryQueue
from repro.wsbus.selection import SelectionService
from repro.wsbus.transformation import (
    AggregatorModule,
    EnrichmentModule,
    PayloadTransformModule,
    SplitterModule,
)
from repro.wsbus.vep import VirtualEndpoint

__all__ = [
    "AdaptationManager",
    "AggregatorModule",
    "ApplicabilityRule",
    "BusEnforcementPoint",
    "BusMonitoringService",
    "BusinessEventTracer",
    "ContractValidationInspector",
    "Conversation",
    "ConversationManager",
    "ConversationState",
    "DeadLetterQueue",
    "EndpointQoS",
    "EnrichmentModule",
    "MessageLogger",
    "ManagementEventSource",
    "MessagePipeline",
    "MessageProcessingModule",
    "MonitoringPoint",
    "PayloadTransformModule",
    "PipelineContext",
    "ProbeResult",
    "QoSMeasurementService",
    "QoSProbe",
    "QuarantineRecord",
    "RecoveryOutcome",
    "RetryQueue",
    "SelectionService",
    "SplitterModule",
    "VirtualEndpoint",
    "WsBus",
]
