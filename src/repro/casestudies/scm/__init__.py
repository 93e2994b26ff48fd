"""WS-I Supply Chain Management (SCM) sample application.

"The SCM scenarios... simulate business activity of an online supplier of
electronic goods": a Web client calls a Retailer's ``getCatalog`` and
``submitOrder``; the Retailer fulfils orders from Warehouses A→B→C with
fall-through; warehouses restock from their Manufacturers when stock drops
below a threshold; every use case logs to the Logging Facility; a
Configuration service lists implementations from the UDDI registry.
"""

from repro.casestudies.scm.contracts import (
    CONFIGURATION_CONTRACT,
    LOGGING_CONTRACT,
    MANUFACTURER_CONTRACT,
    RETAILER_CONTRACT,
    WAREHOUSE_CONTRACT,
)
from repro.casestudies.scm.deployment import (
    SCMDeployment,
    STORM_FAULTS,
    TABLE1_FAULTS,
    build_scm_deployment,
)
from repro.casestudies.scm.policies import (
    broadcast_policy_document,
    federation_policy_document,
    logging_skip_policy_document,
    resilience_policy_document,
    retailer_recovery_policy_document,
    saga_policy_document,
    shed_only_policy_document,
    slo_policy_document,
    tracing_policy_document,
    traffic_policy_document,
)
from repro.casestudies.scm.process import build_scm_process, build_scm_saga_process
from repro.casestudies.scm.services import (
    ConfigurationService,
    LoggingFacilityService,
    ManufacturerService,
    RetailerService,
    WarehouseService,
)

__all__ = [
    "CONFIGURATION_CONTRACT",
    "ConfigurationService",
    "LOGGING_CONTRACT",
    "LoggingFacilityService",
    "MANUFACTURER_CONTRACT",
    "ManufacturerService",
    "RETAILER_CONTRACT",
    "RetailerService",
    "SCMDeployment",
    "STORM_FAULTS",
    "TABLE1_FAULTS",
    "WAREHOUSE_CONTRACT",
    "WarehouseService",
    "broadcast_policy_document",
    "build_scm_deployment",
    "build_scm_process",
    "build_scm_saga_process",
    "federation_policy_document",
    "logging_skip_policy_document",
    "resilience_policy_document",
    "retailer_recovery_policy_document",
    "saga_policy_document",
    "shed_only_policy_document",
    "slo_policy_document",
    "tracing_policy_document",
    "traffic_policy_document",
]
