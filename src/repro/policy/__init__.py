"""WS-Policy4MASC: the policy language.

The paper's novel WS-Policy extension for "specification of policies for
monitoring of functional and QoS aspects... and different types of
adaptation". A policy document is a WS-Policy ``Policy`` element carrying
MASC assertions of two kinds:

- **monitoring policies** (ECA sensors): triggering events, relevance
  conditions, message pre/post-conditions expressed as XPath constraints,
  QoS thresholds against SLAs — classifying violations into fault types
  and/or emitting higher-level events;
- **adaptation policies** (effectors): triggered by events/faults, guarded
  by conditions and required subject states, executing ordered adaptation
  actions (process-layer: add/remove/replace activities, suspend/resume/
  terminate, extend timeouts; messaging-layer: retry, substitute,
  concurrent invocation, skip), moving the subject to a new state and
  accounting a business-value delta.

Documents round-trip to real XML (:mod:`repro.policy.xml`), are stored in a
:class:`~repro.policy.repository.PolicyRepository` with priority-ordered
lookup and hot reload, and are checked by :mod:`repro.policy.validation`.
"""

from repro.policy import actions
from repro.policy.actions import *  # noqa: F401,F403 - the vocabulary, listed once in its __all__
from repro.policy.assertions import MessageCondition, QoSThreshold
from repro.policy.model import (
    AdaptationPolicy,
    BusinessValue,
    GoalPolicy,
    MonitoringPolicy,
    MonitoringVerdict,
    PolicyDocument,
    PolicyScope,
)
from repro.policy.reference import render_action_tables
from repro.policy.repository import PolicyRepository
from repro.policy.validation import PolicyValidationError, validate_document
from repro.policy.xml import MASC_POLICY_NS, WSP_NS, parse_policy_document, serialize_policy_document

__all__ = [
    *actions.__all__,
    "AdaptationPolicy",
    "BusinessValue",
    "GoalPolicy",
    "MASC_POLICY_NS",
    "MessageCondition",
    "MonitoringPolicy",
    "MonitoringVerdict",
    "PolicyDocument",
    "PolicyRepository",
    "PolicyScope",
    "PolicyValidationError",
    "QoSThreshold",
    "WSP_NS",
    "parse_policy_document",
    "render_action_tables",
    "serialize_policy_document",
    "validate_document",
]
