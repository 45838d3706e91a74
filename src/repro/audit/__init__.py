"""repraudit — statistical-rigor audit over fitted artifacts.

This package gates the *results*: every fitted model, cross-validation
summary, scenario result, campaign report and fleet roll-up can be run
through one fixed catalogue of methodological validity rules
(AU002–AU011, AU013) and graded on the ``pass``/``minor``/``major``/
``fail`` verdict scale.  The verdict gates reporting and model
persistence; the tier-1 suite audits the paper-reference workflows in
strict mode.

Entry points
------------
* :func:`audit_model` / :func:`audit_workflow` / :func:`audit_campaign`
  / :func:`audit_fleet` — one-call audits of the concrete result types;
* :func:`~repro.audit.reference.audit_reference` — the Table I–IV
  reference workflows;
* ``python -m repro.audit`` — the command line.

There is no configuration: each threshold is a constant in
:mod:`repro.audit.rules`, next to the rule that reads it.
"""

from repro.audit.engine import (
    audit_campaign,
    audit_fleet,
    audit_model,
    audit_workflow,
    campaign_context,
    fleet_context,
    model_context,
    run_audit,
    scenario_context,
    selection_context,
    workflow_contexts,
)
from repro.audit.framework import (
    VERDICTS,
    AuditContext,
    AuditFinding,
    AuditGateError,
    AuditReport,
    AuditRule,
)
from repro.audit.reference import audit_reference, reference_contexts
from repro.audit.rules import all_rules

__all__ = [
    "AuditContext",
    "AuditFinding",
    "AuditGateError",
    "AuditReport",
    "AuditRule",
    "VERDICTS",
    "run_audit",
    "audit_model",
    "audit_workflow",
    "audit_campaign",
    "audit_fleet",
    "audit_reference",
    "reference_contexts",
    "model_context",
    "scenario_context",
    "selection_context",
    "campaign_context",
    "fleet_context",
    "workflow_contexts",
    "all_rules",
]
