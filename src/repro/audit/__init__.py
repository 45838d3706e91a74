"""repraudit — statistical-rigor audit over fitted artifacts.

This package gates the *results*: every fitted model, cross-validation
summary, scenario result, campaign report and online-drift tally can be
run through a catalogue of methodological validity rules (AU001–AU013)
and graded on the ``pass``/``minor``/``major``/``fail`` verdict scale.
The verdict gates reporting and model persistence; CI audits the
paper-reference workflows in strict mode.

Entry points
------------
* :func:`audit_model` / :func:`audit_workflow` / :func:`audit_campaign`
  / :func:`audit_drift` — one-call audits of the concrete result types;
* :func:`~repro.audit.reference.audit_reference` — the Table I–IV
  reference workflows;
* ``repraudit`` / ``python -m repro.audit`` — the command line.

Configuration lives in ``[tool.repro.audit]`` of ``pyproject.toml``
(see :class:`~repro.audit.config.AuditConfig`).
"""

from repro.audit.config import AuditConfig, PERSISTENCE_MODES
from repro.audit.engine import (
    audit_campaign,
    audit_drift,
    audit_fleet,
    audit_model,
    audit_workflow,
    campaign_context,
    drift_context,
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
from repro.audit.rules import all_rules, rules_by_id

__all__ = [
    "AuditConfig",
    "PERSISTENCE_MODES",
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
    "audit_drift",
    "audit_fleet",
    "audit_reference",
    "reference_contexts",
    "model_context",
    "scenario_context",
    "selection_context",
    "campaign_context",
    "drift_context",
    "fleet_context",
    "workflow_contexts",
    "all_rules",
    "rules_by_id",
]
