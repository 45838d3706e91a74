"""Audit engine: build contexts from fitted artifacts and run rules.

The builders here are the only place the audit layer touches concrete
result types — and even then only through duck typing plus one lazy
import of :func:`repro.core.features.design_matrix` (needed to
reconstruct the design a model was fit on).  The core layers import
:mod:`repro.audit`, never the reverse.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.audit.framework import AuditContext, AuditReport
from repro.audit.rules import all_rules

__all__ = [
    "run_audit",
    "audit_model",
    "audit_workflow",
    "audit_campaign",
    "audit_fleet",
    "model_context",
    "scenario_context",
    "selection_context",
    "campaign_context",
    "fleet_context",
    "workflow_contexts",
]


def run_audit(contexts: Iterable[AuditContext]) -> AuditReport:
    """Run the rule catalogue over a set of artifact contexts."""
    rules = all_rules()
    contexts = list(contexts)
    findings = []
    for ctx in contexts:
        for rule in rules:
            findings.extend(rule.check(ctx))
    return AuditReport(
        findings=tuple(sorted(set(findings))),
        artifacts=tuple(dict.fromkeys(c.artifact for c in contexts)),
        rules_run=tuple(r.id for r in rules),
    )


# --------------------------------------------------------------------------
# context builders


def model_context(
    model,
    dataset=None,
    *,
    artifact: str = "model",
) -> AuditContext:
    """Context for a ``FittedPowerModel`` (or bare ``OLSResult``).

    ``dataset`` (the training data) enables the design-dependent checks
    — heteroscedasticity, leverage; without it the residual- and
    coefficient-level rules still run.
    """
    ols = getattr(model, "ols", model)
    exog = None
    mape_pct = None
    if dataset is not None and hasattr(model, "counters"):
        from repro.core.features import design_matrix

        exog = design_matrix(dataset, model.counters)
        mape_pct = float(model.evaluate(dataset)["mape"])
    params = np.asarray(getattr(ols, "params", ()), dtype=np.float64)
    return AuditContext(
        artifact=artifact,
        kind="model",
        ols=ols,
        exog=exog,
        cov_type=getattr(model, "cov_type", getattr(ols, "cov_type", None)),
        r2=float(getattr(ols, "rsquared", float("nan"))),
        mape_pct=mape_pct,
        n_samples=int(getattr(ols, "nobs", 0)) or None,
        n_params=int(params.size) or None,
    )


def scenario_context(
    scenario,
    *,
    n_params: Optional[int] = None,
    artifact: Optional[str] = None,
) -> AuditContext:
    """Context for a ``ScenarioResult`` (per-scenario validation)."""
    n_samples = int(getattr(scenario.validation, "n_samples", 0)) or None
    return AuditContext(
        artifact=artifact or f"scenario:{getattr(scenario, 'name', '?')}",
        kind="scenario",
        r2=float(scenario.r2),
        mape_pct=float(scenario.mape),
        n_samples=n_samples,
        n_params=n_params,
        n_splits=len(getattr(scenario, "fold_mapes", ())) or None,
    )


def selection_context(selection, *, artifact: str = "selection") -> AuditContext:
    """Context for a ``SelectionResult`` (the chosen counter set)."""
    return AuditContext(
        artifact=artifact, kind="selection", selection=selection
    )


def campaign_context(report, *, artifact: str = "campaign") -> AuditContext:
    """Context for a ``CampaignReport`` (acquisition provenance)."""
    return AuditContext(artifact=artifact, kind="campaign", campaign=report)


def fleet_context(report, *, artifact: str = "fleet") -> AuditContext:
    """Context for a ``FleetReport`` (serving-layer health roll-up)."""
    return AuditContext(artifact=artifact, kind="fleet", fleet=report)


def workflow_contexts(result) -> List[AuditContext]:
    """Contexts for every artifact a ``WorkflowResult`` carries."""
    warnings = tuple(getattr(result, "warnings", ()))
    contexts = [
        model_context(result.model, result.full_dataset),
        selection_context(result.selection),
        scenario_context(
            result.validation,
            n_params=int(np.asarray(result.model.ols.params).size),
            artifact="validation:cv",
        ),
    ]
    if warnings:
        contexts.append(
            AuditContext(
                artifact="workflow", kind="workflow", warnings=warnings
            )
        )
    return contexts


# --------------------------------------------------------------------------
# one-call audits


def audit_model(model, dataset=None, *, artifact: str = "model") -> AuditReport:
    """Audit one fitted model (the persistence-gate entry point)."""
    return run_audit([model_context(model, dataset, artifact=artifact)])


def audit_workflow(result) -> AuditReport:
    """Audit everything a workflow run produced."""
    return run_audit(workflow_contexts(result))


def audit_campaign(report) -> AuditReport:
    """Audit a campaign's acquisition provenance."""
    return run_audit([campaign_context(report)])


def audit_fleet(report) -> AuditReport:
    """Audit a fleet service's health roll-up (AU013)."""
    return run_audit([fleet_context(report)])
