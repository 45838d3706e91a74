"""Reference-workflow audit: the four paper pipelines under the gate.

``repraudit`` with no arguments runs the rule catalogue over the
artifacts behind the paper's headline tables — the counter selection
(Table I), the fitted Equation 1 model, and the four validation
scenarios (Tables II–IV / Fig. 4), plus the scenarios' warnings (fold
fallbacks) when there are any — all built
from the shared cached campaign.  A clean checkout audits ``pass``;
the tier-1 suite asserts that in strict mode, so a statistical-rigor
regression fails it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.audit.engine import (
    model_context,
    run_audit,
    scenario_context,
    selection_context,
)
from repro.audit.framework import AuditContext, AuditReport
from repro.seeding import DEFAULT_SEED

__all__ = ["reference_contexts", "audit_reference"]


def reference_contexts(*, seed: int = DEFAULT_SEED) -> List[AuditContext]:
    """Contexts for the paper-reference artifacts, built from the shared
    cached campaign and its Algorithm 1 selection."""
    from repro.core.model import PowerModel
    from repro.core.scenarios import run_all_scenarios
    from repro.experiments.data import (
        full_dataset,
        selection_result,
    )

    dataset = full_dataset(seed=seed)
    selection = selection_result(seed=seed)
    counters = selection.selected
    model = PowerModel(counters).fit(dataset)
    n_params = int(np.asarray(model.ols.params).size)

    contexts = [model_context(model, dataset), selection_context(selection)]
    issues: List[str] = []
    scenarios = run_all_scenarios(dataset, counters, seed=seed, issues=issues)
    contexts.extend(
        scenario_context(res, n_params=n_params, artifact=f"scenario:{name}")
        for name, res in scenarios.items()
    )
    if issues:
        contexts.append(
            AuditContext(
                artifact="workflow", kind="workflow", warnings=tuple(issues)
            )
        )
    return contexts


def audit_reference(*, seed: int = DEFAULT_SEED) -> AuditReport:
    """Audit the Table I–IV reference workflows."""
    return run_audit(reference_contexts(seed=seed))
