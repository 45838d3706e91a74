"""End-to-end modeling workflow (Fig. 1 of the paper).

``data acquisition → post-processing → PMC selection → model
formulation → validation`` in one call, so the examples and the CLI can
run the whole methodology without touching the individual layers.

The workflow acquires through the strict
:func:`~repro.acquisition.campaign.run_campaign`, or accepts a
pre-acquired ``dataset`` (e.g. the degraded output of a
:class:`~repro.acquisition.campaign.Campaign` run under a fault plan),
and has a ``robust=True`` mode that switches the whole pipeline onto the
hardened path: Huber-IRLS fits, missing-candidate-tolerant selection,
and a clamped event count when the degraded data cannot support the
requested model size.  Degradation is surfaced, never swallowed — see
:attr:`WorkflowResult.warnings` and :attr:`WorkflowResult.diagnostics`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.acquisition.campaign import run_campaign
from repro.acquisition.dataset import PowerDataset
from repro.audit.framework import AuditReport
from repro.core.model import FittedPowerModel, PowerModel
from repro.core.scenarios import ScenarioResult, scenario_cv_all
from repro.core.selection import SelectionResult, select_events
from repro.hardware.dvfs import PAPER_FREQUENCIES_MHZ, SELECTION_FREQUENCY_MHZ
from repro.hardware.platform import Platform
from repro.seeding import DEFAULT_SEED
from repro.stats.linalg import FitDiagnostics
from repro.timing import StageTimer, TimingReport
from repro.workloads.base import Workload
from repro.workloads.registry import all_workloads

__all__ = ["WorkflowResult", "run_workflow"]

#: Fewest selection rows that can support the smallest Equation 1 trial
#: fit (one alpha term + beta/gamma/delta) with a residual left over.
MIN_SELECTION_ROWS = 5


@dataclass(frozen=True)
class WorkflowResult:
    """Everything the four workflow stages produced."""

    selection_dataset: PowerDataset
    """All workloads at the fixed selection frequency (Section IV-A)."""
    full_dataset: PowerDataset
    """All workloads across all DVFS states (Section IV-B)."""
    selection: SelectionResult
    model: FittedPowerModel
    """Equation 1 fitted on the full dataset with the selected events."""
    validation: ScenarioResult
    """10-fold cross validation of the model (Table II scenario)."""
    warnings: Tuple[str, ...] = ()
    """Degraded-data notes gathered across the stages (robust mode)."""
    timing: Optional[TimingReport] = None
    """Per-stage wall time (monotonic clock); not part of the modeled
    output, so bit-identity comparisons must exclude it."""
    audit: Optional[AuditReport] = None
    """Statistical-rigor audit (:mod:`repro.audit`) of the model,
    selection and validation artifacts; :func:`run_workflow` always
    attaches it."""

    @property
    def selected_counters(self) -> Tuple[str, ...]:
        return self.selection.selected

    @property
    def diagnostics(self) -> Optional[FitDiagnostics]:
        """Numerical provenance of the final model fit."""
        return self.model.diagnostics

    def summary(self) -> str:
        rows = [
            "Workflow summary",
            f"  selection dataset: {self.selection_dataset.n_samples} phases "
            f"@ {int(self.selection_dataset.frequency_mhz[0])} MHz",
            f"  full dataset:      {self.full_dataset.n_samples} phases, "
            f"{len(set(map(int, self.full_dataset.frequency_mhz)))} DVFS states",
            f"  selected events:   {', '.join(self.selected_counters)}",
            f"  model fit:         R2={self.model.rsquared:.4f} "
            f"Adj.R2={self.model.rsquared_adj:.4f} "
            f"({self.model.estimator})",
            f"  10-fold CV MAPE:   {self.validation.mape:.2f} %",
        ]
        if self.diagnostics is not None and not self.diagnostics.clean:
            rows.append(f"  fit diagnostics:   {self.diagnostics.summary()}")
        if self.audit is not None:
            rows.append(
                f"  audit verdict:     {self.audit.verdict} "
                f"({len(self.audit.findings)} finding(s))"
            )
        for w in self.warnings:
            rows.append(f"  warning: {w}")
        if self.timing is not None and self.timing.stages:
            rows.append("  timing:")
            rows.extend(f"    {s.describe()}" for s in self.timing.stages)
        return "\n".join(rows)


def run_workflow(
    platform: Optional[Platform] = None,
    *,
    workloads: Optional[Sequence[Workload]] = None,
    selection_frequency_mhz: int = SELECTION_FREQUENCY_MHZ,
    frequencies_mhz: Sequence[int] = PAPER_FREQUENCIES_MHZ,
    n_events: int = 6,
    criterion: str = "r2",
    seed: int = DEFAULT_SEED,
    sampling_interval_s: float = 0.1,
    dataset: Optional[PowerDataset] = None,
    robust: bool = False,
) -> WorkflowResult:
    """Run the complete methodology of the paper.

    Defaults reproduce the paper's setup: all roco2 + SPEC workloads,
    counter selection at 2400 MHz, model training/validation across the
    five DVFS states, six selected events.

    Parameters
    ----------
    dataset:
        Pre-acquired full dataset; when given, acquisition is skipped
        and the workflow models exactly these rows (the chaos pipeline
        hands the degraded output of a fault-injected campaign here).
    robust:
        Route every stage through the hardened path: Huber-IRLS fits
        (``estimator="huber"``), selection that skips missing/unfittable
        candidates instead of raising, a clamped event count when fewer
        candidates survive, and a selection-frequency fallback to the
        full dataset when the degraded campaign lost that frequency
        entirely.  All such adaptations land in the result's
        ``warnings``.

    The :mod:`repro.audit` statistical-rigor pass always runs over the
    produced artifacts and its report is attached as
    :attr:`WorkflowResult.audit` (read-only).
    """
    platform = platform or Platform(seed=seed)
    if selection_frequency_mhz not in frequencies_mhz:
        raise ValueError(
            "the selection frequency must be one of the campaign "
            f"frequencies, got {selection_frequency_mhz} vs {frequencies_mhz}"
        )

    run_warnings: list = []
    timer = StageTimer()
    if dataset is not None:
        full = dataset
    else:
        workloads = (
            list(workloads) if workloads is not None else all_workloads()
        )
        with timer.stage(
            "acquisition", n_items=len(workloads) * len(frequencies_mhz)
        ):
            full = run_campaign(
                platform,
                workloads,
                frequencies_mhz,
                sampling_interval_s=sampling_interval_s,
            )
    if full.n_samples == 0:
        raise ValueError("workflow dataset is empty")

    selection_ds = full.filter(frequency_mhz=selection_frequency_mhz)
    if selection_ds.n_samples == 0:
        if not robust:
            raise ValueError(
                f"dataset has no rows at the selection frequency "
                f"{selection_frequency_mhz} MHz"
            )
        run_warnings.append(
            f"no rows at selection frequency {selection_frequency_mhz} MHz; "
            "selecting on the full dataset instead"
        )
        selection_ds = full
    elif robust and selection_ds.n_samples < MIN_SELECTION_ROWS:
        # A degraded campaign can leave a frequency subset too thin for
        # even a one-counter trial fit; selection on it would reject
        # every candidate as underdetermined.
        run_warnings.append(
            f"only {selection_ds.n_samples} row(s) at selection frequency "
            f"{selection_frequency_mhz} MHz (need {MIN_SELECTION_ROWS}); "
            "selecting on the full dataset instead"
        )
        selection_ds = full

    estimator = "huber" if robust else "ols"
    effective_n_events = n_events
    if robust:
        n_candidates = len(selection_ds.counter_names)
        if effective_n_events > n_candidates:
            run_warnings.append(
                f"requested {n_events} events but the degraded dataset "
                f"carries only {n_candidates} counters; clamping"
            )
            effective_n_events = n_candidates
    with timer.stage("selection", n_items=len(selection_ds.counter_names)):
        selection = select_events(
            selection_ds,
            effective_n_events,
            criterion=criterion,
            estimator=estimator,
            on_missing="skip" if robust else "raise",
        )
    run_warnings.extend(selection.warnings)
    if not selection.selected:
        raise ValueError(
            "selection produced no events on this dataset; "
            + ("; ".join(selection.warnings) or "no diagnostics recorded")
        )
    with timer.stage("model-fit", n_items=1):
        model = PowerModel(selection.selected, estimator=estimator).fit(full)
    if model.diagnostics is not None:
        run_warnings.extend(model.diagnostics.warnings)
    n_splits = 10
    if robust and full.n_samples < n_splits:
        # Table II prescribes 10-fold CV, but a heavily degraded
        # dataset may not carry ten rows; leave-one-out is the honest
        # equivalent at that size.
        run_warnings.append(
            f"clamping cross-validation to {full.n_samples} folds: the "
            f"degraded dataset has fewer than {n_splits} rows"
        )
        n_splits = full.n_samples
    cv_issues: list = []
    with timer.stage("validation", n_items=n_splits):
        validation = scenario_cv_all(
            full,
            selection.selected,
            n_splits=n_splits,
            seed=seed,
            estimator=estimator,
            issues=cv_issues,
        )
    run_warnings.extend(cv_issues)
    result = WorkflowResult(
        selection_dataset=selection_ds,
        full_dataset=full,
        selection=selection,
        model=model,
        validation=validation,
        warnings=tuple(run_warnings),
        timing=timer.report(),
    )
    from repro.audit.engine import audit_workflow

    return replace(result, audit=audit_workflow(result))
