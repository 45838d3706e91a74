"""The paper's primary contribution: Equation 1 power models, the
Algorithm 1 counter selection, scenario validation and counter
significance analysis."""

from repro.core.analysis import (
    CounterSignificance,
    counter_power_pcc,
    significance_report,
)
from repro.core.features import STRUCTURAL_TERMS, design_matrix, feature_names
from repro.core.model import ESTIMATORS, FittedPowerModel, PowerModel
from repro.core.persistence import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.report import fmt, render_counts, render_series, render_table
from repro.core.scenarios import (
    SCENARIO_NAMES,
    ScenarioResult,
    cv_out_of_fold_predictions,
    run_all_scenarios,
    scenario_cv_all,
    scenario_cv_synthetic,
    scenario_random_workloads,
    scenario_synthetic_to_spec,
)
from repro.core.attribution import PowerAttribution, attribute, attribute_dataset
from repro.core.energy import (
    EnergyAccount,
    dvfs_energy_profile,
    optimal_frequency,
    phase_energy,
    run_energy,
)
from repro.core.online import (
    ONLINE_STATE_FORMAT,
    DriftReport,
    OnlineEstimate,
    OnlineEstimator,
    OnlineTimeline,
    PowerEnvelope,
    estimate_run,
    estimate_run_degraded,
)
from repro.core.selection import (
    SelectionResult,
    SelectionStep,
    select_events,
)
from repro.core.workflow import WorkflowResult, run_workflow

__all__ = [
    "design_matrix",
    "feature_names",
    "STRUCTURAL_TERMS",
    "PowerModel",
    "FittedPowerModel",
    "ESTIMATORS",
    "select_events",
    "SelectionResult",
    "SelectionStep",
    "ScenarioResult",
    "SCENARIO_NAMES",
    "cv_out_of_fold_predictions",
    "scenario_random_workloads",
    "scenario_synthetic_to_spec",
    "scenario_cv_all",
    "scenario_cv_synthetic",
    "run_all_scenarios",
    "counter_power_pcc",
    "CounterSignificance",
    "significance_report",
    "run_workflow",
    "WorkflowResult",
    "render_table",
    "render_series",
    "render_counts",
    "fmt",
    "EnergyAccount",
    "phase_energy",
    "run_energy",
    "dvfs_energy_profile",
    "optimal_frequency",
    "ONLINE_STATE_FORMAT",
    "OnlineEstimator",
    "OnlineEstimate",
    "OnlineTimeline",
    "PowerEnvelope",
    "DriftReport",
    "estimate_run",
    "estimate_run_degraded",
    "PowerAttribution",
    "attribute",
    "attribute_dataset",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]
