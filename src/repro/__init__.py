"""repro — a reproduction of "A Statistical Approach to Power Estimation
for x86 Processors" (Chadha, Ilsche, Bielert, Nagel; IPDPSW 2017).

The package implements the paper's full methodology — PMC-based power
modeling with statistically rigorous counter selection — together with
every substrate it runs on: a behavioural simulator of the dual-socket
Haswell-EP system under test, the roco2 / SPEC OMP2012 workload suites,
a Score-P/OTF2-style tracing pipeline with metric plugins, the
multi-run acquisition campaigns forced by PMU multiplexing, and a
self-contained statistics layer (OLS with HC3 errors, VIF, PCC, k-fold
CV).

Quickstart::

    from repro import Platform, run_workflow

    result = run_workflow()          # acquisition → selection → model → CV
    print(result.summary())
    print(result.model.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.acquisition import (
    Campaign,
    CampaignPlan,
    CampaignReport,
    CampaignResult,
    PowerDataset,
    RetryPolicy,
    run_campaign,
    run_resilient_campaign,
)
from repro.core import (
    FittedPowerModel,
    PowerModel,
    ScenarioResult,
    SelectionResult,
    WorkflowResult,
    counter_power_pcc,
    run_all_scenarios,
    run_workflow,
    select_events,
)
from repro.hardware import (
    HASWELL_EP_CONFIG,
    PAPER_FREQUENCIES_MHZ,
    SELECTION_FREQUENCY_MHZ,
    Platform,
    PlatformConfig,
)
from repro.faults import FaultPlan
from repro.seeding import DEFAULT_SEED
from repro.timing import TimingReport
from repro.workloads import (
    Characterization,
    Workload,
    all_workloads,
    generate_workloads,
    get_workload,
    roco2_suite,
    spec_omp2012_suite,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # hardware
    "Platform",
    "PlatformConfig",
    "HASWELL_EP_CONFIG",
    "PAPER_FREQUENCIES_MHZ",
    "SELECTION_FREQUENCY_MHZ",
    # workloads
    "Workload",
    "Characterization",
    "all_workloads",
    "get_workload",
    "roco2_suite",
    "spec_omp2012_suite",
    "generate_workloads",
    # acquisition
    "PowerDataset",
    "Campaign",
    "CampaignPlan",
    "run_campaign",
    # fault tolerance
    "FaultPlan",
    "RetryPolicy",
    "CampaignReport",
    "CampaignResult",
    "run_resilient_campaign",
    # core
    "PowerModel",
    "FittedPowerModel",
    "select_events",
    "SelectionResult",
    "run_all_scenarios",
    "ScenarioResult",
    "counter_power_pcc",
    "run_workflow",
    "WorkflowResult",
    # timing
    "TimingReport",
    # misc
    "DEFAULT_SEED",
]
