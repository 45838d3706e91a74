"""Data acquisition & post-processing: campaigns, run merging, and the
regression dataset."""

from repro.acquisition.campaign import (
    Campaign,
    CampaignCell,
    CampaignPlan,
    CampaignReport,
    CampaignResult,
    RetryPolicy,
    run_campaign,
    run_resilient_campaign,
)
from repro.acquisition.checkpoint import CampaignCheckpoint, cell_id
from repro.acquisition.dataset import ExperimentKey, PowerDataset
from repro.acquisition.postprocess import (
    MergedPhases,
    build_dataset,
    counter_coverage,
    merge_runs,
)

__all__ = [
    "Campaign",
    "CampaignPlan",
    "CampaignCell",
    "CampaignReport",
    "CampaignResult",
    "RetryPolicy",
    "run_campaign",
    "run_resilient_campaign",
    "CampaignCheckpoint",
    "cell_id",
    "PowerDataset",
    "ExperimentKey",
    "MergedPhases",
    "merge_runs",
    "counter_coverage",
    "build_dataset",
]
