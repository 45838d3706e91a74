"""Tests for time-division multiplexing (single-run acquisition)."""

import numpy as np
import pytest

from repro.acquisition import Campaign, CampaignPlan
from repro.hardware import (
    COUNTER_NAMES,
    FIXED_COUNTERS,
    HASWELL_EP_CONFIG,
    PMU,
)
from repro.hardware.dvfs import HASWELL_EP_CURVE
from repro.workloads import Characterization, get_workload
from tests.oracles.physics import evaluate

CFG = HASWELL_EP_CONFIG


@pytest.fixture()
def rates():
    op = HASWELL_EP_CURVE.operating_point(2400)
    return evaluate(Characterization(), op, 12, CFG).counter_rates


class TestCountMultiplexed:
    def test_all_events_from_one_run(self, rates, rng):
        pmu = PMU(CFG)
        counts = pmu.count_multiplexed(COUNTER_NAMES, rates, 2.4e9, 10.0, rng)
        assert set(counts) == set(COUNTER_NAMES)

    def test_unbiased_on_average(self, rates):
        pmu = PMU(CFG)
        idx = COUNTER_NAMES.index("TOT_INS")
        expected = rates[idx] * 2.4e9 * 10.0
        vals = [
            pmu.count_multiplexed(
                COUNTER_NAMES, rates, 2.4e9, 10.0, np.random.default_rng(i)
            )["TOT_INS"]
            for i in range(300)
        ]
        assert np.mean(vals) == pytest.approx(expected, rel=0.01)

    def test_noisier_than_dedicated_counting(self, rates):
        """Extrapolation noise must exceed dedicated-run noise."""
        pmu = PMU(CFG)
        from repro.hardware import EventSet

        es = EventSet(events=tuple(FIXED_COUNTERS) + ("PRF_DM",))
        dedicated = [
            pmu.count(es, rates, 2.4e9, 10.0, np.random.default_rng(i))["PRF_DM"]
            for i in range(200)
        ]
        multiplexed = [
            pmu.count_multiplexed(
                COUNTER_NAMES, rates, 2.4e9, 10.0, np.random.default_rng(i)
            )["PRF_DM"]
            for i in range(200)
        ]
        assert np.std(multiplexed) > 2.0 * np.std(dedicated)

    def test_fixed_counters_not_penalized(self, rates):
        """Fixed counters count continuously even under multiplexing."""
        pmu = PMU(CFG)
        vals = [
            pmu.count_multiplexed(
                COUNTER_NAMES, rates, 2.4e9, 10.0, np.random.default_rng(i)
            )["TOT_CYC"]
            for i in range(200)
        ]
        rel_std = np.std(vals) / np.mean(vals)
        assert rel_std < 0.015  # read noise only

    def test_validation(self, rates, rng):
        pmu = PMU(CFG)
        with pytest.raises(KeyError):
            pmu.count_multiplexed(["NOPE"], rates, 2.4e9, 1.0, rng)
        with pytest.raises(ValueError):
            pmu.count_multiplexed(COUNTER_NAMES, rates[:5], 2.4e9, 1.0, rng)
        with pytest.raises(ValueError):
            PMU(CFG, multiplex_noise_sigma=-1.0)


class TestTdmCampaign:
    def test_single_run_per_experiment(self, platform):
        plan = CampaignPlan(
            workloads=(get_workload("compute"),),
            frequencies_mhz=(2400,),
            thread_counts_override=(8,),
            multiplexing="time-division",
        )
        campaign = Campaign(platform, plan)
        assert campaign.runs_per_experiment == 1
        ds = campaign.run().dataset
        assert ds.n_samples == 1
        assert ds.counters.shape[1] == 54

    def test_tdm_dataset_close_to_multirun(self, platform):
        workloads = (get_workload("compute"), get_workload("memory_read"))
        kwargs = dict(
            workloads=workloads,
            frequencies_mhz=(2400,),
            thread_counts_override=(24,),
        )
        multi = Campaign(platform, CampaignPlan(**kwargs)).run().dataset
        tdm = Campaign(
            platform, CampaignPlan(multiplexing="time-division", **kwargs)
        ).run().dataset
        # Same experiments, same physics: rates agree within noise.
        assert np.allclose(tdm.counters, multi.counters, rtol=0.2, atol=1e-6)
        assert np.allclose(tdm.power_w, multi.power_w, rtol=0.05)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="multiplexing"):
            CampaignPlan(
                workloads=(get_workload("idle"),),
                frequencies_mhz=(2400,),
                multiplexing="quantum",
            )
