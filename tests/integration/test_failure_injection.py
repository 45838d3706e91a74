"""Failure-injection tests: the pipeline must fail loudly on broken
measurement campaigns, not silently produce bad models."""

import numpy as np
import pytest

from repro.acquisition import Campaign, CampaignPlan, build_dataset, merge_runs
from repro.acquisition.dataset import PowerDataset
from repro.hardware import COUNTER_NAMES, Platform
from repro.workloads import get_workload
from tests.oracles.acquisition import PhaseProfile, profile_table


def _merge(*profiles, issues=None):
    return merge_runs(profile_table([profiles]), issues=issues)


def _profile(run_index, counters, power_w=100.0, voltage_v=0.97):
    return PhaseProfile(
        workload="k",
        suite="roco2",
        frequency_mhz=2400,
        threads=8,
        run_index=run_index,
        phase_name="k.loop",
        start_s=0.0,
        end_s=10.0,
        active_threads=8,
        power_w=power_w,
        voltage_v=voltage_v,
        counter_rates_per_s=counters,
    )


class TestSensorFailures:
    def test_dropped_counter_group_detected(self):
        """Losing one counter-group run leaves holes that dataset
        assembly must refuse by default."""
        complete = {c: 1e6 for c in COUNTER_NAMES}
        partial = dict(list(complete.items())[:40])
        with pytest.raises(ValueError, match="missing"):
            build_dataset(_merge(_profile(0, partial)))

    def test_dropped_group_recoverable_with_flag(self):
        complete = {c: 1e6 for c in COUNTER_NAMES}
        # Two runs of one phase would merge into one row, so give the
        # broken run a phase of its own.
        profiles = [
            _profile(0, complete),
        ]
        broken = PhaseProfile(
            workload="other",
            suite="roco2",
            frequency_mhz=2400,
            threads=8,
            run_index=0,
            phase_name="other.loop",
            start_s=0.0,
            end_s=10.0,
            active_threads=8,
            power_w=100.0,
            voltage_v=0.97,
            counter_rates_per_s=dict(list(complete.items())[:40]),
        )
        ds = build_dataset(_merge(*profiles, broken), require_complete=False)
        assert ds.n_samples == 1
        assert ds.workloads == ("k",)

    def test_miscalibrated_run_detected(self):
        """A counter disagreeing wildly across runs (e.g. broken PMU
        multiplexing) must be flagged by the merge."""
        issues = []
        _merge(
            _profile(0, {"PRF_DM": 1.0e6}),
            _profile(1, {"PRF_DM": 2.0e6}),
            issues=issues,
        )
        assert len(issues) == 1 and "PRF_DM disagrees" in issues[0]

    def test_dead_sensor_rejected_by_dataset(self):
        """A sensor reading zero/negative power violates dataset
        invariants at construction."""
        complete = {c: 1e6 for c in COUNTER_NAMES}
        merged = _merge(_profile(0, complete, power_w=-5.0))
        with pytest.raises(ValueError, match="positive"):
            build_dataset(merged)


class TestPlatformEdgeCases:
    def test_campaign_with_unsupported_frequency_fails_fast(self, platform):
        plan = CampaignPlan(
            workloads=(get_workload("idle"),), frequencies_mhz=(900,)
        )
        with pytest.raises(ValueError, match="outside supported range"):
            Campaign(platform, plan).run()

    def test_extreme_noise_platform_still_produces_dataset(self):
        noisy = Platform(
            seed=5,
            run_jitter_sigma=0.05,
            power_jitter_sigma=0.05,
            power_offset_sigma_w=10.0,
        )
        from repro.acquisition import run_campaign

        ds = run_campaign(
            noisy, [get_workload("compute")], [2400], thread_counts=[8]
        )
        assert ds.n_samples == 1
        assert np.all(ds.power_w > 0)

    def test_zero_noise_platform_is_exactly_repeatable(self):
        quiet = Platform(
            seed=5,
            run_jitter_sigma=0.0,
            power_jitter_sigma=0.0,
            power_offset_sigma_w=0.0,
        )
        a = quiet.execute(get_workload("compute"), 2400, 8, run_index=0)
        b = quiet.execute(get_workload("compute"), 2400, 8, run_index=1)
        # Without jitter, different run indices give identical truth.
        assert a.phases[0].power_breakdown.measured_w == pytest.approx(
            b.phases[0].power_breakdown.measured_w
        )
