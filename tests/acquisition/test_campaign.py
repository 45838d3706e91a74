"""Tests for campaigns and the multi-run merge (post-processing)."""

import numpy as np
import pytest

from repro.acquisition import Campaign, CampaignPlan, build_dataset, merge_runs, run_campaign
from repro.hardware import COUNTER_NAMES, Platform
from repro.workloads import get_workload
from tests.oracles.acquisition import PhaseProfile, profile_table


class TestCampaignPlan:
    def test_experiments_enumeration(self):
        plan = CampaignPlan(
            workloads=(get_workload("compute"), get_workload("idle")),
            frequencies_mhz=(1200, 2400),
        )
        exps = plan.experiments()
        # compute has 8 default thread counts, idle has 1; x2 freqs.
        assert len(exps) == (8 + 1) * 2

    def test_thread_override(self):
        plan = CampaignPlan(
            workloads=(get_workload("compute"),),
            frequencies_mhz=(2400,),
            thread_counts_override=(4, 8),
        )
        assert len(plan.experiments()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignPlan(workloads=(), frequencies_mhz=(2400,))
        with pytest.raises(ValueError):
            CampaignPlan(
                workloads=(get_workload("idle"),), frequencies_mhz=()
            )

    @pytest.mark.parametrize(
        "interval_s", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1]
    )
    def test_sampling_interval_must_be_finite_positive(self, interval_s):
        with pytest.raises(ValueError, match="finite and positive"):
            CampaignPlan(
                workloads=(get_workload("idle"),),
                frequencies_mhz=(2400,),
                sampling_interval_s=interval_s,
            )

    @pytest.mark.parametrize(
        "field, entries, label",
        [
            ("workloads", ("idle", "compute", "idle"), "workload 'idle'"),
            ("frequencies_mhz", (1200, 2400, 1200), "frequency 1200"),
            ("thread_counts_override", (8, 8), "thread count 8"),
            ("events", ("TOT_CYC", "TOT_INS", "TOT_CYC"), "event 'TOT_CYC'"),
        ],
    )
    def test_duplicate_entries_rejected(self, field, entries, label):
        kwargs = dict(
            workloads=(get_workload("idle"), get_workload("compute")),
            frequencies_mhz=(2400,),
        )
        if field == "workloads":
            entries = tuple(get_workload(name) for name in entries)
        kwargs[field] = entries
        with pytest.raises(ValueError, match=f"repeats {label}"):
            CampaignPlan(**kwargs)


class TestCampaignRun:
    def test_runs_per_experiment_is_pmu_bound(self, platform):
        plan = CampaignPlan(
            workloads=(get_workload("idle"),), frequencies_mhz=(2400,)
        )
        campaign = Campaign(platform, plan)
        # 51 programmable events / 4 slots = 13 runs.
        assert campaign.runs_per_experiment == 13

    def test_dataset_complete(self, small_dataset):
        # Every row carries all 54 counters (merge succeeded).
        assert small_dataset.counters.shape[1] == 54
        assert np.all(np.isfinite(small_dataset.counters))

    def test_dataset_covers_all_experiments(self, small_dataset):
        # 3 kernels x 3 thread counts x 2 freqs + md phases.
        keys = small_dataset.experiment_keys()
        workload_names = {k[0] for k in keys}
        assert workload_names == {"idle", "compute", "memory_read", "md"}

    def test_power_and_voltage_plausible(self, small_dataset):
        assert np.all(small_dataset.power_w > 30.0)
        assert np.all(small_dataset.power_w < 350.0)
        assert np.all(small_dataset.voltage_v > 0.6)
        assert np.all(small_dataset.voltage_v < 1.1)

    def test_progress_callback(self, platform):
        messages = []
        run_campaign(
            platform,
            [get_workload("idle")],
            [2400],
            progress=messages.append,
        )
        assert messages and "idle" in messages[0]

    def test_deterministic(self, small_dataset):
        again = run_campaign(
            Platform(),
            [get_workload("idle"), get_workload("compute"),
             get_workload("memory_read"), get_workload("md")],
            [1200, 2400],
            thread_counts=[1, 8, 24],
        )
        # A fresh platform at the same seed reproduces every bit.
        assert np.array_equal(again.power_w, small_dataset.power_w)
        assert np.array_equal(again.voltage_v, small_dataset.voltage_v)
        assert np.array_equal(again.counters, small_dataset.counters)
        assert again.workloads == small_dataset.workloads
        assert again.phase_names == small_dataset.phase_names


def _profile(run_index, counters, power_w=100.0, phase="k.loop", threads=8):
    return PhaseProfile(
        workload="k",
        suite="roco2",
        frequency_mhz=2400,
        threads=threads,
        run_index=run_index,
        phase_name=phase,
        start_s=0.0,
        end_s=10.0,
        active_threads=threads,
        power_w=power_w,
        voltage_v=0.97,
        counter_rates_per_s=counters,
    )


def _merge(*profiles, issues=None):
    return merge_runs(profile_table([profiles]), issues=issues)


def _counters(merged, row=0):
    """Merged row ``row``'s counters, by name, as a dict."""
    return {
        name: rate
        for name, rate in zip(merged.counter_names, merged.rates_per_s[row])
        if not np.isnan(rate)
    }


class TestMerge:
    def test_power_averaged_across_runs(self):
        merged = _merge(
            _profile(0, {"TOT_CYC": 1e9}, power_w=100.0),
            _profile(1, {"PRF_DM": 1e6}, power_w=104.0),
        )
        assert len(merged) == 1
        assert merged.power_w[0] == pytest.approx(102.0)
        assert set(_counters(merged)) == {"TOT_CYC", "PRF_DM"}

    def test_fixed_counter_averaged(self):
        merged = _merge(
            _profile(0, {"TOT_CYC": 1.0e9}),
            _profile(1, {"TOT_CYC": 1.1e9}),
        )
        assert _counters(merged)["TOT_CYC"] == pytest.approx(1.05e9)

    def test_inconsistent_thread_count_rejected(self):
        a = _profile(0, {"TOT_CYC": 1e9})
        b = PhaseProfile(
            workload="k", suite="roco2", frequency_mhz=2400, threads=8,
            run_index=1, phase_name="k.loop", start_s=0.0, end_s=10.0,
            active_threads=4, power_w=100.0, voltage_v=0.97,
            counter_rates_per_s={"TOT_CYC": 1e9},
        )
        with pytest.raises(ValueError, match="thread counts"):
            _merge(a, b)

    def test_distinct_phases_stay_separate(self):
        merged = _merge(
            _profile(0, {"TOT_CYC": 1e9}, phase="p0"),
            _profile(0, {"TOT_CYC": 1e9}, phase="p1"),
        )
        assert len(merged) == 2

    def test_phase_set_mismatch_recorded(self):
        # Run 1 lost phase p1 (truncated trace): the merged p1 lacks
        # run 1's counters, and the merge says so.
        issues = []
        merged = _merge(
            _profile(0, {"TOT_CYC": 1e9}, phase="p0"),
            _profile(0, {"TOT_CYC": 1e9}, phase="p1"),
            _profile(1, {"PRF_DM": 1e6}, phase="p0"),
            issues=issues,
        )
        assert len(merged) == 2
        assert len(issues) == 1
        assert "run 1 missing ['p1']" in issues[0]

    def test_consistent_phase_sets_not_flagged(self):
        issues = []
        _merge(
            _profile(0, {"TOT_CYC": 1e9}, phase="p0"),
            _profile(1, {"PRF_DM": 1e6}, phase="p0"),
            issues=issues,
        )
        assert issues == []

    def test_counter_disagreement_recorded_keeps_mean(self):
        issues = []
        merged = _merge(
            _profile(0, {"TOT_CYC": 1.0e9}),
            _profile(1, {"TOT_CYC": 2.0e9}),
            issues=issues,
        )
        assert _counters(merged)["TOT_CYC"] == pytest.approx(1.5e9)
        assert len(issues) == 1 and "disagrees" in issues[0]


class TestBuildDataset:
    def _complete_profile(self, run_index=0):
        rates = {c: 1e6 for c in COUNTER_NAMES}
        return _profile(run_index, rates)

    def test_complete_phase_builds(self):
        ds = build_dataset(_merge(self._complete_profile()))
        assert ds.n_samples == 1
        # events/s / (f_clk) → events per cycle.
        assert ds.column("PRF_DM")[0] == pytest.approx(1e6 / 2.4e9)

    def test_incomplete_raises_by_default(self):
        merged = _merge(_profile(0, {"TOT_CYC": 1e9}))
        with pytest.raises(ValueError, match="missing"):
            build_dataset(merged)

    def test_incomplete_dropped_when_allowed(self):
        merged = _merge(
            _profile(0, {"TOT_CYC": 1e9}, phase="partial"),
            self._complete_profile(),
        )
        ds = build_dataset(merged, require_complete=False)
        assert ds.n_samples == 1

    def test_nothing_left_raises(self):
        merged = _merge(_profile(0, {"TOT_CYC": 1e9}))
        with pytest.raises(ValueError, match="no complete phases"):
            build_dataset(merged, require_complete=False)
