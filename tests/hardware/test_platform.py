"""Unit tests for the Platform orchestration layer."""

import numpy as np
import pytest

from repro.acquisition import run_campaign
from repro.hardware import (
    Platform,
    SKYLAKE_SP_CONFIG,
    SKYLAKE_SP_POWER_PARAMS,
    WorkloadNameConflictError,
)
from repro.workloads import generate_workloads, get_workload


class TestExecute:
    def test_run_structure(self, platform):
        run = platform.execute(get_workload("compute"), 2400, 8)
        assert run.workload_name == "compute"
        assert run.suite == "roco2"
        assert run.op.frequency_mhz == 2400
        assert run.threads == 8
        assert len(run.phases) == 1
        phase = run.phases[0]
        assert phase.duration_s == pytest.approx(10.0)
        assert phase.power_breakdown.measured_w > 0

    def test_spec_run_has_multiple_phases(self, platform):
        run = platform.execute(get_workload("md"), 2400, 24)
        assert len(run.phases) >= 5
        # Phases tile the timeline without gaps.
        for a, b in zip(run.phases, run.phases[1:]):
            assert b.start_s == pytest.approx(a.end_s)
        assert run.total_duration_s == pytest.approx(run.phases[-1].end_s)

    def test_invalid_thread_count(self, platform):
        with pytest.raises(ValueError):
            platform.execute(get_workload("compute"), 2400, 0)
        with pytest.raises(ValueError):
            platform.execute(get_workload("compute"), 2400, 99)

    def test_invalid_frequency(self, platform):
        with pytest.raises(ValueError):
            platform.execute(get_workload("compute"), 5000, 8)


class TestDeterminismAndJitter:
    def test_same_run_index_identical(self, platform):
        a = platform.execute(get_workload("compute"), 2400, 8, run_index=0)
        b = platform.execute(get_workload("compute"), 2400, 8, run_index=0)
        assert a.phases[0].power_breakdown.measured_w == b.phases[0].power_breakdown.measured_w
        assert np.array_equal(
            a.phases[0].state.counter_rates, b.phases[0].state.counter_rates
        )

    def test_different_run_index_jitters(self, platform):
        a = platform.execute(get_workload("compute"), 2400, 8, run_index=0)
        b = platform.execute(get_workload("compute"), 2400, 8, run_index=1)
        assert a.phases[0].power_breakdown.measured_w != b.phases[0].power_breakdown.measured_w

    def test_jitter_small(self, platform):
        powers = [
            platform.execute(get_workload("compute"), 2400, 8, run_index=i)
            .phases[0]
            .power_breakdown.measured_w
            for i in range(20)
        ]
        assert np.std(powers) / np.mean(powers) < 0.05

    def test_cycle_counters_exempt_from_jitter(self, platform):
        a = platform.execute(get_workload("compute"), 2400, 8, run_index=0)
        b = platform.execute(get_workload("compute"), 2400, 8, run_index=1)
        assert a.phases[0].state.rate("TOT_CYC") == pytest.approx(
            b.phases[0].state.rate("TOT_CYC")
        )
        assert a.phases[0].state.rate("TOT_INS") != b.phases[0].state.rate(
            "TOT_INS"
        )

    def test_jitter_exempt_regression_batch_and_scalar(self, platform):
        """Pin _JITTER_EXEMPT across both jitter applicators: the
        batched production path and the per-phase scalar oracle must
        rescale exactly the same counters — everything except the cycle
        counters, which are fixed by frequency and wall time."""
        from repro.hardware.counters import COUNTER_NAMES
        from repro.hardware.microarch import evaluate
        from tests.oracles.acquisition import scalar_execute

        wl = get_workload("md")
        exempt = {"TOT_CYC", "REF_CYC"}
        for execute in (Platform.execute, scalar_execute):
            run = execute(platform, wl, 2400, 24, run_index=1)
            op = platform.cfg.curve.operating_point(2400)
            for phase in run.phases:
                base = evaluate(
                    phase.phase.characterization,
                    op,
                    phase.phase.active_threads,
                    platform.cfg,
                )
                for name in COUNTER_NAMES:
                    if name in exempt:
                        assert phase.state.rate(name) == base.rate(name)
                    elif base.rate(name) != 0.0:
                        assert phase.state.rate(name) != base.rate(name)

    def test_seed_changes_everything(self):
        p1 = Platform(seed=1)
        p2 = Platform(seed=2)
        a = p1.execute(get_workload("compute"), 2400, 8)
        b = p2.execute(get_workload("compute"), 2400, 8)
        assert a.phases[0].power_breakdown.measured_w != b.phases[0].power_breakdown.measured_w


class TestRunMemo:
    """The run memo is keyed by workload name; ``generate_workloads``
    names every set ``gen000…``, so two sets meet under one name."""

    def test_same_name_with_other_phases_is_rejected(self):
        platform = Platform(seed=5)
        first = run_campaign(platform, generate_workloads(2, seed=1), [2400])
        second_set = generate_workloads(2, seed=2)
        assert [w.name for w in second_set] == ["gen000", "gen001"]
        assert issubclass(WorkloadNameConflictError, ValueError)
        with pytest.raises(WorkloadNameConflictError, match="gen000"):
            run_campaign(platform, second_set, [2400])
        # What the memo would have served: a fresh platform gives the
        # second set its own power.
        fresh = run_campaign(Platform(seed=5), second_set, [2400])
        assert not np.array_equal(first.power_w, fresh.power_w)

    def test_equal_workload_under_a_new_object_hits_the_memo(self):
        platform = Platform(seed=5)
        a = run_campaign(platform, generate_workloads(2, seed=1), [2400])
        b = run_campaign(platform, generate_workloads(2, seed=1), [2400])
        assert np.array_equal(a.power_w, b.power_w)


class TestOtherPlatforms:
    def test_skylake_platform_runs(self):
        p = Platform(SKYLAKE_SP_CONFIG, SKYLAKE_SP_POWER_PARAMS)
        run = p.execute(get_workload("compute"), 2000, 40)
        assert run.phases[0].power_breakdown.measured_w > 80.0

    def test_describe_mentions_key_facts(self, platform):
        text = platform.describe()
        assert "2 sockets" in text
        assert "54" in text

    def test_supported_frequencies(self, platform):
        lo, hi = platform.supported_frequencies()
        assert (lo, hi) == (1200, 2600)
