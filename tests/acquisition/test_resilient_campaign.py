"""Fault-tolerant campaigns: retry, quarantine, checkpoint/resume,
graceful degradation — all on the one :class:`Campaign` loop, whose
empty-plan case is the paper campaign.

The seed-parametrized tests must hold for any ``REPRO_FAULT_SEED`` (the
CI chaos matrix runs three); only tests pinning a specific scenario
hard-code a fault seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition import (
    Campaign,
    CampaignPlan,
    RetryPolicy,
    run_campaign,
    run_resilient_campaign,
)
from repro.acquisition import campaign as campaign_module
from repro.acquisition.checkpoint import cell_id
from repro.faults import FaultPlan, RunFailure
from repro.hardware import COUNTER_NAMES, FIXED_COUNTERS
from repro.tracing.scorep import ScorePTracer
from repro.workloads import get_workload
from tests.oracles.acquisition import tables_equal

#: Small event list → 2 PMU event sets (3 fixed ride along in both).
PROG = tuple(c for c in COUNTER_NAMES if c not in FIXED_COUNTERS)[:8]
EVENTS = tuple(FIXED_COUNTERS) + PROG


def small_plan(**overrides):
    defaults = dict(
        workloads=(get_workload("compute"), get_workload("idle")),
        frequencies_mhz=(2400,),
        events=EVENTS,
        thread_counts_override=(8,),
    )
    defaults.update(overrides)
    return CampaignPlan(**defaults)


def datasets_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (
        a.counter_names == b.counter_names
        and a.workloads == b.workloads
        and a.phase_names == b.phase_names
        and np.array_equal(a.counters, b.counters)
        and np.array_equal(a.power_w, b.power_w)
        and np.array_equal(a.voltage_v, b.voltage_v)
    )


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base_s=1.0, backoff_factor=2.0,
            backoff_max_s=3.0,
        )
        assert policy.delay_s(0) == pytest.approx(1.0)
        assert policy.delay_s(1) == pytest.approx(2.0)
        assert policy.delay_s(2) == pytest.approx(3.0)  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=2.5),
            dict(max_attempts=True),
            dict(max_attempts=-1),
            dict(backoff_base_s=float("nan")),
            dict(backoff_base_s=float("inf"), backoff_max_s=float("inf")),
            dict(backoff_max_s=float("nan")),
            dict(backoff_max_s=-1.0),
            dict(backoff_factor=float("nan")),
            dict(backoff_factor=float("inf")),
        ],
        ids=repr,
    )
    def test_validation_rejects_campaign_breaking_values(self, kwargs):
        # Each of these used to be accepted and break the campaign
        # later: a NaN total backoff with every sleep skipped,
        # time.sleep(inf) raising OverflowError, a TypeError from
        # range() inside the cell loop.
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_huge_factor_saturates_at_the_cap(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_base_s=1.0, backoff_factor=1e300,
            backoff_max_s=5.0,
        )
        assert policy.delay_s(3) == pytest.approx(5.0)
        assert RetryPolicy(backoff_factor=1e300).delay_s(3) == 0.0


class TestRetryCompletion:
    def test_flaky_campaign_completes_and_matches_clean(
        self, platform, fault_seed
    ):
        # A campaign with a 10% per-run crash rate completes via
        # retries and yields the *same dataset* as a fault-free one:
        # crashes only delay a run, they never change its physics.
        plan = small_plan(
            workloads=(get_workload("compute"), get_workload("memory_read")),
            frequencies_mhz=(1200, 2400),
            thread_counts_override=(4, 8),
        )
        faults = FaultPlan(run_failure_rate=0.1, fault_seed=fault_seed)
        campaign = Campaign(
            platform, plan, faults=faults, retry=RetryPolicy(max_attempts=6)
        )
        result = campaign.run()
        assert result.report.completed_cells == result.report.total_cells
        assert not result.report.quarantined
        clean = Campaign(platform, plan).run()
        assert clean.report.clean and clean.failure is None
        assert datasets_equal(result.dataset, clean.dataset)

    def test_retries_observed_at_pinned_seed(self, platform):
        # Pinned fault stream: verified locally to crash at least once.
        plan = small_plan(
            workloads=(get_workload("compute"), get_workload("memory_read")),
            frequencies_mhz=(1200, 2400),
            thread_counts_override=(4, 8),
        )
        faults = FaultPlan(run_failure_rate=0.2, fault_seed=0)
        campaign = Campaign(
            platform, plan, faults=faults, retry=RetryPolicy(max_attempts=6)
        )
        result = campaign.run()
        assert result.report.retries > 0
        assert result.report.faults_observed.get("run-crash", 0) > 0

    def test_backoff_sleeps_through_injected_fn(self, platform):
        sleeps = []
        campaign = Campaign(
            platform,
            small_plan(),
            faults=FaultPlan(kill_cells=("compute:*",)),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.5),
            sleep_fn=sleeps.append,
        )
        campaign.run()
        # 2 compute cells × 2 inter-attempt delays each.
        assert sleeps == [0.5, 1.0, 0.5, 1.0]


class TestQuarantine:
    def test_dead_experiment_is_quarantined_not_fatal(self, platform):
        campaign = Campaign(
            platform,
            small_plan(),
            faults=FaultPlan(kill_cells=("compute:*",)),
        )
        result = campaign.run()
        report = result.report
        assert len(report.quarantined) == 2  # both compute event-set runs
        assert all("compute" in desc for desc, _ in report.quarantined)
        assert report.faults_observed["cell-killed"] == 2 * 3  # × attempts
        # The surviving workload still produced a full-rank dataset.
        assert result.dataset is not None
        assert set(result.dataset.workloads) == {"idle"}
        assert "quarantined" in report.summary()

    def test_strict_campaign_would_have_died(self, platform, monkeypatch):
        # The strict entry point runs the same loop; under a plan that
        # kills a cell it raises that cell's own error instead of
        # returning the partial dataset the campaign above salvaged.
        killing = FaultPlan(kill_cells=("compute:*",))
        monkeypatch.setattr(campaign_module, "FaultPlan", lambda: killing)
        with pytest.raises(RunFailure, match="compute:2400:8:0"):
            run_campaign(
                platform,
                [get_workload("compute"), get_workload("idle")],
                [2400],
                events=EVENTS,
                thread_counts=[8],
            )

    def test_strict_failure_is_first_failed_cell(self, platform):
        result = Campaign(
            platform,
            small_plan(),
            faults=FaultPlan(kill_cells=("idle:*", "compute:2400:8:1")),
        ).run()
        assert isinstance(result.failure, RunFailure)
        assert "compute:2400:8:1" in str(result.failure)
        assert [desc for desc, _ in result.report.quarantined] == [
            "compute@2400MHz/8t#1", "idle@2400MHz/8t#0", "idle@2400MHz/8t#1",
        ]


class TestBlockIsolation:
    """A failure inside a block is its cell's alone: the block's other
    cells, and the failed cell once retried on its own, come out byte
    for byte as in a clean campaign."""

    PLAN = dict(
        workloads=(
            get_workload("compute"),
            get_workload("idle"),
            get_workload("memory_read"),
        ),
    )
    VICTIM = ("idle", 2400, 8, 1)

    def _stored(self, campaign):
        """Every cell's stored phase table, by cell key."""
        return {
            cell.key: campaign.checkpoint.load(
                cell_id(*cell.key, campaign.plan.events)
            )
            for cell in campaign.cells()
        }

    def _block_sizes(self, monkeypatch):
        sizes = []
        trace = ScorePTracer.trace

        def counting_trace(tracer, runs):
            sizes.append(len(runs))
            return trace(tracer, runs)

        monkeypatch.setattr(ScorePTracer, "trace", counting_trace)
        return sizes

    def _assert_isolated(self, platform, tmp_path, result, campaign, kind):
        clean = Campaign(
            platform, small_plan(**self.PLAN), checkpoint_dir=tmp_path / "clean"
        )
        reference = clean.run()
        assert reference.report.clean
        assert result.report.retries == 1
        assert dict(result.report.faults_observed) == {kind: 1}
        assert result.report.completed_cells == result.report.total_cells
        stored, expected = self._stored(campaign), self._stored(clean)
        assert list(stored) == list(expected)
        assert all(tables_equal(stored[k], expected[k]) for k in expected)
        assert datasets_equal(result.dataset, reference.dataset)

    def test_crash_on_first_attempt(self, platform, tmp_path, monkeypatch):
        campaign = Campaign(
            platform, small_plan(**self.PLAN), checkpoint_dir=tmp_path / "ckpt"
        )
        check_run = campaign.injector.check_run

        def crash_victim_once(*key, attempt=0):
            if key == self.VICTIM and attempt == 0:
                raise RunFailure("victim crashed on its first attempt")
            check_run(*key, attempt=attempt)

        monkeypatch.setattr(campaign.injector, "check_run", crash_victim_once)
        sizes = self._block_sizes(monkeypatch)
        result = campaign.run()
        # Event set 0's block of 3, event set 1's block without the
        # victim, then the victim's retry as a block of one.
        assert sizes == [3, 2, 1]
        monkeypatch.undo()
        self._assert_isolated(platform, tmp_path, result, campaign, "run-crash")

    def test_watchdog_failure_on_first_attempt(
        self, platform, tmp_path, monkeypatch
    ):
        campaign = Campaign(
            platform, small_plan(**self.PLAN), checkpoint_dir=tmp_path / "ckpt"
        )
        trace = ScorePTracer.trace
        sizes = []

        def dropout_in_first_block(tracer, runs):
            # The victim's power samples read NaN the first time it is
            # traced, inside a multi-run block.
            sizes.append(len(runs))
            block = trace(tracer, runs)
            keys = [
                (m["workload"], m["frequency_mhz"], m["threads"], m["run_index"])
                for m in block.metas
            ]
            if len(runs) > 1 and self.VICTIM in keys:
                r = keys.index(self.VICTIM)
                row = [d.name for d in block.defs].index("power")
                block.values[row, block.offsets[r] : block.offsets[r + 1]] = np.nan
            return block

        monkeypatch.setattr(ScorePTracer, "trace", dropout_in_first_block)
        result = campaign.run()
        assert sizes == [3, 3, 1]
        monkeypatch.undo()
        self._assert_isolated(
            platform, tmp_path, result, campaign, "sensor-dropout"
        )


class TestGracefulDegradation:
    def test_partial_run_drops_low_coverage_counters(self, platform):
        # Kill only run 1 (second event set) of the compute experiment:
        # compute phases lack that set's programmable counters.
        campaign = Campaign(
            platform,
            small_plan(),
            faults=FaultPlan(kill_cells=("compute:2400:8:1",)),
        )
        result = campaign.run()
        report = result.report
        set1 = PROG[4:]
        assert report.dropped_counters == set1
        for c in set1:
            assert report.counter_coverage[c] < 0.75
        for c in tuple(FIXED_COUNTERS) + PROG[:4]:
            assert report.counter_coverage[c] == pytest.approx(1.0)
        # Columns were dropped, rows kept: both workloads survive.
        assert result.dataset is not None
        assert set(result.dataset.workloads) == {"compute", "idle"}
        assert result.dataset.counter_names == tuple(FIXED_COUNTERS) + PROG[:4]
        assert report.degraded_phases == 0

    def test_zero_threshold_drops_rows_instead(self, platform):
        campaign = Campaign(
            platform,
            small_plan(),
            faults=FaultPlan(kill_cells=("compute:2400:8:1",)),
            min_counter_coverage=0.0,
        )
        result = campaign.run()
        assert result.report.dropped_counters == ()
        assert result.report.degraded_phases > 0
        assert result.dataset is not None
        assert set(result.dataset.workloads) == {"idle"}
        assert result.dataset.counter_names == EVENTS

    def test_total_loss_yields_none_with_explanation(self, platform):
        campaign = Campaign(
            platform,
            small_plan(),
            faults=FaultPlan(kill_cells=("*",)),
        )
        result = campaign.run()
        assert result.dataset is None
        assert result.report.completed_cells == 0
        assert len(result.report.quarantined) == result.report.total_cells
        assert all(
            v == pytest.approx(0.0)
            for v in result.report.counter_coverage.values()
        )

    def test_clean_campaign_reports_clean(self, platform):
        result = Campaign(platform, small_plan()).run()
        assert result.report.clean
        assert "clean campaign" in result.report.summary()


class TestCheckpointResume:
    def _campaign(self, platform, tmp_path, fault_seed, **kwargs):
        return Campaign(
            platform,
            small_plan(
                workloads=(get_workload("compute"), get_workload("idle"),
                           get_workload("memory_read")),
            ),
            faults=FaultPlan(run_failure_rate=0.1, fault_seed=fault_seed),
            retry=RetryPolicy(max_attempts=6),
            checkpoint_dir=tmp_path / "ckpt",
            **kwargs,
        )

    def test_interrupted_campaign_resumes_bit_identical(
        self, platform, tmp_path, fault_seed
    ):
        uninterrupted = Campaign(
            platform,
            small_plan(
                workloads=(get_workload("compute"), get_workload("idle"),
                           get_workload("memory_read")),
            ),
            faults=FaultPlan(run_failure_rate=0.1, fault_seed=fault_seed),
            retry=RetryPolicy(max_attempts=6),
        ).run()

        calls = []

        def interrupting(msg):
            calls.append(msg)
            if len(calls) == 4:
                raise KeyboardInterrupt

        first = self._campaign(platform, tmp_path, fault_seed)
        with pytest.raises(KeyboardInterrupt):
            first.run(progress=interrupting)

        second = self._campaign(platform, tmp_path, fault_seed)
        result = second.run()
        assert result.report.resumed_cells == 3
        assert result.report.completed_cells == result.report.total_cells
        assert datasets_equal(result.dataset, uninterrupted.dataset)

    def test_corrupt_cell_during_resume_is_regenerated(
        self, platform, tmp_path, fault_seed
    ):
        first = self._campaign(platform, tmp_path, fault_seed)
        full = first.run()
        assert first.checkpoint is not None
        stored = first.checkpoint.completed_cells()
        assert stored
        # Bit-rot one stored cell: resume must discard and re-execute
        # it, not crash or trust garbage.
        victim = first.checkpoint.cell_path(stored[0])
        victim.write_bytes(b"not a zip archive")

        second = self._campaign(platform, tmp_path, fault_seed)
        result = second.run()
        assert result.report.resumed_cells == len(stored) - 1
        assert datasets_equal(result.dataset, full.dataset)

    def test_completed_campaign_resumes_every_cell(
        self, platform, tmp_path, fault_seed
    ):
        first = self._campaign(platform, tmp_path, fault_seed).run()
        second = self._campaign(platform, tmp_path, fault_seed).run()
        assert first.report.resumed_cells == 0
        assert second.report.resumed_cells == first.report.completed_cells
        assert datasets_equal(second.dataset, first.dataset)

    def test_changed_configuration_resets_checkpoint(
        self, platform, tmp_path, fault_seed
    ):
        first = self._campaign(platform, tmp_path, fault_seed)
        first.run()
        assert first.checkpoint.completed_cells()
        # Different fault plan ⇒ different fingerprint ⇒ stored cells
        # from the old configuration must not leak into this one.
        different = Campaign(
            platform,
            small_plan(
                workloads=(get_workload("compute"), get_workload("idle"),
                           get_workload("memory_read")),
            ),
            faults=FaultPlan(run_failure_rate=0.5, fault_seed=fault_seed),
            retry=RetryPolicy(max_attempts=6),
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert different.checkpoint.completed_cells() == []
        result = different.run()
        assert result.report.resumed_cells == 0


class TestFaultDeterminism:
    def test_same_seed_same_plan_bit_identical(self, platform, fault_seed):
        plan = small_plan()
        faults = FaultPlan.chaos(0.3, fault_seed=fault_seed)

        def run_once():
            return Campaign(platform, plan, faults=faults).run()

        a, b = run_once(), run_once()
        assert datasets_equal(a.dataset, b.dataset)
        assert dict(a.report.faults_observed) == dict(b.report.faults_observed)
        assert a.report.retries == b.report.retries
        assert a.report.quarantined == b.report.quarantined
        assert dict(a.report.counter_coverage) == dict(
            b.report.counter_coverage
        )

    def test_different_fault_seed_same_physics(self, platform):
        # Fault streams with different seeds inject different faults,
        # but whatever survives is drawn from the same simulated truth:
        # any (workload, phase) row present in both runs is identical.
        plan = small_plan()
        a = Campaign(
            platform, plan,
            faults=FaultPlan(run_failure_rate=0.3, fault_seed=1),
            retry=RetryPolicy(max_attempts=8),
        ).run()
        b = Campaign(
            platform, plan,
            faults=FaultPlan(run_failure_rate=0.3, fault_seed=2),
            retry=RetryPolicy(max_attempts=8),
        ).run()
        assert a.dataset is not None and b.dataset is not None
        rows_a = {
            (w, p): a.dataset.power_w[i]
            for i, (w, p) in enumerate(
                zip(a.dataset.workloads, a.dataset.phase_names)
            )
        }
        for i, (w, p) in enumerate(
            zip(b.dataset.workloads, b.dataset.phase_names)
        ):
            if (w, p) in rows_a:
                assert b.dataset.power_w[i] == rows_a[(w, p)]


class TestTiming:
    def test_acquisition_and_merge_stages_recorded(self, platform, fault_seed):
        result = Campaign(
            platform,
            small_plan(),
            faults=FaultPlan(run_failure_rate=0.1, fault_seed=fault_seed),
            retry=RetryPolicy(max_attempts=6),
        ).run()
        timing = result.report.timing
        assert timing is not None
        assert timing.stage("acquisition").n_items == result.report.total_cells
        assert timing.stage("merge").elapsed_s >= 0.0
        assert "timing:" in result.report.summary()


class TestProgressHooks:
    def test_raising_observer_is_recorded_not_fatal(self, platform):
        # Telemetry must never kill acquisition: a crashing progress
        # hook is warned about, logged on the report, and the campaign
        # still completes every cell.
        def bad_observer(msg):
            raise RuntimeError("dashboard fell over")

        campaign = Campaign(platform, small_plan())
        with pytest.warns(RuntimeWarning, match="progress hook raised"):
            result = campaign.run(progress=bad_observer)
        assert result.report.completed_cells == result.report.total_cells
        assert result.report.hook_errors
        assert any(
            "RuntimeError" in err for err in result.report.hook_errors
        )

    def test_keyboard_interrupt_still_propagates(self, platform):
        # Ctrl-C is the operator, not telemetry — it must abort.
        def interrupting(msg):
            raise KeyboardInterrupt

        campaign = Campaign(platform, small_plan())
        with pytest.raises(KeyboardInterrupt):
            campaign.run(progress=interrupting)

    def test_hook_errors_reset_between_runs(self, platform):
        calls = []

        def flaky_once(msg):
            if not calls:
                calls.append(msg)
                raise RuntimeError("only the first call crashes")

        campaign = Campaign(platform, small_plan())
        with pytest.warns(RuntimeWarning):
            first = campaign.run(progress=flaky_once)
        assert first.report.hook_errors
        second = campaign.run()
        assert second.report.hook_errors == ()


class TestPlumbing:
    def test_run_campaign_forwards_events(self, platform):
        ds = run_campaign(
            platform,
            [get_workload("idle")],
            [2400],
            events=EVENTS,
            thread_counts=[8],
        )
        assert ds.counter_names == EVENTS
        assert ds.counters.shape[1] == len(EVENTS)

    def test_run_campaign_forwards_multiplexing(self, platform):
        ds = run_campaign(
            platform,
            [get_workload("idle")],
            [2400],
            events=EVENTS,
            thread_counts=[8],
            multiplexing="time-division",
        )
        assert ds.counter_names == EVENTS

    def test_bad_multiplexing_rejected(self, platform):
        with pytest.raises(ValueError, match="multiplexing"):
            run_campaign(
                platform,
                [get_workload("idle")],
                [2400],
                multiplexing="nonsense",
            )

    def test_run_resilient_campaign_wrapper(self, platform, fault_seed):
        result = run_resilient_campaign(
            platform,
            [get_workload("idle")],
            [2400],
            events=EVENTS,
            thread_counts=[8],
            faults=FaultPlan(run_failure_rate=0.1, fault_seed=fault_seed),
            retry=RetryPolicy(max_attempts=6),
        )
        assert result.dataset is not None
        assert result.report.total_cells == 2
