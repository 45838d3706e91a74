"""StageTimer / TimingReport: one monotonic clock, honest stage books.

The timer now lives in ``repro.timing``; this suite keeps the path it had
when the timer shipped with the executors, so its test ids stay stable.
"""

from __future__ import annotations

import time

import pytest

from repro.timing import MONOTONIC_CLOCK, StageTimer, StageTiming, TimingReport


class TestClock:
    def test_single_monotonic_source(self):
        # Every elapsed-time measurement in the repo shares this source;
        # wall clocks jump under NTP/suspend.
        assert MONOTONIC_CLOCK is time.perf_counter


class TestStageTimer:
    def test_context_manager_records_stage(self):
        timer = StageTimer()
        with timer.stage("fit", n_items=4):
            pass
        stage = timer.report().stage("fit")
        assert stage.elapsed_s >= 0.0
        assert stage.n_items == 4

    def test_stage_recorded_even_on_error(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("doomed"):
                raise RuntimeError("boom")
        assert timer.report().stage("doomed").elapsed_s >= 0.0

    def test_record_direct_and_order_preserved(self):
        timer = StageTimer()
        timer.record("a", 1.0, n_items=2)
        timer.record("b", 3.0)
        report = timer.report()
        assert [s.stage for s in report.stages] == ["a", "b"]
        assert report.total_s == pytest.approx(4.0)


class TestTimingReport:
    def _report(self):
        return TimingReport(
            stages=(StageTiming("acq", 2.0, 10), StageTiming("cv", 1.0, 5))
        )

    def test_stage_lookup_and_missing(self):
        report = self._report()
        assert report.stage("cv").n_items == 5
        with pytest.raises(KeyError):
            report.stage("nope")

    def test_per_item_and_describe(self):
        stage = StageTiming("acq", 2.0, 10)
        assert stage.per_item_s == pytest.approx(0.2)
        assert StageTiming("x", 1.0, 0).per_item_s == 0.0
        assert "10 items" in stage.describe()

    def test_summary(self):
        text = self._report().summary()
        assert "acq" in text and "cv" in text and "total: 3.000 s" in text
