"""Unit tests for the online (streaming) power estimator."""

import numpy as np
import pytest

from repro.core import OnlineEstimator, PowerModel, estimate_run
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def fitted(full_dataset, selected_counters):
    return PowerModel(selected_counters).fit(full_dataset)


class TestOnlineEstimator:
    def _deltas(self, fitted, dataset, row, interval_s):
        cycles = dataset.frequency_mhz[row] * 1e6 * interval_s
        return {
            c: float(dataset.column(c)[row]) * cycles
            for c in fitted.counters
        }

    def test_matches_batch_prediction(self, fitted, full_dataset):
        """Streaming evaluation of one interval must equal the batch
        model prediction for the same rates."""
        est = OnlineEstimator(fitted, smoothing=1.0)
        row = 10
        out = est.step(
            self._deltas(fitted, full_dataset, row, 0.5),
            interval_s=0.5,
            voltage_v=float(full_dataset.voltage_v[row]),
            frequency_mhz=float(full_dataset.frequency_mhz[row]),
        )
        batch = fitted.predict(full_dataset.subset(np.array([row])))[0]
        assert out.power_w == pytest.approx(batch, rel=1e-9)

    def test_smoothing_filters_jumps(self, fitted, full_dataset):
        est = OnlineEstimator(fitted, smoothing=0.2)
        rows = [0, 0, 0, 50, 50, 50]
        outs = [
            est.step(
                self._deltas(fitted, full_dataset, r, 0.5),
                interval_s=0.5,
                voltage_v=float(full_dataset.voltage_v[r]),
                frequency_mhz=float(full_dataset.frequency_mhz[r]),
            )
            for r in rows
        ]
        jump_raw = abs(outs[3].power_w - outs[2].power_w)
        jump_smooth = abs(outs[3].smoothed_w - outs[2].smoothed_w)
        if jump_raw > 1.0:
            assert jump_smooth < jump_raw

    def test_missing_counter_rejected(self, fitted):
        """A missing counter never reaches Equation 1: the interval
        falls back to the baseline and says which counter was missing."""
        est = OnlineEstimator(fitted)
        out = est.step({}, interval_s=1.0, voltage_v=0.97, frequency_mhz=2400)
        assert out.source == "baseline"
        assert out.power_w == est.baseline_power(
            voltage_v=0.97, frequency_mhz=2400
        )
        assert any(
            f"{fitted.counters[0]} missing" in flag for flag in out.flags
        )

    def test_invalid_inputs(self, fitted, full_dataset):
        """Invalid context is rejected: the interval is skipped and
        counted, never estimated; invalid configuration raises."""
        est = OnlineEstimator(fitted)
        deltas = self._deltas(fitted, full_dataset, 0, 1.0)
        assert est.step(
            deltas, interval_s=0.0, voltage_v=0.97, frequency_mhz=2400
        ) is None
        assert est.step(
            deltas, interval_s=1.0, voltage_v=-1.0, frequency_mhz=2400
        ) is None
        report = est.drift_report()
        assert report.n_skipped == 2 and report.n_intervals == 0
        with pytest.raises(ValueError):
            OnlineEstimator(fitted, smoothing=0.0)


class TestEstimateRun:
    def test_timeline_tracks_measurement(self, platform, fitted):
        run = platform.execute(get_workload("compute"), 2400, 24)
        timeline = estimate_run(platform, run, fitted, interval_s=0.5)
        assert timeline.times_s.size == pytest.approx(20, abs=2)
        assert timeline.mape() < 15.0

    def test_multi_phase_timeline_fidelity(self, platform, fitted):
        run = platform.execute(get_workload("mgrid331"), 2400, 24)
        timeline = estimate_run(platform, run, fitted, interval_s=0.5)
        assert timeline.times_s.size > 50
        assert timeline.mape() < 15.0

    def test_multi_phase_run_follows_transitions(self, platform, fitted):
        run = platform.execute(get_workload("mgrid331"), 2400, 24)
        timeline = estimate_run(platform, run, fitted, interval_s=1.0)
        # Estimates must move in the same direction as the measurement
        # across large phase transitions.
        assert timeline.tracks_phase_changes(threshold_w=10.0)

    def test_finer_interval_more_samples(self, platform, fitted):
        run = platform.execute(get_workload("compute"), 2400, 8)
        coarse = estimate_run(platform, run, fitted, interval_s=2.0)
        fine = estimate_run(platform, run, fitted, interval_s=0.25)
        assert fine.times_s.size > 3 * coarse.times_s.size

    def test_deterministic(self, platform, fitted):
        run = platform.execute(get_workload("compute"), 2400, 8)
        a = estimate_run(platform, run, fitted)
        b = estimate_run(platform, run, fitted)
        assert np.array_equal(a.estimated_w, b.estimated_w)
        assert np.array_equal(a.measured_w, b.measured_w)
