"""Hardened online estimation: step(), circuit breaker, envelope
plausibility, drift detection (DESIGN.md §10)."""

import numpy as np
import pytest

from repro.core import (
    OnlineEstimator,
    PowerEnvelope,
    PowerModel,
    estimate_run,
    estimate_run_degraded,
)
from repro.faults import CounterLossPlan, OnlineFaultInjector
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def fitted(full_dataset, selected_counters):
    return PowerModel(selected_counters).fit(full_dataset)


@pytest.fixture(scope="module")
def envelope(full_dataset):
    return PowerEnvelope.from_dataset(full_dataset)


def row_inputs(fitted, dataset, row=10, interval_s=0.5):
    """One interval's (deltas, context) reconstructed from a dataset
    row, so the model estimate is in-distribution by construction."""
    cycles = float(dataset.frequency_mhz[row]) * 1e6 * interval_s
    deltas = {
        c: float(dataset.column(c)[row]) * cycles for c in fitted.counters
    }
    ctx = {
        "interval_s": interval_s,
        "voltage_v": float(dataset.voltage_v[row]),
        "frequency_mhz": float(dataset.frequency_mhz[row]),
    }
    return deltas, ctx


class _FakeDataset:
    power_w = np.array([100.0, 200.0])


class TestPowerEnvelope:
    def test_from_dataset_spans_measurements(self, full_dataset, envelope):
        assert envelope.lo_w <= full_dataset.power_w.min()
        assert envelope.hi_w >= full_dataset.power_w.max()

    def test_contains_and_clip(self):
        env = PowerEnvelope(lo_w=50.0, hi_w=400.0)
        assert env.contains(100.0)
        assert not env.contains(1000.0)
        assert not env.contains(float("nan"))
        assert env.clip(1000.0) == pytest.approx(400.0)
        assert env.clip(-5.0) == pytest.approx(50.0)
        # Non-finite input lands mid-range rather than propagating.
        assert env.clip(float("nan")) == pytest.approx(225.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="below"):
            PowerEnvelope(lo_w=10.0, hi_w=10.0)
        with pytest.raises(ValueError, match="finite"):
            PowerEnvelope(lo_w=float("nan"), hi_w=10.0)
        with pytest.raises(ValueError, match="margin"):
            PowerEnvelope.from_dataset(_FakeDataset(), margin=-1.0)


class TestStepSkipsBadInput:
    def test_invalid_context_skipped_not_raised(self, fitted, full_dataset):
        est = OnlineEstimator(fitted)
        deltas, ctx = row_inputs(fitted, full_dataset)
        bad = [
            dict(ctx, interval_s=0.0),
            dict(ctx, voltage_v=-1.0),
            dict(ctx, frequency_mhz=float("nan")),
        ]
        for kwargs in bad:
            assert est.step(deltas, **kwargs) is None
        report = est.drift_report()
        assert report.n_skipped == 3
        assert report.n_intervals == 0
        assert len(report.warnings) == 3

    def test_non_monotonic_timestamp_skipped(self, fitted, full_dataset):
        est = OnlineEstimator(fitted)
        deltas, ctx = row_inputs(fitted, full_dataset)
        assert est.step(deltas, **ctx, time_s=1.0) is not None
        assert est.step(deltas, **ctx, time_s=0.5) is None
        assert est.step(deltas, **ctx, time_s=1.5) is not None
        report = est.drift_report()
        assert report.n_skipped == 1
        assert any("non-monotonic" in w for w in report.warnings)

    def test_nan_delta_falls_back_to_baseline(self, fitted, full_dataset):
        est = OnlineEstimator(fitted)
        deltas, ctx = row_inputs(fitted, full_dataset)
        deltas[fitted.counters[0]] = float("nan")
        out = est.step(deltas, **ctx)
        assert out is not None
        assert out.source == "baseline"
        assert np.isfinite(out.power_w) and np.isfinite(out.smoothed_w)
        assert any("non-finite" in f for f in out.flags)

    def test_negative_delta_falls_back_to_baseline(self, fitted, full_dataset):
        est = OnlineEstimator(fitted)
        deltas, ctx = row_inputs(fitted, full_dataset)
        deltas[fitted.counters[1]] = -10.0
        out = est.step(deltas, **ctx)
        assert out.source == "baseline"
        assert any("negative" in f for f in out.flags)

    def test_missing_counter_falls_back_to_baseline(self, fitted, full_dataset):
        est = OnlineEstimator(fitted)
        _, ctx = row_inputs(fitted, full_dataset)
        out = est.step({}, **ctx)
        assert out is not None
        assert out.source == "baseline"
        assert np.isfinite(out.smoothed_w)
        # A counter reported as None is missing, not a crash.
        out = est.step({c: None for c in fitted.counters}, **ctx)
        assert out.source == "baseline"
        assert any("missing" in f for f in out.flags)

    def test_smoothed_stays_finite_through_garbage(self, fitted, full_dataset):
        est = OnlineEstimator(fitted, smoothing=0.3)
        clean, ctx = row_inputs(fitted, full_dataset)
        outs = []
        for i in range(20):
            deltas = dict(clean)
            if i % 3 == 0:
                deltas[fitted.counters[0]] = float("nan")
            elif i % 3 == 1:
                deltas[fitted.counters[0]] = -1.0
            outs.append(est.step(deltas, **ctx))
        assert all(np.isfinite(h.smoothed_w) for h in outs)
        assert all(np.isfinite(h.power_w) for h in outs)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self, fitted, full_dataset):
        est = OnlineEstimator(
            fitted, breaker_threshold=3, recovery_threshold=2
        )
        clean, ctx = row_inputs(fitted, full_dataset)
        for _ in range(3):
            est.step({}, **ctx)  # all counters missing
        assert est.breaker_open
        # First clean interval: breaker still open, stays on baseline.
        out = est.step(clean, **ctx)
        assert out.source == "baseline"
        assert "breaker-open" in out.flags
        # Second clean interval closes it; estimate back on the model.
        est.step(clean, **ctx)
        assert not est.breaker_open
        out = est.step(clean, **ctx)
        assert out.source == "model"
        report = est.drift_report()
        assert report.breaker_trips == 1
        # Open for the tripping interval plus one clean interval.
        assert report.breaker_open_intervals == 2
        assert not report.breaker_open

    def test_short_glitch_does_not_trip(self, fitted, full_dataset):
        est = OnlineEstimator(fitted, breaker_threshold=3)
        clean, ctx = row_inputs(fitted, full_dataset)
        for _ in range(2):
            est.step({}, **ctx)
        est.step(clean, **ctx)
        assert not est.breaker_open
        assert est.drift_report().breaker_trips == 0

    def test_parameter_validation(self, fitted):
        with pytest.raises(ValueError):
            OnlineEstimator(fitted, breaker_threshold=0)
        with pytest.raises(ValueError):
            OnlineEstimator(fitted, recovery_threshold=0)
        with pytest.raises(ValueError):
            OnlineEstimator(fitted, drift_window=0)
        with pytest.raises(ValueError):
            OnlineEstimator(fitted, drift_tolerance=1.5)


class TestEnvelopeAndDrift:
    def test_implausible_estimate_replaced_by_baseline(
        self, fitted, full_dataset, envelope
    ):
        est = OnlineEstimator(fitted, envelope=envelope)
        deltas, ctx = row_inputs(fitted, full_dataset)
        # Blow one counter up by six orders of magnitude: the Equation 1
        # output leaves the plausible power range.
        deltas[fitted.counters[0]] *= 1e6
        out = est.step(deltas, **ctx)
        assert out.source == "baseline"
        assert "implausible-model-estimate" in out.flags
        assert envelope.lo_w <= out.power_w <= envelope.hi_w
        assert est.drift_report().n_implausible == 1

    def test_drift_detected_after_sustained_implausibility(
        self, fitted, full_dataset, envelope
    ):
        est = OnlineEstimator(
            fitted, envelope=envelope, drift_window=6, drift_tolerance=0.5
        )
        deltas, ctx = row_inputs(fitted, full_dataset)
        deltas[fitted.counters[0]] *= 1e6
        for _ in range(8):
            est.step(deltas, **ctx)
        report = est.drift_report()
        assert report.drift_detected
        assert report.drift_fraction > 0.5
        assert any("drift" in w for w in report.warnings)

    def test_no_drift_on_clean_stream(self, fitted, full_dataset, envelope):
        est = OnlineEstimator(fitted, envelope=envelope, drift_window=5)
        clean, ctx = row_inputs(fitted, full_dataset)
        for _ in range(20):
            est.step(clean, **ctx)
        report = est.drift_report()
        assert not report.drift_detected
        assert report.clean
        assert report.n_model == 20

    def test_report_summary_renders(self, fitted, full_dataset, envelope):
        est = OnlineEstimator(fitted, envelope=envelope)
        clean, ctx = row_inputs(fitted, full_dataset)
        est.step(clean, **ctx)
        est.step({}, **ctx)
        text = est.drift_report().summary()
        assert "intervals=2" in text
        assert "baseline=1" in text


class TestDegradedRunDriver:
    @pytest.fixture(scope="class")
    def run(self, platform):
        return platform.execute(get_workload("compute"), 2400, 8)

    def test_matches_strict_driver_without_faults(self, platform, run, fitted):
        """With an inactive fault plan the degraded driver must produce
        the exact timeline of the plain driver."""
        base = estimate_run(platform, run, fitted, interval_s=0.5)
        timeline, report = estimate_run_degraded(
            platform, run, fitted, faults=CounterLossPlan(), interval_s=0.5
        )
        assert np.array_equal(base.estimated_w, timeline.estimated_w)
        assert report.n_baseline == 0
        assert report.n_model == report.n_intervals

    def test_degraded_run_is_finite_and_reported(
        self, platform, run, fitted, full_dataset
    ):
        plan = CounterLossPlan.chaos(0.5, fault_seed=7)
        envelope = PowerEnvelope.from_dataset(full_dataset)
        timeline, report = estimate_run_degraded(
            platform, run, fitted, faults=plan, envelope=envelope
        )
        assert np.all(np.isfinite(timeline.estimated_w))
        assert np.all(np.isfinite(timeline.smoothed_w))
        assert report.n_intervals == timeline.estimated_w.shape[0]
        assert report.n_baseline > 0  # the chaos plan must actually bite

    def test_bit_identical_across_reruns(self, platform, run, fitted):
        plan = CounterLossPlan.chaos(0.3, fault_seed=3)
        t1, r1 = estimate_run_degraded(platform, run, fitted, faults=plan)
        t2, r2 = estimate_run_degraded(platform, run, fitted, faults=plan)
        assert np.array_equal(t1.estimated_w, t2.estimated_w)
        assert np.array_equal(t1.smoothed_w, t2.smoothed_w)
        assert r1 == r2

    def test_different_fault_seeds_differ(self, platform, run, fitted):
        # Mild intensity keeps a mix of model and baseline intervals
        # (heavy chaos latches the breaker open, and then every interval
        # is the same baseline regardless of the fault stream).
        a, ra = estimate_run_degraded(
            platform, run, fitted,
            faults=CounterLossPlan.chaos(0.15, fault_seed=1),
        )
        b, rb = estimate_run_degraded(
            platform, run, fitted,
            faults=CounterLossPlan.chaos(0.15, fault_seed=2),
        )
        assert ra != rb
        assert not np.array_equal(a.estimated_w, b.estimated_w)


class TestCounterLossPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="nan_rate"):
            CounterLossPlan(nan_rate=1.5)

    def test_chaos_scales(self):
        assert not CounterLossPlan.chaos(0.0).any_active
        assert CounterLossPlan.chaos(0.2).any_active

    def test_describe(self):
        assert "inactive" in CounterLossPlan().describe()
        assert "nan_rate" in CounterLossPlan(nan_rate=0.1).describe()

    def test_injector_deterministic(self):
        plan = CounterLossPlan.chaos(0.6, fault_seed=11)
        inj1 = OnlineFaultInjector(plan, root_seed=42)
        inj2 = OnlineFaultInjector(plan, root_seed=42)
        deltas = {"A": 1.0, "B": 2.0, "C": 3.0}
        for i in range(50):
            a = inj1.corrupt(deltas, i)
            b = inj2.corrupt(deltas, i)
            assert list(a) == list(b)
            for k in a:
                assert (a[k] == b[k]) or (np.isnan(a[k]) and np.isnan(b[k]))

    def test_injector_does_not_mutate_input(self):
        plan = CounterLossPlan.chaos(1.0, fault_seed=0)
        deltas = {"A": 1.0}
        OnlineFaultInjector(plan, 0).corrupt(deltas, 0)
        assert deltas == {"A": 1.0}
