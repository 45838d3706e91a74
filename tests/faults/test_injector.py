"""FaultInjector + watchdog: every fault class is injected
deterministically and detected by physical plausibility alone."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    AcquisitionError,
    FaultInjector,
    FaultPlan,
    OVERFLOW_RATE_PER_S,
    PLAUSIBLE_MAX_RATE_PER_S,
    RunFailure,
    STUCK_RUN_LENGTH,
    validate_profiles,
    validate_trace,
)
from repro.hardware import EventSet, FIXED_COUNTERS
from repro.hardware.sensors import SensorCalibration, PowerSensor, SensorFaults
from repro.tracing import haecsim_profiles, trace_run
from repro.workloads import get_workload

EVENTS = EventSet(events=tuple(FIXED_COUNTERS) + ("PRF_DM",))


@pytest.fixture(scope="module")
def clean_trace(platform):
    run = platform.execute(get_workload("compute"), 2400, 8)
    return run, trace_run(platform, run, EVENTS, sampling_interval_s=0.1)


def _corrupted(trace, plan, seed, attempt=0):
    return FaultInjector(plan, seed).corrupt_trace(trace, attempt=attempt)


class TestDeterminism:
    def test_same_seed_same_decisions(self, fault_seed):
        plan = FaultPlan(run_failure_rate=0.3, fault_seed=fault_seed)
        a = FaultInjector(plan, 7)
        b = FaultInjector(plan, 7)
        for run_index in range(50):
            crashed_a = crashed_b = False
            try:
                a.check_run("w", 2400, 8, run_index)
            except RunFailure:
                crashed_a = True
            try:
                b.check_run("w", 2400, 8, run_index)
            except RunFailure:
                crashed_b = True
            assert crashed_a == crashed_b

    def test_same_seed_bit_identical_corruption(self, clean_trace, fault_seed):
        _, trace = clean_trace
        plan = FaultPlan.chaos(0.8, fault_seed=fault_seed)
        t1 = _corrupted(trace, plan, 7)
        t2 = _corrupted(trace, plan, 7)
        assert set(t1.metrics) == set(t2.metrics)
        for name in t1.metrics:
            np.testing.assert_array_equal(
                t1.metrics[name].values, t2.metrics[name].values
            )

    def test_fault_seed_decorrelates(self, clean_trace):
        _, trace = clean_trace
        t1 = _corrupted(trace, FaultPlan.chaos(0.8, fault_seed=1), 7)
        t2 = _corrupted(trace, FaultPlan.chaos(0.8, fault_seed=2), 7)
        same = all(
            t1.metrics[n].values.shape == t2.metrics[n].values.shape
            and np.array_equal(
                t1.metrics[n].values, t2.metrics[n].values, equal_nan=True
            )
            for n in t1.metrics
            if n in t2.metrics
        )
        assert not same

    def test_retries_are_fresh_draws(self, fault_seed):
        # With a 50% crash rate some cell must crash on attempt 0 and
        # succeed on attempt 1 — retries draw independently.
        plan = FaultPlan(run_failure_rate=0.5, fault_seed=fault_seed)
        injector = FaultInjector(plan, 7)
        recovered = 0
        for run_index in range(100):
            try:
                injector.check_run("w", 2400, 8, run_index, attempt=0)
            except RunFailure:
                try:
                    injector.check_run("w", 2400, 8, run_index, attempt=1)
                    recovered += 1
                except RunFailure:
                    pass
        assert recovered > 0


class TestRunFaults:
    def test_kill_cells_match_every_attempt(self):
        plan = FaultPlan(kill_cells=("compute:2400:*",))
        injector = FaultInjector(plan, 7)
        for attempt in range(5):
            with pytest.raises(RunFailure) as exc_info:
                injector.check_run("compute", 2400, 8, 0, attempt=attempt)
            assert exc_info.value.kind == "cell-killed"
        # A different frequency does not match.
        injector.check_run("compute", 1200, 8, 0)

    def test_zero_rate_never_crashes(self):
        injector = FaultInjector(FaultPlan(), 7)
        for run_index in range(20):
            injector.check_run("w", 2400, 8, run_index)


class TestTraceCorruption:
    def test_input_trace_not_mutated(self, clean_trace):
        _, trace = clean_trace
        before = {n: s.values.copy() for n, s in trace.metrics.items()}
        _corrupted(trace, FaultPlan.chaos(1.0), 7)
        for name, values in before.items():
            np.testing.assert_array_equal(trace.metrics[name].values, values)

    def test_nan_samples_detected(self, clean_trace):
        _, trace = clean_trace
        bad = _corrupted(trace, FaultPlan(nan_sample_rate=0.2), 7)
        assert np.isnan(bad.metrics["power"].values).any()
        with pytest.raises(AcquisitionError) as exc_info:
            validate_trace(bad)
        assert exc_info.value.kind == "sensor-dropout"

    def test_stuck_sensor_detected(self, clean_trace):
        _, trace = clean_trace
        bad = _corrupted(trace, FaultPlan(sensor_stuck_rate=1.0), 7)
        values = bad.metrics["power"].values
        tail = values[-STUCK_RUN_LENGTH:]
        assert np.all(tail == tail[0])
        with pytest.raises(AcquisitionError) as exc_info:
            validate_trace(bad)
        assert exc_info.value.kind == "sensor-stuck"

    def test_counter_overflow_detected(self, clean_trace):
        _, trace = clean_trace
        bad = _corrupted(trace, FaultPlan(counter_overflow_rate=1.0), 7)
        peaks = [
            float(s.values.max())
            for n, s in bad.metrics.items()
            if n.startswith("papi:")
        ]
        assert max(peaks) == OVERFLOW_RATE_PER_S
        assert OVERFLOW_RATE_PER_S > PLAUSIBLE_MAX_RATE_PER_S
        with pytest.raises(AcquisitionError) as exc_info:
            validate_trace(bad)
        assert exc_info.value.kind == "counter-overflow"

    def test_truncation_detected_as_phase_loss(self, clean_trace):
        run, trace = clean_trace
        bad = _corrupted(trace, FaultPlan(trace_truncation_rate=1.0), 7)
        assert bad.duration_s < trace.duration_s
        validate_trace(bad)  # streams themselves are plausible
        with pytest.raises(AcquisitionError) as exc_info:
            validate_profiles(haecsim_profiles(bad).phase_names, run)
        assert exc_info.value.kind == "phase-loss"

    def test_clean_trace_validates(self, clean_trace):
        run, trace = clean_trace
        validate_trace(trace)
        validate_profiles(haecsim_profiles(trace).phase_names, run)

    def test_inactive_plan_is_identity(self, clean_trace):
        _, trace = clean_trace
        assert _corrupted(trace, FaultPlan(), 7) is trace


class TestSensorFaults:
    def _sensor(self):
        return PowerSensor(
            SensorCalibration(gain=1.0, offset_w=0.0), sample_rate_hz=100.0
        )

    def test_stuck_channel_flat_lines(self, rng):
        raw = self._sensor().sample(
            100.0, 2.0, rng, faults=SensorFaults(stuck=True)
        )
        tail = raw[-STUCK_RUN_LENGTH:]
        assert np.all(tail == tail[0])

    def test_dropout_produces_nan_block(self, rng):
        raw = self._sensor().sample(
            100.0, 2.0, rng, faults=SensorFaults(dropout=True)
        )
        assert np.isnan(raw).any()

    def test_no_faults_matches_faultless_call(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        clean = self._sensor().sample(100.0, 2.0, rng_a)
        inert = self._sensor().sample(
            100.0, 2.0, rng_b, faults=SensorFaults()
        )
        np.testing.assert_array_equal(clean, inert)

    def test_nan_rate_validated(self):
        with pytest.raises(ValueError):
            SensorFaults(nan_rate=1.5)

