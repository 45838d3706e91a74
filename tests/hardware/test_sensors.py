"""Unit tests for the calibrated power sensor instrumentation."""

import numpy as np
import pytest

from repro.hardware import PowerSensor, SensorArray, SensorCalibration
from tests.oracles.acquisition import sample_node_total


def _sensor(gain=1.0, offset=0.0, **kw):
    return PowerSensor(SensorCalibration(gain=gain, offset_w=offset), **kw)


class TestPowerSensor:
    def test_sample_count(self):
        s = _sensor(sample_rate_hz=1000.0)
        assert s.n_samples(2.0) == 2000
        assert s.n_samples(0.0001) == 1  # at least one sample

    def test_samples_center_on_truth(self, rng):
        s = _sensor(noise_sigma_w=0.5)
        samples = s.sample(100.0, 10.0, rng)
        assert samples.mean() == pytest.approx(100.0, abs=0.1)

    def test_gain_and_offset_applied(self, rng):
        s = _sensor(gain=1.01, offset=0.5, noise_sigma_w=0.0)
        assert s.measure_average(200.0, 1.0, rng) == pytest.approx(202.5)

    def test_quantization(self, rng):
        s = _sensor(noise_sigma_w=0.0, resolution_w=0.5)
        samples = s.sample(100.3, 1.0, rng)
        assert np.allclose(samples % 0.5, 0.0)

    def test_average_noise_shrinks_with_duration(self):
        s = _sensor(noise_sigma_w=1.0)
        short = np.std(
            [s.measure_average(100.0, 0.01, np.random.default_rng(i)) for i in range(300)]
        )
        long = np.std(
            [s.measure_average(100.0, 10.0, np.random.default_rng(i)) for i in range(300)]
        )
        assert long < short / 5.0

    def test_measure_average_matches_sample_statistics(self):
        """The analytic fast path must agree with averaging the raw
        stream in distribution (same mean, same sigma/√n)."""
        s = _sensor(gain=1.002, offset=0.2, noise_sigma_w=0.8)
        raw_means = [
            s.sample(150.0, 1.0, np.random.default_rng(i)).mean()
            for i in range(400)
        ]
        fast = [
            s.measure_average(150.0, 1.0, np.random.default_rng(i))
            for i in range(400)
        ]
        assert np.mean(fast) == pytest.approx(np.mean(raw_means), abs=0.01)
        assert np.std(fast) == pytest.approx(np.std(raw_means), rel=0.3)

    def test_validation(self, rng):
        s = _sensor()
        with pytest.raises(ValueError):
            s.sample(-1.0, 1.0, rng)
        with pytest.raises(ValueError):
            s.sample(1.0, 0.0, rng)
        with pytest.raises(ValueError):
            s.measure_average(-5.0, 1.0, rng)
        with pytest.raises(ValueError):
            PowerSensor(SensorCalibration(1.0, 0.0), sample_rate_hz=0.0)
        with pytest.raises(ValueError):
            PowerSensor(SensorCalibration(1.0, 0.0), noise_sigma_w=-1.0)


class TestSensorArray:
    def test_build_draws_distinct_calibrations(self, rng):
        array = SensorArray.build(2, rng)
        cals = [s.calibration for s in array.sensors]
        assert cals[0] != cals[1]

    def test_calibration_residuals_small(self, rng):
        array = SensorArray.build(2, rng, gain_sigma=0.003)
        for s in array.sensors:
            assert abs(s.calibration.gain - 1.0) < 0.02
            assert abs(s.calibration.offset_w) < 1.0

    def test_node_average_sums_channels(self, rng):
        array = SensorArray(
            (
                _sensor(noise_sigma_w=0.0),
                _sensor(noise_sigma_w=0.0),
            )
        )
        total = array.measure_node_average((60.0, 70.0), 1.0, rng)
        assert total == pytest.approx(130.0)

    def test_channel_count_mismatch(self, rng):
        array = SensorArray.build(2, rng)
        with pytest.raises(ValueError):
            array.measure_node_average((100.0,), 1.0, rng)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            SensorArray(())


class TestVectorizedSampling:
    """ISSUE-10 satellite: the array-level window sampling must equal
    the per-channel Generator call sequence bit for bit."""

    def _array(self, rng):
        return SensorArray.build(2, rng, noise_sigma_w=0.7)

    def test_node_average_matches_per_channel_draws(self):
        array = self._array(np.random.default_rng(7))
        truth = (88.0, 96.5)
        for duration_s in (0.25, 1.0, 10.0):
            for seed in range(5):
                vec = array.measure_node_average(
                    truth, duration_s, np.random.default_rng(seed)
                )
                rng = np.random.default_rng(seed)
                ref = float(
                    sum(
                        s.measure_average(p, duration_s, rng)
                        for s, p in zip(array.sensors, truth)
                    )
                )
                assert vec == ref

    def test_sample_node_total_matches_per_channel_draws(self):
        array = self._array(np.random.default_rng(11))
        truth = (60.0, 75.0)
        interval_s = 0.1
        for n in (1, 7, 64):
            for seed in range(5):
                vec = sample_node_total(
                    array, truth, n, interval_s, np.random.default_rng(seed)
                )
                rng = np.random.default_rng(seed)
                ref = np.zeros(n)
                for s, p in zip(array.sensors, truth):
                    raw = max(int(round(interval_s * s.sample_rate_hz)), 1)
                    mean = p * s.calibration.gain + s.calibration.offset_w
                    ref += mean + rng.normal(
                        0.0, s.noise_sigma_w / np.sqrt(raw), size=n
                    )
                assert np.array_equal(vec, ref)

    def test_scale_cache_reused_across_calls(self):
        array = self._array(np.random.default_rng(3))
        sample_node_total(array, (50.0, 50.0), 4, 0.1, np.random.default_rng(0))
        first = array._scale_cache[0.1]
        sample_node_total(array, (51.0, 52.0), 4, 0.1, np.random.default_rng(1))
        assert array._scale_cache[0.1] is first
        assert len(array._scale_cache) == 1

    def test_node_average_validation(self):
        array = self._array(np.random.default_rng(5))
        with pytest.raises(ValueError):
            array.measure_node_average((50.0, 50.0), 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            array.measure_node_average((-1.0, 50.0), 1.0, np.random.default_rng(0))

    def test_sample_node_total_channel_mismatch(self):
        array = self._array(np.random.default_rng(5))
        with pytest.raises(ValueError):
            sample_node_total(array, (50.0,), 4, 0.1, np.random.default_rng(0))
