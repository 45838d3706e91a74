"""Calibrated power measurement instrumentation.

Models the custom-built energy measurement system of the paper
(Ilsche et al. 2015): "The system under test is instrumented with
calibrated high resolution power sensors at the 12 V inputs to each
socket.  During the experimentation, the power measurements are
collected on a separate system, avoiding perturbation on the
measurement itself."

Each sensor has a per-instance gain and offset calibration residual
(drawn once at construction — a physical property of that shunt +
ADC chain), per-sample Gaussian noise, and quantization.  Sampling a
constant true power over a phase therefore yields an average whose
error is dominated by the calibration residual, exactly the error
structure a calibrated lab instrument exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SensorCalibration",
    "SensorFaults",
    "apply_sensor_faults",
    "PowerSensor",
    "SensorArray",
]


@dataclass(frozen=True)
class SensorFaults:
    """Glitch state of one sensor channel during one sampling window.

    Models the failure modes of a real shunt + ADC chain: dropped
    readings (link loss → NaN), a stuck-at glitch (the ADC repeats its
    last conversion), and sporadic NaN readings.  Passed to
    :meth:`PowerSensor.sample` by callers that drive a sensor directly;
    the trace path applies the same glitch classes to recorded streams
    through :meth:`~repro.faults.injector.FaultInjector.corrupt_trace`.
    """

    dropout: bool = False
    """Lose a contiguous block of samples (reported as NaN)."""
    stuck: bool = False
    """Flat-line: repeat one conversion for the rest of the window."""
    nan_rate: float = 0.0
    """Per-sample probability of an isolated NaN reading."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.nan_rate <= 1.0:
            raise ValueError(f"nan_rate must be in [0, 1], got {self.nan_rate}")

    @property
    def any_active(self) -> bool:
        return self.dropout or self.stuck or self.nan_rate > 0.0


def apply_sensor_faults(
    raw: np.ndarray, faults: SensorFaults, rng: np.random.Generator
) -> np.ndarray:
    """Apply :class:`SensorFaults` to a raw sample stream (in place).

    Deterministic given ``rng``; returns ``raw`` for chaining.  The
    application order (NaN readings, dropout window, stuck-at tail)
    matches the trace-level injector so both paths produce the same
    corruption classes.
    """
    n = raw.size
    if n == 0 or not faults.any_active:
        return raw
    if faults.nan_rate > 0.0:
        raw[rng.random(n) < faults.nan_rate] = np.nan
    if faults.dropout:
        width = max(int(n * float(rng.uniform(0.1, 0.4))), 1)
        start = int(rng.integers(0, max(n - width, 0) + 1))
        raw[start : start + width] = np.nan
    if faults.stuck:
        idx = int(rng.integers(0, max(n - 8, 0) + 1))
        raw[idx:] = raw[idx]
    return raw


@dataclass(frozen=True)
class SensorCalibration:
    """Residual calibration error of one sensor channel."""

    gain: float
    offset_w: float

    @staticmethod
    def draw(rng: np.random.Generator, gain_sigma: float, offset_sigma_w: float):
        return SensorCalibration(
            gain=1.0 + float(rng.normal(0.0, gain_sigma)),
            offset_w=float(rng.normal(0.0, offset_sigma_w)),
        )


class PowerSensor:
    """One calibrated 12 V power sensor channel.

    Parameters
    ----------
    calibration:
        Fixed gain/offset residual of this channel.
    sample_rate_hz:
        Samples per second delivered to the measurement host.
    noise_sigma_w:
        Per-sample Gaussian noise (shunt amplifier + ADC).
    resolution_w:
        Quantization step of the digitizer.
    """

    def __init__(
        self,
        calibration: SensorCalibration,
        *,
        sample_rate_hz: float = 1000.0,
        noise_sigma_w: float = 0.6,
        resolution_w: float = 0.01,
    ) -> None:
        if sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        if noise_sigma_w < 0 or resolution_w < 0:
            raise ValueError("noise and resolution must be non-negative")
        self.calibration = calibration
        self.sample_rate_hz = sample_rate_hz
        self.noise_sigma_w = noise_sigma_w
        self.resolution_w = resolution_w

    def n_samples(self, duration_s: float) -> int:
        """Sample count for a phase; at least one sample per phase."""
        return max(int(round(duration_s * self.sample_rate_hz)), 1)

    def sample(
        self,
        true_power_w: float,
        duration_s: float,
        rng: np.random.Generator,
        *,
        faults: Optional[SensorFaults] = None,
    ) -> np.ndarray:
        """Raw sample stream for a constant true power over a phase.

        ``faults`` injects channel glitches (dropout → NaN blocks,
        stuck-at flat-lines, sporadic NaN readings) after quantization,
        exactly where a real ADC chain fails.
        """
        if true_power_w < 0:
            raise ValueError("true power cannot be negative")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        n = self.n_samples(duration_s)
        raw = (
            true_power_w * self.calibration.gain
            + self.calibration.offset_w
            + rng.normal(0.0, self.noise_sigma_w, size=n)
        )
        if self.resolution_w > 0:
            raw = np.round(raw / self.resolution_w) * self.resolution_w
        if faults is not None:
            raw = apply_sensor_faults(raw, faults, rng)
        return raw

    def measure_average(
        self, true_power_w: float, duration_s: float, rng: np.random.Generator
    ) -> float:
        """Phase-averaged measured power (what the phase profile holds).

        Drawn from the exact sampling distribution of the mean of
        ``n_samples`` raw readings — equivalent to averaging
        :meth:`sample` output but O(1) regardless of phase length,
        which keeps multi-minute SPEC phases cheap to simulate.
        """
        if true_power_w < 0:
            raise ValueError("true power cannot be negative")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        n = self.n_samples(duration_s)
        mean = true_power_w * self.calibration.gain + self.calibration.offset_w
        return float(mean + rng.normal(0.0, self.noise_sigma_w / np.sqrt(n)))


class SensorArray:
    """The per-socket sensor set of the measurement system."""

    def __init__(self, sensors: Tuple[PowerSensor, ...]) -> None:
        if not sensors:
            raise ValueError("need at least one sensor channel")
        self.sensors = sensors
        # Per-interval window-mean noise scales sigma_c / sqrt(n_c):
        # derived from fixed channel properties, so cached across the
        # thousands of identical-duration phases a campaign samples.
        self._scale_cache: dict = {}
        # Calibration vectors for the batched sampling entry points.
        self._gains = np.array([s.calibration.gain for s in sensors])
        self._offsets = np.array([s.calibration.offset_w for s in sensors])

    @staticmethod
    def build(
        n_channels: int,
        rng: np.random.Generator,
        *,
        gain_sigma: float = 0.003,
        offset_sigma_w: float = 0.15,
        sample_rate_hz: float = 1000.0,
        noise_sigma_w: float = 0.6,
    ) -> "SensorArray":
        """Construct a calibrated array; calibration residuals are drawn
        once from ``rng`` (a property of the physical instrument)."""
        sensors = tuple(
            PowerSensor(
                SensorCalibration.draw(rng, gain_sigma, offset_sigma_w),
                sample_rate_hz=sample_rate_hz,
                noise_sigma_w=noise_sigma_w,
            )
            for _ in range(n_channels)
        )
        return SensorArray(sensors)

    def _window_scales(self, duration_s: float) -> np.ndarray:
        """Noise sigma of the window mean, per channel (cached)."""
        scales = self._scale_cache.get(duration_s)
        if scales is None:
            if len(self._scale_cache) >= 4096:
                self._scale_cache.clear()
            scales = np.array(
                [
                    s.noise_sigma_w / np.sqrt(s.n_samples(duration_s))
                    for s in self.sensors
                ]
            )
            self._scale_cache[duration_s] = scales
        return scales

    def measure_node_average(
        self,
        per_socket_true_w: Tuple[float, ...],
        duration_s: float,
        rng: np.random.Generator,
    ) -> float:
        """Average node power over a phase: sum of per-socket channels.

        One ``standard_normal`` draw covers all channels; each channel's
        reading is assembled exactly as
        :meth:`PowerSensor.measure_average` would (``normal(loc, scale)``
        is ``loc + scale * z`` per element), so the result is
        bit-identical to summing per-channel calls.
        """
        if len(per_socket_true_w) != len(self.sensors):
            raise ValueError(
                f"{len(per_socket_true_w)} socket powers for "
                f"{len(self.sensors)} sensor channels"
            )
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if any(p < 0 for p in per_socket_true_w):
            raise ValueError("true power cannot be negative")
        scales = self._window_scales(duration_s)
        z = rng.standard_normal(len(self.sensors))
        total = 0.0
        for c, (sensor, true_w) in enumerate(zip(self.sensors, per_socket_true_w)):
            mean = (
                true_w * sensor.calibration.gain + sensor.calibration.offset_w
            )
            total += mean + (0.0 + scales[c] * z[c])
        return float(total)

    def channel_means(self, per_socket_true_w) -> np.ndarray:
        """Calibrated mean reading of each channel: one row of socket
        powers in, one row of channel means out (any leading shape)."""
        n_sockets = np.shape(per_socket_true_w)[-1]
        if n_sockets != len(self.sensors):
            raise ValueError(
                f"{n_sockets} socket powers for "
                f"{len(self.sensors)} sensor channels"
            )
        return np.multiply(per_socket_true_w, self._gains) + self._offsets

    def node_total(
        self, means: np.ndarray, z: np.ndarray, interval_s: float
    ) -> np.ndarray:
        """Summed node-power plugin samples from standard-normal noise.

        ``z`` is ``(channels, samples)``; ``means`` holds each
        channel's :meth:`channel_means` entry per sample (or one column
        broadcast over all of them).  Every element sees the operation
        sequence of the one-channel-at-a-time path (``mean + (0.0 +
        scale * z)``) and the channel accumulation keeps its sequential
        order, so the result is bit-identical to it.  ``z`` is
        overwritten.
        """
        scales = self._window_scales(interval_s)
        readings = np.multiply(scales[:, None], z, out=z)
        np.add(0.0, readings, out=readings)
        np.add(means, readings, out=readings)
        total = np.zeros(readings.shape[1])
        for row in readings:
            np.add(total, row, out=total)
        return total
