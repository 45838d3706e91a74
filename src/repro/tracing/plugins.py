"""Score-P metric plugins.

"A metric plugin is an external dynamic linked library, which
implements the Score-P metric plugin interface" (Section III-A).  Here
a plugin is a Python object implementing :class:`MetricPlugin`: it
declares metric definitions and produces sampled values for an
executed run.  The three plugins of the paper are modelled:

* :class:`PowerPlugin` — ``scorep_ni``: node power from the calibrated
  12 V sensors (per-socket channels summed).
* :class:`VoltagePlugin` — ``scorep_x86_adapt``: per-core voltage
  telemetry, reported as the mean over active cores.
* :class:`ApapiPlugin` — ``scorep_plugin_apapi``: asynchronous PAPI
  counter sampling for the currently programmed event set; each sample
  is the counter increment over the sampling interval, normalized to
  events/second (the post-processing converts to events per cycle).

Plugins sample a block of phase streams at once (``sample``): one
standard-normal block per (run, phase) stream, the seeding contract,
drawn into a stacked ``(rows, samples)`` buffer, followed by one
elementwise pass over the whole buffer.  The C-order block fill
consumes the ziggurat stream in the same order as per-event
``normal()`` calls, and ``loc + (0.0 + sigma*z)`` is exactly how
``Generator.normal`` assembles each draw, so values match
event-at-a-time sampling bit for bit (the oracle in
``tests/oracles/acquisition.py`` pins this).  Elementwise float64
ufuncs do not depend on the batch shape, so a block of many runs gives
each run the samples it would get alone.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.hardware.platform import PhaseExecution, Platform, RunExecution
from repro.hardware.pmu import EventSet
from repro.tracing.otf2 import MetricDef

__all__ = ["MetricPlugin", "PowerPlugin", "VoltagePlugin", "ApapiPlugin"]


class MetricPlugin:
    """Interface every metric plugin implements.

    A plugin declares its metrics, the true value behind each noise row
    in each phase of a block (:meth:`phase_truth`) and the elementwise
    arithmetic that turns true values and standard-normal noise into
    samples (:meth:`finish`).  :meth:`sample` draws and stacks the
    streams.
    """

    def metric_defs(self) -> List[MetricDef]:
        """Metric definitions this plugin contributes to the trace."""
        raise NotImplementedError

    def phase_truth(
        self, streams: Sequence[Tuple[RunExecution, PhaseExecution]]
    ) -> np.ndarray:
        """True value behind each noise row during each stream's phase,
        ``(rows, streams)``."""
        raise NotImplementedError

    def finish(
        self, truth: np.ndarray, z: np.ndarray, interval_s: float
    ) -> np.ndarray:
        """Samples of every metric, ``(len(metric_defs()), samples)``,
        from ``(rows, samples)`` true values and standard-normal noise.
        Works in place: ``truth`` and ``z`` may be overwritten."""
        raise NotImplementedError

    def sample(
        self,
        streams: Sequence[Tuple[RunExecution, PhaseExecution]],
        sizes: Sequence[int],
        interval_s: float,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Samples of every metric across a block of phase streams.

        Stream ``k`` is a (run, phase) pair with ``sizes[k]`` samples
        drawn from ``rngs[k]``; its columns follow those of stream
        ``k - 1``.  Each stream draws one ``(rows, sizes[k])`` block,
        so its values do not depend on the rest of the block.
        """
        if not streams:
            return np.empty((len(self.metric_defs()), 0))
        truth = np.repeat(self.phase_truth(streams), sizes, axis=1)
        rows = truth.shape[0]
        z = np.empty(truth.shape)
        pos = 0
        for n, rng in zip(sizes, rngs):
            z[:, pos : pos + n] = rng.standard_normal((rows, n))
            pos += n
        return self.finish(truth, z, interval_s)


class PowerPlugin(MetricPlugin):
    """Node power sampled from the platform's sensor array."""

    METRIC = "power"

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def metric_defs(self) -> List[MetricDef]:
        return [MetricDef(self.METRIC, "W")]

    def phase_truth(self, streams):
        per_socket_w = [phase.power_breakdown.per_socket_w for _, phase in streams]
        return self.platform.sensors.channel_means(per_socket_w).T

    def finish(self, truth, z, interval_s):
        return self.platform.sensors.node_total(truth, z, interval_s)[None]


class VoltagePlugin(MetricPlugin):
    """Average active-core voltage from the x86_adapt telemetry."""

    METRIC = "voltage"

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def metric_defs(self) -> List[MetricDef]:
        return [MetricDef(self.METRIC, "V")]

    def phase_truth(self, streams):
        return np.array([[phase.true_voltage_v for _, phase in streams]])

    def finish(self, truth, z, interval_s):
        # readings = truth + (0.0 + sigma * z), then snapped to VID steps.
        telemetry = self.platform.voltage
        step = telemetry.VID_STEP
        readings = np.multiply(telemetry.read_noise_v, z, out=z)
        np.add(0.0, readings, out=readings)
        np.add(truth, readings, out=readings)
        np.divide(readings, step, out=readings)
        np.round(readings, out=readings)
        return np.multiply(readings, step, out=readings)


class ApapiPlugin(MetricPlugin):
    """Asynchronous PAPI sampling of the programmed event set."""

    PREFIX = "papi:"

    def __init__(self, platform: Platform, event_set: EventSet) -> None:
        self.platform = platform
        self.event_set = event_set
        self._indices = np.array(
            [_counter_index(name) for name in event_set.events], dtype=np.intp
        )

    def metric_defs(self) -> List[MetricDef]:
        return [
            MetricDef(f"{self.PREFIX}{name}", "events/s", mode="accumulated")
            for name in self.event_set.events
        ]

    def phase_truth(self, streams):
        rates = np.array([phase.state.counter_rates for _, phase in streams])
        f_hz = np.array([run.op.frequency_hz for run, _ in streams])
        return (rates[:, self._indices] * f_hz[:, None]).T

    def finish(self, truth, z, interval_s):
        return _counter_samples(
            truth, z, self.platform.pmu.read_noise_sigma, interval_s
        )


def _counter_samples(true_per_s, z, sigmas, interval_s):
    """Counter-rate samples, one row per event.

    ``sigmas`` is the relative read noise: a scalar, or an
    ``(events, 1)`` column when events differ.  Each sample is the
    floored counter increment over one interval, in events/second:
    ``floor(max(true_per_s * interval_s * (1.0 + (0.0 + sigmas * z)),
    0.0)) / interval_s``, computed in place.
    """
    noise = np.multiply(sigmas, z, out=z)
    np.add(0.0, noise, out=noise)
    np.add(1.0, noise, out=noise)
    counts = np.multiply(true_per_s, interval_s, out=true_per_s)
    np.multiply(counts, noise, out=counts)
    np.maximum(counts, 0.0, out=counts)
    np.floor(counts, out=counts)
    return np.divide(counts, interval_s, out=counts)


def _counter_index(name: str) -> int:
    from repro.hardware.counters import counter_index

    return counter_index(name)


class MultiplexedApapiPlugin(MetricPlugin):
    """Time-division-multiplexed PAPI sampling of *all* requested
    events in a single run.

    Avoids the multi-run campaigns of Section III-A at the price of
    extrapolation noise — see
    :meth:`repro.hardware.pmu.PMU.count_multiplexed`.
    """

    PREFIX = ApapiPlugin.PREFIX

    def __init__(self, platform: Platform, events: Sequence[str]) -> None:
        self.platform = platform
        self.events = tuple(events)
        from repro.hardware.counters import FIXED_COUNTERS, counter_index

        pmu = platform.pmu
        self._indices = np.array(
            [counter_index(name) for name in self.events], dtype=np.intp
        )
        prog = [e for e in self.events if e not in FIXED_COUNTERS]
        n_groups = max(-(-len(prog) // platform.cfg.programmable_slots), 1)
        mux_sigma = float(
            np.hypot(
                pmu.read_noise_sigma,
                pmu.multiplex_noise_sigma * np.sqrt(max(n_groups - 1, 0)),
            )
        )
        self._sigmas = np.array(
            [
                pmu.read_noise_sigma if name in FIXED_COUNTERS else mux_sigma
                for name in self.events
            ]
        )

    def metric_defs(self) -> List[MetricDef]:
        return [
            MetricDef(f"{self.PREFIX}{name}", "events/s", mode="accumulated")
            for name in self.events
        ]

    phase_truth = ApapiPlugin.phase_truth

    def finish(self, truth, z, interval_s):
        return _counter_samples(truth, z, self._sigmas[:, None], interval_s)
