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

Plugins sample a whole run at once (``sample_run``): per-phase RNG
draws — one standard-normal block per phase stream, the seeding
contract — followed by one arithmetic pass over the stacked
``(events, total_samples)`` matrix.  The C-order block fill consumes
the ziggurat stream in the same order as per-event ``normal()`` calls,
and ``loc + (0.0 + sigma*z)`` is exactly how ``Generator.normal``
assembles each draw, so values match event-at-a-time sampling bit for
bit (the oracle in ``tests/oracles/acquisition.py`` pins this).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.hardware.platform import PhaseExecution, Platform, RunExecution
from repro.hardware.pmu import EventSet
from repro.tracing.otf2 import MetricDef

__all__ = ["MetricPlugin", "PowerPlugin", "VoltagePlugin", "ApapiPlugin"]


class MetricPlugin:
    """Interface every metric plugin implements."""

    def metric_defs(self) -> List[MetricDef]:
        """Metric definitions this plugin contributes to the trace."""
        raise NotImplementedError

    def sample_run(
        self,
        run: RunExecution,
        phases: Sequence[PhaseExecution],
        grids: Sequence[np.ndarray],
        interval_s: float,
        rngs: Sequence[np.random.Generator],
    ) -> Dict[str, np.ndarray]:
        """Values for each metric across all phases of a run.

        ``grids`` holds each phase's absolute sample times and ``rngs``
        one generator per phase, seeded by the tracer.  Each returned
        array is the concatenation of the per-phase samples, in phase
        order.
        """
        raise NotImplementedError


def _fill_segments(
    out: np.ndarray, grids: Sequence[np.ndarray], per_phase: Sequence
) -> np.ndarray:
    """Write one value (or column) per phase across its grid segment."""
    pos = 0
    for grid, value in zip(grids, per_phase):
        out[..., pos : pos + grid.size] = value
        pos += grid.size
    return out


class PowerPlugin(MetricPlugin):
    """Node power sampled from the platform's sensor array."""

    METRIC = "power"

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def metric_defs(self) -> List[MetricDef]:
        return [MetricDef(self.METRIC, "W")]

    def sample_run(self, run, phases, grids, interval_s, rngs):
        total = np.empty(sum(grid.size for grid in grids))
        pos = 0
        for phase, grid, rng in zip(phases, grids, rngs):
            total[pos : pos + grid.size] = (
                self.platform.sensors.sample_node_total(
                    phase.power_breakdown.per_socket_w,
                    grid.size,
                    interval_s,
                    rng,
                )
            )
            pos += grid.size
        return {self.METRIC: total}


class VoltagePlugin(MetricPlugin):
    """Average active-core voltage from the x86_adapt telemetry."""

    METRIC = "voltage"

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def metric_defs(self) -> List[MetricDef]:
        return [MetricDef(self.METRIC, "V")]

    def sample_run(self, run, phases, grids, interval_s, rngs):
        telemetry = self.platform.voltage
        blocks = [
            rng.standard_normal(grid.size) for grid, rng in zip(grids, rngs)
        ]
        if len(blocks) == 1:
            z = blocks[0]
            true = phases[0].true_voltage_v
        else:
            z = np.concatenate(blocks)
            true = _fill_segments(
                np.empty(z.size), grids, [p.true_voltage_v for p in phases]
            )
        readings = true + (0.0 + telemetry.read_noise_v * z)
        step = telemetry.VID_STEP
        return {self.METRIC: np.round(readings / step) * step}


class ApapiPlugin(MetricPlugin):
    """Asynchronous PAPI sampling of the programmed event set."""

    PREFIX = "papi:"

    def __init__(self, platform: Platform, event_set: EventSet) -> None:
        self.platform = platform
        self.event_set = event_set
        self._indices = np.array(
            [_counter_index(name) for name in event_set.events], dtype=np.intp
        )
        self._names = tuple(
            f"{self.PREFIX}{name}" for name in event_set.events
        )

    def metric_defs(self) -> List[MetricDef]:
        return [
            MetricDef(f"{self.PREFIX}{name}", "events/s", mode="accumulated")
            for name in self.event_set.events
        ]

    def sample_run(self, run, phases, grids, interval_s, rngs):
        return _sample_counters(
            self._names,
            self._indices,
            self.platform.pmu.read_noise_sigma,
            run,
            phases,
            grids,
            interval_s,
            rngs,
        )


def _sample_counters(names, indices, sigmas, run, phases, grids, interval_s, rngs):
    """Counter-rate samples of a run, one row per event in ``names``.

    ``sigmas`` is the relative read noise: a scalar, or an
    ``(events, 1)`` column when events differ.  Each sample is the
    floored counter increment over one interval, in events/second.
    """
    n_events = len(names)
    f_hz = run.op.frequency_hz
    blocks = [
        rng.standard_normal((n_events, grid.size))
        for grid, rng in zip(grids, rngs)
    ]
    if len(blocks) == 1:
        # Single-phase run: broadcasting the rate column is the
        # same elementwise arithmetic as filling a matrix.
        z = blocks[0]
        true_per_s = (phases[0].state.counter_rates[indices] * f_hz)[:, None]
    else:
        z = np.concatenate(blocks, axis=1)
        true_per_s = _fill_segments(
            np.empty(z.shape),
            grids,
            [(p.state.counter_rates[indices] * f_hz)[:, None] for p in phases],
        )
    noise = 1.0 + (0.0 + sigmas * z)
    counts = np.maximum(true_per_s * interval_s * noise, 0.0)
    values = np.floor(counts) / interval_s
    return {name: values[i] for i, name in enumerate(names)}


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
        self._names = tuple(f"{self.PREFIX}{name}" for name in self.events)
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

    def sample_run(self, run, phases, grids, interval_s, rngs):
        return _sample_counters(
            self._names,
            self._indices,
            self._sigmas[:, None],
            run,
            phases,
            grids,
            interval_s,
            rngs,
        )
