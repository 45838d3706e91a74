"""Scalar acquisition oracle: the pre-vectorization pipeline, verbatim.

Production acquisition (DESIGN.md §17) simulates a run's phases as one
stacked batch, records every metric stream on one shared sample grid,
draws each plugin's noise as a single block and extracts phase
profiles with hoisted window bounds.  This module keeps the original
one-phase-at-a-time implementation of each of those stages:

* :func:`scalar_execute` — ``Platform.execute`` through the scalar
  :func:`~tests.oracles.physics.evaluate` /
  :func:`~tests.oracles.physics.compute_power` pair and a per-phase
  masked jitter multiply;
* :func:`scalar_trace` — the per-phase, per-plugin recording loop with
  a freshly derived RNG per stream (a block of runs is their traces
  stacked by :func:`stack_traces`);
* :data:`REFERENCE_SAMPLERS` — the four plugins' event-at-a-time
  sampling loops;
* :func:`scalar_profile_trace` — per-stream :func:`window_mean`
  extraction (a block: each run's trace in turn);
* :func:`sample_node_total` — one phase's summed node-power plugin
  samples from a single noise block.

:func:`scalar_acquisition` swaps all of them in for the duration of a
``with`` block, so single-run tracing and a whole campaign, faulty or
not, can be replayed on the oracle and compared byte for byte with
production at the same seeds.  ``TestCampaignBitIdentity`` also keeps
the oracle's own per-cell loop as a reference that shares no campaign
code with production.
"""

from __future__ import annotations

import contextlib
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.hardware.counters import COUNTER_NAMES, FIXED_COUNTERS, counter_index
from repro.hardware.microarch import MicroarchState
from repro.hardware.platform import (
    _JITTER_EXEMPT,
    PhaseExecution,
    Platform,
    RunExecution,
)
from repro.hardware.power import PowerBreakdown
from repro.hardware.sensors import SensorArray
from repro.seeding import derive_rng
from repro.tracing import phases as phases_module
from repro.tracing.otf2 import MetricStream, Trace, TraceBlock
from repro.tracing.phases import PhaseProfile
from repro.tracing.plugins import (
    ApapiPlugin,
    MultiplexedApapiPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.scorep import ScorePTracer
from tests.oracles.physics import compute_power, evaluate

__all__ = [
    "REFERENCE_SAMPLERS",
    "sample_node_total",
    "scalar_acquisition",
    "scalar_execute",
    "scalar_profile_block",
    "scalar_profile_trace",
    "scalar_trace",
    "stack_traces",
    "window_mean",
]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _jitter_mask() -> np.ndarray:
    mask = np.ones(len(COUNTER_NAMES), dtype=bool)
    for name in _JITTER_EXEMPT:
        mask[counter_index(name)] = False
    mask.setflags(write=False)
    return mask


_JITTER_MASK = _jitter_mask()


def _apply_jitter(state: MicroarchState, jitter: float) -> MicroarchState:
    """Coherent run-to-run activity jitter (cycle counters exempt)."""
    rates = state.counter_rates.copy()
    rates[_JITTER_MASK] *= jitter
    return MicroarchState(counter_rates=rates, hidden=state.hidden)


def scalar_execute(
    self, workload, frequency_mhz, threads, *, run_index=0, phases=None
) -> RunExecution:
    """Scalar ``Platform.execute``: one phase at a time, no memo."""
    workload.validate_threads(threads, self.cfg.total_cores)
    op = self.cfg.curve.operating_point(frequency_mhz)
    specs = (
        tuple(phases)
        if phases is not None
        else tuple(workload.phases(threads))
    )
    rng = derive_rng(
        self.seed, "run", workload.name, frequency_mhz, threads, run_index
    )
    jitter = 1.0 + float(rng.normal(0.0, self.run_jitter_sigma))
    power_jitter = (
        1.0
        + 0.6 * (jitter - 1.0)
        + float(rng.normal(0.0, self.power_jitter_sigma))
    )
    power_offset = float(rng.normal(0.0, self.power_offset_sigma_w))
    per_socket_offset = power_offset / self.cfg.sockets

    executions: List[PhaseExecution] = []
    states = [
        _apply_jitter(
            evaluate(
                spec.characterization, op, spec.active_threads, self.cfg
            ),
            jitter,
        )
        for spec in specs
    ]
    t = 0.0
    for spec, state in zip(specs, states):
        breakdown = compute_power(
            state.hidden, op, self.cfg, self.power_params
        )
        breakdown = PowerBreakdown(
            per_socket_w=tuple(
                max(p * power_jitter + per_socket_offset, 0.0)
                for p in breakdown.per_socket_w
            ),
            dynamic_core_w=breakdown.dynamic_core_w,
            uncore_w=breakdown.uncore_w,
            static_w=breakdown.static_w,
            board_w=breakdown.board_w,
            temperature_c=breakdown.temperature_c,
        )
        true_v = self.voltage.true_voltage(op, spec.active_threads)
        executions.append(
            PhaseExecution(
                phase=spec,
                start_s=t,
                end_s=t + spec.duration_s,
                state=state,
                power_breakdown=breakdown,
                true_voltage_v=true_v,
            )
        )
        t += spec.duration_s

    return RunExecution(
        workload_name=workload.name,
        suite=workload.suite,
        op=op,
        threads=threads,
        run_index=run_index,
        phases=tuple(executions),
        seed=self.seed,
    )


# ---------------------------------------------------------------------------
# plugin sampling
# ---------------------------------------------------------------------------


def _power_reference(self, run, phase, sample_times, interval_s, rng):
    # Each plugin sample is the mean of the raw sensor stream over
    # one sampling interval: one draw per socket channel per sample.
    n = sample_times.size
    total = np.zeros(n)
    for sensor, true_w in zip(
        self.platform.sensors.sensors, phase.power_breakdown.per_socket_w
    ):
        raw_per_sample = max(
            int(round(interval_s * sensor.sample_rate_hz)), 1
        )
        mean = true_w * sensor.calibration.gain + sensor.calibration.offset_w
        total += mean + rng.normal(
            0.0, sensor.noise_sigma_w / np.sqrt(raw_per_sample), size=n
        )
    return {self.METRIC: total}


def sample_node_total(
    array: SensorArray,
    per_socket_true_w: Tuple[float, ...],
    n: int,
    interval_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Summed node-power plugin samples for one phase, through the
    production :meth:`SensorArray.node_total`.

    Each of the ``n`` plugin samples is the mean of one raw-sensor
    interval; all channels' noise comes from a single
    ``standard_normal((channels, n))`` block whose C-order fill
    matches the per-channel ``normal(0, scale, size=n)`` draws of
    :func:`_power_reference` bit for bit.
    """
    means = array.channel_means(per_socket_true_w)
    z = rng.standard_normal((len(array.sensors), n))
    return array.node_total(means[:, None], z, interval_s)


def _voltage_reference(self, run, phase, sample_times, interval_s, rng):
    telemetry = self.platform.voltage
    n = sample_times.size
    true = phase.true_voltage_v
    readings = true + rng.normal(0.0, telemetry.read_noise_v, size=n)
    step = telemetry.VID_STEP
    return {self.METRIC: np.round(readings / step) * step}


def _apapi_reference(self, run, phase, sample_times, interval_s, rng):
    pmu = self.platform.pmu
    out: Dict[str, np.ndarray] = {}
    n = sample_times.size
    f_hz = run.op.frequency_hz
    rates = phase.state.counter_rates
    for name in self.event_set.events:
        idx_rate = float(rates[counter_index(name)])
        true_per_s = idx_rate * f_hz
        noise = 1.0 + rng.normal(0.0, pmu.read_noise_sigma, size=n)
        counts = np.maximum(true_per_s * interval_s * noise, 0.0)
        out[f"{self.PREFIX}{name}"] = np.floor(counts) / interval_s
    return out


def _multiplexed_reference(self, run, phase, sample_times, interval_s, rng):
    pmu = self.platform.pmu
    n = sample_times.size
    out: Dict[str, np.ndarray] = {}
    f_hz = run.op.frequency_hz
    rates = phase.state.counter_rates
    prog = [e for e in self.events if e not in FIXED_COUNTERS]
    n_groups = max(
        -(-len(prog) // self.platform.cfg.programmable_slots), 1
    )
    for name in self.events:
        true_per_s = float(rates[counter_index(name)]) * f_hz
        if name in FIXED_COUNTERS:
            sigma = pmu.read_noise_sigma
        else:
            sigma = float(
                np.hypot(
                    pmu.read_noise_sigma,
                    pmu.multiplex_noise_sigma * np.sqrt(max(n_groups - 1, 0)),
                )
            )
        noise = 1.0 + rng.normal(0.0, sigma, size=n)
        counts = np.maximum(true_per_s * interval_s * noise, 0.0)
        out[f"{self.PREFIX}{name}"] = np.floor(counts) / interval_s
    return out


#: Event-at-a-time sampling loop of each of the paper's plugins, keyed
#: by plugin type; each takes the plugin as its first argument.
REFERENCE_SAMPLERS = {
    PowerPlugin: _power_reference,
    VoltagePlugin: _voltage_reference,
    ApapiPlugin: _apapi_reference,
    MultiplexedApapiPlugin: _multiplexed_reference,
}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _trace_scalar(self, run: RunExecution) -> Trace:
    """Per-phase, per-plugin recording loop with per-stream arrays."""
    trace = Trace(
        meta={
            "workload": run.workload_name,
            "suite": run.suite,
            "frequency_mhz": run.op.frequency_mhz,
            "threads": run.threads,
            "run_index": run.run_index,
        }
    )
    dt = self.sampling_interval_s
    # Per-metric accumulators across phases.
    defs = {mdef.name: mdef for group in self._plugin_defs for mdef in group}
    times_acc: dict = {name: [] for name in defs}
    values_acc: dict = {name: [] for name in defs}

    for phase in run.phases:
        trace.record_enter(
            phase.phase.name, phase.start_s, phase.phase.active_threads
        )
        # Sample grid within the phase: first tick one interval in.
        n = max(int(np.floor(phase.duration_s / dt)), 1)
        sample_times = phase.start_s + dt * np.arange(1, n + 1)
        sample_times = sample_times[sample_times <= phase.end_s + 1e-9]
        if sample_times.size == 0:
            sample_times = np.array([phase.end_s])
        for plugin in self.plugins:
            rng = derive_rng(
                self.platform.seed,
                "plugin",
                type(plugin).__name__,
                run.workload_name,
                run.op.frequency_mhz,
                run.threads,
                run.run_index,
                phase.phase.name,
            )
            sampled = REFERENCE_SAMPLERS[type(plugin)](
                plugin, run, phase, sample_times, dt, rng
            )
            for name, vals in sampled.items():
                if name not in defs:
                    raise ValueError(
                        f"plugin produced undeclared metric {name!r}"
                    )
                times_acc[name].append(sample_times)
                values_acc[name].append(np.asarray(vals, dtype=np.float64))
        trace.record_leave(
            phase.phase.name, phase.end_s, phase.phase.active_threads
        )

    for name, mdef in defs.items():
        times = (
            np.concatenate(times_acc[name]) if times_acc[name] else np.array([])
        )
        values = (
            np.concatenate(values_acc[name]) if values_acc[name] else np.array([])
        )
        trace.add_metric_stream(
            MetricStream(definition=mdef, times_s=times, values=values)
        )
    return trace


def stack_traces(traces: Sequence[Trace]) -> TraceBlock:
    """The :class:`TraceBlock` of per-run traces whose metric streams
    (same metrics, same order) share one sample grid per trace."""
    names = list(traces[0].metrics)
    times = tuple(trace.metrics[names[0]].times_s for trace in traces)
    offsets = [0]
    for grid in times:
        offsets.append(offsets[-1] + grid.size)
    return TraceBlock(
        metas=tuple(dict(trace.meta) for trace in traces),
        intervals=tuple(tuple(trace.phase_intervals()) for trace in traces),
        defs=tuple(traces[0].metrics[name].definition for name in names),
        values=np.concatenate(
            [
                np.stack([trace.metrics[name].values for name in names])
                for trace in traces
            ],
            axis=1,
        ),
        times=times,
        offsets=tuple(offsets),
    )


def scalar_trace(self, runs):
    """Scalar ``ScorePTracer.trace``: one run's trace, or the block of
    a sequence of runs, stacked from their scalar traces."""
    if isinstance(runs, RunExecution):
        return _trace_scalar(self, runs)
    if not runs:
        raise ValueError("need at least one run to trace")
    return stack_traces([_trace_scalar(self, run) for run in runs])


# ---------------------------------------------------------------------------
# phase extraction
# ---------------------------------------------------------------------------


def window_mean(stream: MetricStream, start_s: float, end_s: float) -> float:
    """Average of the stream's samples inside ``[start_s, end_s)``.

    This is the aggregation the phase-profile generation performs
    ("the average over time for each async metric").  Returns NaN
    when no sample falls into the window.
    """
    if end_s < start_s:
        raise ValueError("window end before start")
    lo = int(np.searchsorted(stream.times_s, start_s, side="left"))
    hi = int(np.searchsorted(stream.times_s, end_s, side="left"))
    if hi <= lo:
        return float("nan")
    return float(stream.values[lo:hi].mean())


def scalar_profile_trace(
    trace: Trace, *, min_duration_s: float = 0.5
) -> List[PhaseProfile]:
    """Scalar ``profile_trace``: one ``window_mean`` per stream and window."""
    meta = trace.meta
    for key in ("workload", "suite", "frequency_mhz", "threads", "run_index"):
        if key not in meta:
            raise ValueError(f"trace metadata missing {key!r}")
    power_metric = trace.metrics.get(PowerPlugin.METRIC)
    voltage_metric = trace.metrics.get(VoltagePlugin.METRIC)
    if power_metric is None or voltage_metric is None:
        raise ValueError("trace lacks power/voltage metric streams")

    papi_names = [
        name
        for name in trace.metrics
        if name.startswith(ApapiPlugin.PREFIX)
    ]
    out: List[PhaseProfile] = []
    for region, start, end, active in trace.phase_intervals():
        if end - start < min_duration_s:
            continue
        p = window_mean(power_metric, start, end)
        v = window_mean(voltage_metric, start, end)
        if math.isnan(p) or math.isnan(v):
            continue
        rates = {}
        for name in papi_names:
            mean = window_mean(trace.metrics[name], start, end)
            if not math.isnan(mean):
                rates[name[len(ApapiPlugin.PREFIX) :]] = mean
        out.append(
            PhaseProfile(
                workload=str(meta["workload"]),
                suite=str(meta["suite"]),
                frequency_mhz=int(meta["frequency_mhz"]),
                threads=int(meta["threads"]),
                run_index=int(meta["run_index"]),
                phase_name=region,
                start_s=start,
                end_s=end,
                active_threads=active,
                power_w=p,
                voltage_v=v,
                counter_rates_per_s=rates,
            )
        )
    return out


def scalar_profile_block(
    block: TraceBlock, *, min_duration_s: float = 0.5
) -> List[PhaseProfile]:
    """Scalar ``profile_block``: each run's trace profiled in turn."""
    return [
        profile
        for r in range(len(block.metas))
        for profile in scalar_profile_trace(
            block.trace(r), min_duration_s=min_duration_s
        )
    ]


# ---------------------------------------------------------------------------
# swap-in
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def scalar_acquisition():
    """Run acquisition on the scalar oracle inside the ``with`` block.

    Patches ``Platform.execute``, ``ScorePTracer.trace`` (single runs
    and blocks) and the module-level ``profile_trace`` and
    ``profile_block`` that both phase-profile generators call.
    Everything is restored on exit.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Platform, "execute", scalar_execute)
        mp.setattr(ScorePTracer, "trace", scalar_trace)
        mp.setattr(phases_module, "profile_trace", scalar_profile_trace)
        mp.setattr(phases_module, "profile_block", scalar_profile_block)
        yield
