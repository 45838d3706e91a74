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
  extraction into one :class:`PhaseProfile` object per phase (a block:
  each run's trace in turn);
* :func:`merge_runs` / :func:`build_dataset` — the per-profile,
  dict-of-lists merge into :class:`MergedPhase` objects and the
  dataset assembly from them (:func:`profile_table` and
  :func:`table_profiles` convert between profiles and the production
  :class:`~repro.tracing.phases.PhaseTable`);
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
import dataclasses
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.acquisition.dataset import PowerDataset
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
from repro.tracing.phases import PhaseTable
from repro.tracing.plugins import (
    ApapiPlugin,
    MultiplexedApapiPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.scorep import ScorePTracer
from tests.oracles.physics import compute_power, evaluate

__all__ = [
    "MergedPhase",
    "PhaseProfile",
    "REFERENCE_SAMPLERS",
    "build_dataset",
    "merge_runs",
    "profile_table",
    "table_profiles",
    "tables_equal",
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


@dataclass(frozen=True)
class PhaseProfile:
    """Aggregated view of one phase of one traced run."""

    workload: str
    suite: str
    frequency_mhz: int
    threads: int
    run_index: int
    phase_name: str
    start_s: float
    end_s: float
    active_threads: int
    power_w: float
    voltage_v: float
    counter_rates_per_s: Dict[str, float] = field(default_factory=dict)
    """Mean recorded PMC rates in events/second, keyed by counter name."""

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def rate_per_cycle(self, counter: str) -> float:
        """Event rate per cpu cycle — the E_n of Equation 1."""
        return self.counter_rates_per_s[counter] / (self.frequency_mhz * 1e6)


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
) -> PhaseTable:
    """Scalar ``profile_block``: each run's trace profiled in turn, as
    the production table."""
    return profile_table(
        [
            scalar_profile_trace(block.trace(r), min_duration_s=min_duration_s)
            for r in range(len(block.metas))
        ]
    )


def profile_table(runs: Sequence[Sequence[PhaseProfile]]) -> PhaseTable:
    """The :class:`PhaseTable` of per-run profile lists: run ``r``'s
    rows are ``runs[r]``; counters are columns in first-seen order."""
    profiles = [p for run in runs for p in run]
    names = tuple(
        dict.fromkeys(c for p in profiles for c in p.counter_rates_per_s)
    )
    rates = np.full((len(profiles), len(names)), np.nan)
    for i, p in enumerate(profiles):
        for j, name in enumerate(names):
            if name in p.counter_rates_per_s:
                rates[i, j] = p.counter_rates_per_s[name]

    def column(attr, dtype=None):
        values = [getattr(p, attr) for p in profiles]
        return tuple(values) if dtype is None else np.array(values, dtype=dtype)

    return PhaseTable(
        workloads=column("workload"),
        suites=column("suite"),
        frequency_mhz=column("frequency_mhz", np.int64),
        threads=column("threads", np.int64),
        run_index=column("run_index", np.int64),
        phase_names=column("phase_name"),
        start_s=column("start_s", np.float64),
        end_s=column("end_s", np.float64),
        active_threads=column("active_threads", np.int64),
        power_w=column("power_w", np.float64),
        voltage_v=column("voltage_v", np.float64),
        counter_names=names,
        rates_per_s=rates,
        run_offsets=tuple(np.cumsum([0] + [len(run) for run in runs]).tolist()),
    )


def tables_equal(a: PhaseTable, b: PhaseTable) -> bool:
    """Column-wise equality of two tables; NaN (a counter not recorded)
    equals NaN."""
    for f in dataclasses.fields(PhaseTable):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y, equal_nan=True):
                return False
        elif x != y:
            return False
    return True


def table_profiles(table: PhaseTable) -> List[PhaseProfile]:
    """One :class:`PhaseProfile` per table row; a row's counters are
    the columns it recorded, in column order."""
    return [
        PhaseProfile(
            workload=table.workloads[i],
            suite=table.suites[i],
            frequency_mhz=int(table.frequency_mhz[i]),
            threads=int(table.threads[i]),
            run_index=int(table.run_index[i]),
            phase_name=table.phase_names[i],
            start_s=float(table.start_s[i]),
            end_s=float(table.end_s[i]),
            active_threads=int(table.active_threads[i]),
            power_w=float(table.power_w[i]),
            voltage_v=float(table.voltage_v[i]),
            counter_rates_per_s={
                name: float(rate)
                for name, rate in zip(table.counter_names, table.rates_per_s[i])
                if not math.isnan(rate)
            },
        )
        for i in range(len(table))
    ]


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


#: Valid values of the ``on_*`` merge-consistency modes.
_MODES = ("raise", "record", "ignore")


class MergedPhase:
    """One phase of one experiment, merged across counter-group runs."""

    def __init__(
        self,
        workload: str,
        suite: str,
        frequency_mhz: int,
        threads: int,
        phase_name: str,
        active_threads: int,
    ) -> None:
        self.workload = workload
        self.suite = suite
        self.frequency_mhz = frequency_mhz
        self.threads = threads
        self.phase_name = phase_name
        self.active_threads = active_threads
        self.power_samples: List[float] = []
        self.voltage_samples: List[float] = []
        self.counter_rates_per_s: Dict[str, float] = {}

    @property
    def power_w(self) -> float:
        return float(np.mean(self.power_samples))

    @property
    def voltage_v(self) -> float:
        return float(np.mean(self.voltage_samples))

    def rate_per_cycle(self, counter: str) -> float:
        return self.counter_rates_per_s[counter] / (self.frequency_mhz * 1e6)


def _handle(
    mode: str, issues: Optional[List[str]], message: str
) -> None:
    if mode == "raise":
        raise ValueError(message)
    if mode == "record" and issues is not None:
        issues.append(message)


def merge_runs(
    profiles: Sequence[PhaseProfile],
    *,
    on_phase_mismatch: str = "raise",
    on_counter_disagreement: str = "raise",
    issues: Optional[List[str]] = None,
) -> List[MergedPhase]:
    """Merge phase profiles from all runs of one or more experiments.

    Fixed counters appear in every run; their rate is averaged across
    runs.  Programmable counters appear once (their scheduled run).

    Consistency handling (each mode is one of ``"raise"``/``"record"``/
    ``"ignore"``; recorded messages are appended to ``issues``):

    * ``on_phase_mismatch`` — runs of the same experiment carry
      different phase sets, so some merged phases are missing that
      run's counter contribution;
    * ``on_counter_disagreement`` — the same counter recorded twice
      with wildly inconsistent values (> 25 % spread) — broken
      campaign, not run-to-run noise.  In non-raise modes the mean is
      kept.
    """
    for name, mode in (
        ("on_phase_mismatch", on_phase_mismatch),
        ("on_counter_disagreement", on_counter_disagreement),
    ):
        if mode not in _MODES:
            raise ValueError(f"{name} must be one of {_MODES}, got {mode!r}")

    buckets: Dict[tuple, MergedPhase] = {}
    # Per merged phase: counter -> its one rate, or the list of rates
    # once a second run recorded it.
    counter_acc: Dict[tuple, Dict[str, object]] = {}
    # experiment key -> run_index -> phase names seen in that run
    run_phases: Dict[tuple, Dict[int, Set[str]]] = defaultdict(
        lambda: defaultdict(set)
    )
    for p in profiles:
        key = (p.workload, p.frequency_mhz, p.threads, p.phase_name)
        run_phases[(p.workload, p.frequency_mhz, p.threads)][p.run_index].add(
            p.phase_name
        )
        if key not in buckets:
            buckets[key] = MergedPhase(
                workload=p.workload,
                suite=p.suite,
                frequency_mhz=p.frequency_mhz,
                threads=p.threads,
                phase_name=p.phase_name,
                active_threads=p.active_threads,
            )
        merged = buckets[key]
        if p.active_threads != merged.active_threads:
            raise ValueError(
                f"{key}: inconsistent active thread counts across runs "
                f"({p.active_threads} vs {merged.active_threads})"
            )
        merged.power_samples.append(p.power_w)
        merged.voltage_samples.append(p.voltage_v)
        acc = counter_acc.setdefault(key, {})
        for counter, rate in p.counter_rates_per_s.items():
            seen = acc.get(counter)
            if seen is None:
                acc[counter] = rate
            elif type(seen) is list:
                seen.append(rate)
            else:
                acc[counter] = [seen, rate]

    if on_phase_mismatch != "ignore":
        for exp_key, by_run in sorted(run_phases.items()):
            if len(by_run) < 2:
                continue
            union: Set[str] = set().union(*by_run.values())
            gaps = []
            for run_index in sorted(by_run):
                missing = union - by_run[run_index]
                if missing:
                    gaps.append(
                        f"run {run_index} missing {sorted(missing)}"
                    )
            if gaps:
                workload, frequency_mhz, threads = exp_key
                _handle(
                    on_phase_mismatch,
                    issues,
                    f"experiment {workload}@{frequency_mhz}MHz/{threads}t: "
                    f"phase sets differ across runs ({'; '.join(gaps)}) — "
                    f"affected phases lack those runs' counter rates",
                )

    for key, merged in buckets.items():
        for counter, values in counter_acc[key].items():
            if type(values) is not list:
                # Mean of one sample is the sample: programmable
                # counters appear in exactly one event-set run, and
                # skipping the ndarray round-trip here removes the
                # dominant per-counter cost of a merge.
                merged.counter_rates_per_s[counter] = values
                continue
            arr = np.asarray(values)
            mean = float(arr.mean())
            if len(values) > 1 and mean > 0:
                spread = float(arr.max() - arr.min()) / mean
                if spread > 0.25:
                    _handle(
                        on_counter_disagreement,
                        issues,
                        f"{key}: counter {counter} disagrees across runs "
                        f"by {spread:.0%} — inconsistent campaign",
                    )
            merged.counter_rates_per_s[counter] = mean
    return list(buckets.values())


def build_dataset(
    merged: Sequence[MergedPhase],
    *,
    require_complete: bool = True,
    counter_names: Optional[Sequence[str]] = None,
) -> PowerDataset:
    """Assemble the regression dataset from merged phases.

    ``counter_names`` selects the dataset columns (default: all 54
    paper counters) — the degradation path passes the covered subset.
    With ``require_complete`` (default) every phase must carry all
    selected counters; otherwise incomplete phases are dropped.
    """
    names: Tuple[str, ...] = (
        tuple(counter_names) if counter_names is not None else COUNTER_NAMES
    )
    if not names:
        raise ValueError("need at least one counter column")
    rows = []
    for m in merged:
        missing = [c for c in names if c not in m.counter_rates_per_s]
        if missing:
            if require_complete:
                raise ValueError(
                    f"phase {m.phase_name!r} of {m.workload!r} is missing "
                    f"{len(missing)} counters (e.g. {missing[:3]})"
                )
            continue
        rows.append(m)
    if not rows:
        raise ValueError("no complete phases to build a dataset from")
    counters = np.array([[m.rate_per_cycle(c) for c in names] for m in rows])
    return PowerDataset(
        counters=counters,
        power_w=np.array([m.power_w for m in rows]),
        voltage_v=np.array([m.voltage_v for m in rows]),
        frequency_mhz=np.array([m.frequency_mhz for m in rows], dtype=np.float64),
        threads=np.array([m.threads for m in rows], dtype=np.int64),
        workloads=tuple(m.workload for m in rows),
        suites=tuple(m.suite for m in rows),
        phase_names=tuple(m.phase_name for m in rows),
        counter_names=names,
    )


# ---------------------------------------------------------------------------
# swap-in
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def scalar_acquisition():
    """Run acquisition on the scalar oracle inside the ``with`` block.

    Patches ``Platform.execute``, ``ScorePTracer.trace`` (single runs
    and blocks) and the module-level ``profile_trace`` and
    ``profile_block`` that both phase-profile generators call (their
    scalar profiles converted to the production table).
    Everything is restored on exit.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Platform, "execute", scalar_execute)
        mp.setattr(ScorePTracer, "trace", scalar_trace)
        mp.setattr(
            phases_module,
            "profile_trace",
            lambda trace, **kw: profile_table([scalar_profile_trace(trace, **kw)]),
        )
        mp.setattr(phases_module, "profile_block", scalar_profile_block)
        yield
