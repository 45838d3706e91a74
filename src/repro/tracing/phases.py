"""Phase-profile generation from traces.

"The resulting phase profile contains the start and end time, the
average over time for each async metric, the average value of the
recorded PMC values, the number of active threads, and the
identification of the application" (Section III-A).

Two generators existed in the original pipeline — a HAEC-SIM module
for the roco2 kernel traces and "a custom python OTF2 post-processing
tool" for standardized benchmarks.  Both reduce to the same windowed
aggregation; we provide both entry points with the validation each
tool performed (HAEC-SIM insisted on homogeneous single-kernel phases),
sharing one engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.tracing.otf2 import Trace
from repro.tracing.plugins import ApapiPlugin, PowerPlugin, VoltagePlugin

__all__ = ["PhaseProfile", "profile_trace", "haecsim_profiles", "postprocess_profiles"]


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


def profile_trace(trace: Trace, *, min_duration_s: float = 0.5) -> List[PhaseProfile]:
    """Phase profiles of every sufficiently long region of a trace.

    Phases shorter than ``min_duration_s`` carry too few async samples
    for stable averages and are dropped, as the original tooling did.

    Each profile value is the window mean of a metric stream over the
    phase interval.  The tracer gives every stream of a trace the
    *same* times array, so window bounds are computed once on the
    power stream and shared with every stream whose times array *is*
    that object (identity, not equality — streams with their own grid,
    e.g. fault-corrupted copies, recompute honestly).  ``np.add.reduce``
    is ``ndarray.mean``'s own pairwise summation without the method
    dispatch, so each mean is bit-identical to
    :meth:`~repro.tracing.otf2.MetricStream.window_mean`.
    """
    meta = trace.meta
    for key in ("workload", "suite", "frequency_mhz", "threads", "run_index"):
        if key not in meta:
            raise ValueError(f"trace metadata missing {key!r}")
    power_metric = trace.metrics.get(PowerPlugin.METRIC)
    voltage_metric = trace.metrics.get(VoltagePlugin.METRIC)
    if power_metric is None or voltage_metric is None:
        raise ValueError("trace lacks power/voltage metric streams")

    workload = str(meta["workload"])
    suite = str(meta["suite"])
    frequency_mhz = int(meta["frequency_mhz"])
    threads = int(meta["threads"])
    run_index = int(meta["run_index"])
    prefix = ApapiPlugin.PREFIX
    prefix_len = len(prefix)
    papi = [
        (name[prefix_len:], m.times_s, m.values)
        for name, m in trace.metrics.items()
        if name.startswith(prefix)
    ]
    p_times, p_values = power_metric.times_s, power_metric.values
    v_times, v_values = voltage_metric.times_s, voltage_metric.values
    nan = float("nan")
    searchsorted = np.searchsorted
    reduce = np.add.reduce
    out: List[PhaseProfile] = []
    for region, start, end, active in trace.phase_intervals():
        if end - start < min_duration_s:
            continue
        if end < start:
            raise ValueError("window end before start")
        lo = int(searchsorted(p_times, start, side="left"))
        hi = int(searchsorted(p_times, end, side="left"))
        p = float(reduce(p_values[lo:hi]) / (hi - lo)) if hi > lo else nan
        if v_times is p_times:
            vlo, vhi = lo, hi
        else:
            vlo = int(searchsorted(v_times, start, side="left"))
            vhi = int(searchsorted(v_times, end, side="left"))
        v = float(reduce(v_values[vlo:vhi]) / (vhi - vlo)) if vhi > vlo else nan
        if math.isnan(p) or math.isnan(v):
            continue
        rates = {}
        for counter, times, values in papi:
            if times is p_times:
                clo, chi = lo, hi
            else:
                clo = int(searchsorted(times, start, side="left"))
                chi = int(searchsorted(times, end, side="left"))
            if chi <= clo:
                continue
            mean = float(reduce(values[clo:chi]) / (chi - clo))
            if not math.isnan(mean):
                rates[counter] = mean
        out.append(
            PhaseProfile(
                workload=workload,
                suite=suite,
                frequency_mhz=frequency_mhz,
                threads=threads,
                run_index=run_index,
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


def haecsim_profiles(trace: Trace) -> List[PhaseProfile]:
    """HAEC-SIM-style profiles for roco2 kernel traces.

    Validates the roco2 invariant the HAEC-SIM module relied on:
    homogeneous kernels, i.e. a flat sequence of non-overlapping
    phases with constant thread count within each phase.
    """
    if trace.meta.get("suite") not in ("roco2", "synthetic"):
        raise ValueError(
            "haecsim_profiles is only applicable to synthetic kernel traces; "
            f"got suite={trace.meta.get('suite')!r}"
        )
    intervals = trace.phase_intervals()
    ends = [e for (_, _, e, _) in intervals]
    starts = [s for (_, s, _, _) in intervals]
    for prev_end, next_start in zip(ends, starts[1:]):
        if next_start < prev_end - 1e-9:
            raise ValueError("roco2 phases must not overlap")
    return profile_trace(trace)


def postprocess_profiles(trace: Trace) -> List[PhaseProfile]:
    """Custom OTF2 post-processing for standardized benchmark traces."""
    return profile_trace(trace)
