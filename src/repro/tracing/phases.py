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
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.tracing.otf2 import Trace, TraceBlock
from repro.tracing.plugins import ApapiPlugin, PowerPlugin, VoltagePlugin

__all__ = [
    "PhaseProfile",
    "profile_trace",
    "profile_block",
    "haecsim_profiles",
    "postprocess_profiles",
]


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


Traced = Union[Trace, TraceBlock]


def _run_fields(meta) -> Tuple[str, str, int, int, int]:
    """(workload, suite, frequency, threads, run index) of a run."""
    for key in ("workload", "suite", "frequency_mhz", "threads", "run_index"):
        if key not in meta:
            raise ValueError(f"trace metadata missing {key!r}")
    return (
        str(meta["workload"]),
        str(meta["suite"]),
        int(meta["frequency_mhz"]),
        int(meta["threads"]),
        int(meta["run_index"]),
    )


def _kept_windows(intervals, min_duration_s: float):
    """The phase intervals long enough to profile, in order."""
    kept = []
    for interval in intervals:
        _, start, end, _ = interval
        if end - start < min_duration_s:
            continue
        if end < start:
            raise ValueError("window end before start")
        kept.append(interval)
    return kept


def _window_means(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of ``values[:, lo[k]:hi[k]]`` for every window ``k``.

    Windows of equal length are gathered into one C-contiguous
    ``(rows, windows, length)`` array and reduced over its last axis:
    ``np.add.reduce`` sums a contiguous last axis pairwise exactly as
    it sums a 1-D slice, so each mean is bit-identical to the
    per-stream ``window_mean`` of the acquisition oracle
    (``tests/oracles/acquisition.py``).  (A
    non-contiguous gather, such as ``values[:, index]``, would be
    summed in another order.)  Empty windows give NaN.
    """
    out = np.full((values.shape[0], lo.size), np.nan)
    lengths = hi - lo
    for n in set(lengths.tolist()):
        if n <= 0:
            continue
        sel = np.flatnonzero(lengths == n)
        gathered = np.take(values, lo[sel, None] + np.arange(n), axis=1)
        out[:, sel] = np.add.reduce(gathered, axis=2) / n
    return out


def _assemble(windows, names, means: np.ndarray) -> List[PhaseProfile]:
    """Profiles from per-window means, ``means[m, k]`` of metric
    ``names[m]`` over window ``k`` = (run fields, region, start, end,
    active threads).  Windows without a power or voltage mean are
    dropped, as are counters without a mean."""
    if PowerPlugin.METRIC not in names or VoltagePlugin.METRIC not in names:
        raise ValueError("trace lacks power/voltage metric streams")
    power_w = means[names.index(PowerPlugin.METRIC)].tolist()
    voltage_v = means[names.index(VoltagePlugin.METRIC)].tolist()
    prefix = ApapiPlugin.PREFIX
    papi = [m for m, name in enumerate(names) if name.startswith(prefix)]
    counters = [names[m][len(prefix) :] for m in papi]
    rates_by_window = means[papi].T.tolist()
    out: List[PhaseProfile] = []
    for k, (run, region, start, end, active) in enumerate(windows):
        p, v = power_w[k], voltage_v[k]
        if math.isnan(p) or math.isnan(v):
            continue
        out.append(
            PhaseProfile(
                *run,
                phase_name=region,
                start_s=start,
                end_s=end,
                active_threads=active,
                power_w=p,
                voltage_v=v,
                counter_rates_per_s={
                    c: r
                    for c, r in zip(counters, rates_by_window[k])
                    if not math.isnan(r)
                },
            )
        )
    return out


def profile_trace(trace: Trace, *, min_duration_s: float = 0.5) -> List[PhaseProfile]:
    """Phase profiles of every sufficiently long region of a trace.

    Phases shorter than ``min_duration_s`` carry too few async samples
    for stable averages and are dropped, as the original tooling did.

    Each profile value is the window mean of a metric stream over the
    phase interval.  Streams are grouped by their times array
    (identity, not equality): the tracer gives every stream of a run
    the *same* one, so a clean trace is the block-of-one case of
    :func:`profile_block`, while streams with their own grid (e.g.
    fault-corrupted copies) get their own window bounds.
    """
    run = _run_fields(trace.meta)
    names = list(trace.metrics)
    windows = _kept_windows(trace.phase_intervals(), min_duration_s)
    starts = np.array([w[1] for w in windows], dtype=np.float64)
    ends = np.array([w[2] for w in windows], dtype=np.float64)
    groups: Dict[int, List[int]] = {}
    for m, name in enumerate(names):
        groups.setdefault(id(trace.metrics[name].times_s), []).append(m)
    means = np.empty((len(names), len(windows)))
    for rows in groups.values():
        times = trace.metrics[names[rows[0]]].times_s
        values = np.stack([trace.metrics[names[m]].values for m in rows])
        means[rows] = _window_means(
            values,
            np.searchsorted(times, starts, side="left"),
            np.searchsorted(times, ends, side="left"),
        )
    return _assemble([(run, *w) for w in windows], names, means)


def profile_block(
    block: TraceBlock, *, min_duration_s: float = 0.5
) -> List[PhaseProfile]:
    """Phase profiles of every run of a block, in run order, from one
    window-mean pass over the block's stacked samples (see
    :func:`profile_trace` for the per-run semantics)."""
    windows = []
    bounds = []
    for meta, intervals, times, offset in zip(
        block.metas, block.intervals, block.times, block.offsets
    ):
        run = _run_fields(meta)
        kept = _kept_windows(intervals, min_duration_s)
        windows.extend((run, *w) for w in kept)
        edges = [w[1] for w in kept] + [w[2] for w in kept]
        # Row 0 the window starts, row 1 the ends, as block columns.
        bounds.append(
            np.searchsorted(times, edges, side="left").reshape(2, -1) + offset
        )
    lo, hi = np.concatenate(bounds, axis=1)
    names = [mdef.name for mdef in block.defs]
    return _assemble(windows, names, _window_means(block.values, lo, hi))


def _profiles(traced: Traced) -> List[PhaseProfile]:
    if isinstance(traced, TraceBlock):
        return profile_block(traced)
    return profile_trace(traced)


def haecsim_profiles(traced: Traced) -> List[PhaseProfile]:
    """HAEC-SIM-style profiles for roco2 kernel traces (one trace, or
    every run of a block).

    Validates the roco2 invariant the HAEC-SIM module relied on:
    homogeneous kernels, i.e. a flat sequence of non-overlapping
    phases with constant thread count within each phase.
    """
    if isinstance(traced, TraceBlock):
        runs = zip(traced.metas, traced.intervals)
    else:
        runs = [(traced.meta, traced.phase_intervals())]
    for meta, intervals in runs:
        if meta.get("suite") not in ("roco2", "synthetic"):
            raise ValueError(
                "haecsim_profiles is only applicable to synthetic kernel "
                f"traces; got suite={meta.get('suite')!r}"
            )
        for (_, _, prev_end, _), (_, next_start, _, _) in zip(
            intervals, intervals[1:]
        ):
            if next_start < prev_end - 1e-9:
                raise ValueError("roco2 phases must not overlap")
    return _profiles(traced)


def postprocess_profiles(traced: Traced) -> List[PhaseProfile]:
    """Custom OTF2 post-processing for standardized benchmark traces
    (one trace, or every run of a block)."""
    return _profiles(traced)
