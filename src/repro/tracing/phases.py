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

from dataclasses import dataclass, fields
from itertools import accumulate, chain, compress
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.tracing.otf2 import Trace, TraceBlock
from repro.tracing.plugins import ApapiPlugin, PowerPlugin, VoltagePlugin

__all__ = [
    "PhaseTable",
    "profile_trace",
    "profile_block",
    "haecsim_profiles",
    "postprocess_profiles",
]


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Phase profiles of a sequence of runs, as columns.

    One row per kept phase window: the run's identification, the
    window, the window means of power and voltage, and a
    ``(rows, counters)`` matrix of mean recorded PMC rates in
    events/second, NaN where the run did not record the counter.  Run
    ``r`` owns rows ``run_offsets[r]:run_offsets[r + 1]`` (empty when
    every window of the run was dropped), its windows in phase order.
    """

    workloads: Tuple[str, ...]
    suites: Tuple[str, ...]
    frequency_mhz: np.ndarray
    threads: np.ndarray
    run_index: np.ndarray
    phase_names: Tuple[str, ...]
    start_s: np.ndarray
    end_s: np.ndarray
    active_threads: np.ndarray
    power_w: np.ndarray
    voltage_v: np.ndarray
    counter_names: Tuple[str, ...]
    rates_per_s: np.ndarray
    run_offsets: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.phase_names)

    @staticmethod
    def gather(parts: Sequence[Tuple["PhaseTable", int, int]]) -> "PhaseTable":
        """Row ranges ``(table, lo, hi)`` of tables, in order, as one
        table whose runs are the ranges.  Its counters are the union of
        the tables' counters, in first-seen order."""
        tables = list({id(t): t for t, _, _ in parts}.values())
        base = dict(zip(map(id, tables), accumulate((len(t) for t in tables), initial=0)))
        lengths = [hi - lo for _, lo, hi in parts]
        offsets = list(accumulate(lengths, initial=0))
        # Row k of the result, in range r, is row starts[r] + k of the
        # tables stacked.
        starts = [base[id(t)] + lo - off for (t, lo, _), off in zip(parts, offsets)]
        rows = np.repeat(np.array(starts, dtype=np.int64), lengths) + np.arange(offsets[-1])
        names = tuple(dict.fromkeys(chain.from_iterable(t.counter_names for t in tables)))
        column = {name: j for j, name in enumerate(names)}
        rates = np.full((rows.size, len(names)), np.nan)
        source = np.repeat(np.arange(len(tables)), [len(t) for t in tables])[rows]
        by_table = np.argsort(source, kind="stable")
        bounds = [0, *np.cumsum(np.bincount(source, minlength=len(tables))).tolist()]
        for t, table in enumerate(tables):
            dst = by_table[bounds[t] : bounds[t + 1]]
            cols = [column[name] for name in table.counter_names]
            rates[dst[:, None], cols] = table.rates_per_s[rows[dst] - base[id(table)]]
        picked = rows.tolist()

        def stacked(name: str):
            parts = [getattr(t, name) for t in tables]
            if name in ("workloads", "suites", "phase_names"):
                return tuple(map(list(chain.from_iterable(parts)).__getitem__, picked))
            return np.concatenate(parts or [np.zeros(0)])[rows]

        return PhaseTable(
            *map(stacked, _ROW_COLUMNS),
            counter_names=names,
            rates_per_s=rates,
            run_offsets=tuple(offsets),
        )


#: The per-row columns of a :class:`PhaseTable` besides the rate matrix.
_ROW_COLUMNS = tuple(f.name for f in fields(PhaseTable))[:-3]


Traced = Union[Trace, TraceBlock]

#: A run's identification: (workload, suite, frequency, threads, run index).
RunKey = Tuple[str, str, int, int, int]


def _run_key(meta) -> RunKey:
    """(workload, suite, frequency, threads, run index) of a run."""
    try:
        return (
            str(meta["workload"]),
            str(meta["suite"]),
            int(meta["frequency_mhz"]),
            int(meta["threads"]),
            int(meta["run_index"]),
        )
    except KeyError as exc:
        raise ValueError(f"trace metadata missing {exc.args[0]!r}") from None


def _kept_windows(intervals, min_duration_s: float):
    """The phase intervals long enough to profile, in order, as
    (names, starts, ends, active threads) columns."""
    kept = [w for w in intervals if not w[2] - w[1] < min_duration_s]
    if any(end < start for _, start, end, _ in kept):
        raise ValueError("window end before start")
    names, starts, ends, active = zip(*kept) if kept else ((), (), (), ())
    return (
        names,
        np.array(starts, dtype=np.float64),
        np.array(ends, dtype=np.float64),
        np.array(active, dtype=np.int64),
    )


#: Kept windows and their sample bounds, keyed by a run's phase
#: intervals, the identity of its sample grid and the cutoff.  Every
#: event-set run of an experiment carries equal intervals and shares
#: one grid (``tracing.scorep._sample_grids``), so the windows of an
#: experiment are found once, not once per run.  An entry holds its
#: grid, which keeps the grid's ``id`` from being reused while cached.
_WINDOW_CACHE: Dict[tuple, tuple] = {}
_WINDOW_CACHE_CAPACITY = 512


def _run_windows(intervals, times: np.ndarray, min_duration_s: float):
    """(names, starts, ends, active threads, lo, hi) of a run's kept
    windows, ``lo``/``hi`` the sample bounds of each window in
    ``times``."""
    key = (intervals, id(times), min_duration_s)
    hit = _WINDOW_CACHE.get(key)
    if hit is not None:
        return hit[1]
    kept = _kept_windows(intervals, min_duration_s)
    windows = (*kept, *(np.searchsorted(times, edge, side="left") for edge in kept[1:3]))
    if len(_WINDOW_CACHE) >= _WINDOW_CACHE_CAPACITY:
        _WINDOW_CACHE.pop(next(iter(_WINDOW_CACHE)))
    _WINDOW_CACHE[key] = (times, windows)
    return windows


def _window_means(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of ``values[:, lo[k]:hi[k]]`` for every window ``k``.

    Windows of equal length are copied side by side into one
    C-contiguous ``(rows, windows, length)`` array (one slice per
    window, so the copy moves whole runs of samples) and reduced over
    its last axis: ``np.add.reduce`` sums a contiguous last axis
    pairwise exactly as it sums a 1-D slice, so each mean is
    bit-identical to the per-stream ``window_mean`` of the acquisition
    oracle (``tests/oracles/acquisition.py``).  (A non-contiguous
    view, such as a strided window, could be summed in another order.)
    Empty windows give NaN.
    """
    out = np.full((values.shape[0], lo.size), np.nan)
    starts = lo.tolist()
    by_length: Dict[int, List[int]] = {}
    for k, n in enumerate((hi - lo).tolist()):
        if n > 0:
            by_length.setdefault(n, []).append(k)
    for n, sel in by_length.items():
        gathered = np.concatenate(
            [values[:, starts[k] : starts[k] + n] for k in sel], axis=1
        ).reshape(values.shape[0], len(sel), n)
        out[:, sel] = np.add.reduce(gathered, axis=2) / n
    return out


def _table(runs: Sequence[RunKey], windows, names, means: np.ndarray) -> PhaseTable:
    """The table of ``runs``, given each run's kept windows (as
    :func:`_run_windows` returns them) and ``means[m, k]``, the mean of
    metric ``names[m]`` over window ``k`` of the runs in order.
    Windows without a power or voltage mean are dropped."""
    if PowerPlugin.METRIC not in names or VoltagePlugin.METRIC not in names:
        raise ValueError("trace lacks power/voltage metric streams")
    power = names.index(PowerPlugin.METRIC)
    voltage = names.index(VoltagePlugin.METRIC)
    keep = ~np.isnan(means[[power, voltage]]).any(axis=0)
    if not keep.all():
        ends = accumulate(len(w[0]) for w in windows)
        kept = [keep[end - len(w[0]) : end] for w, end in zip(windows, ends)]
        windows = [
            (tuple(compress(w[0], k)), *(c[k] for c in w[1:4]))
            for w, k in zip(windows, kept)
        ]
        means = means[:, keep]
    prefix = ApapiPlugin.PREFIX
    papi = [m for m, name in enumerate(names) if name.startswith(prefix)]
    counts = [len(w[0]) for w in windows]
    ints = np.repeat(np.array([key[2:] for key in runs], dtype=np.int64), counts, axis=0)
    return PhaseTable(
        workloads=tuple(chain.from_iterable([k[0]] * n for k, n in zip(runs, counts))),
        suites=tuple(chain.from_iterable([k[1]] * n for k, n in zip(runs, counts))),
        frequency_mhz=ints[:, 0],
        threads=ints[:, 1],
        run_index=ints[:, 2],
        phase_names=tuple(chain.from_iterable(w[0] for w in windows)),
        start_s=np.concatenate([w[1] for w in windows]),
        end_s=np.concatenate([w[2] for w in windows]),
        active_threads=np.concatenate([w[3] for w in windows]),
        power_w=means[power],
        voltage_v=means[voltage],
        counter_names=tuple(names[m][len(prefix) :] for m in papi),
        rates_per_s=np.ascontiguousarray(means[papi].T),
        run_offsets=tuple(accumulate(counts, initial=0)),
    )


def profile_trace(trace: Trace, *, min_duration_s: float = 0.5) -> PhaseTable:
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
    run = _run_key(trace.meta)
    names = list(trace.metrics)
    windows = _kept_windows(trace.phase_intervals(), min_duration_s)
    _, starts, ends, _ = windows
    groups: Dict[int, List[int]] = {}
    for m, name in enumerate(names):
        groups.setdefault(id(trace.metrics[name].times_s), []).append(m)
    means = np.empty((len(names), starts.size))
    for rows in groups.values():
        times = trace.metrics[names[rows[0]]].times_s
        values = np.stack([trace.metrics[names[m]].values for m in rows])
        bounds = (np.searchsorted(times, edge, side="left") for edge in (starts, ends))
        means[rows] = _window_means(values, *bounds)
    return _table([run], [windows], names, means)


def profile_block(block: TraceBlock, *, min_duration_s: float = 0.5) -> PhaseTable:
    """Phase profiles of every run of a block, in run order, from one
    window-mean pass over the block's stacked samples (see
    :func:`profile_trace` for the per-run semantics)."""
    runs = [_run_key(meta) for meta in block.metas]
    windows = [
        _run_windows(intervals, times, min_duration_s)
        for intervals, times in zip(block.intervals, block.times)
    ]
    counts = [len(w[0]) for w in windows]
    shift = np.repeat(block.offsets[:-1], counts)
    lo = np.concatenate([w[4] for w in windows]) + shift
    hi = np.concatenate([w[5] for w in windows]) + shift
    names = [mdef.name for mdef in block.defs]
    return _table(runs, windows, names, _window_means(block.values, lo, hi))


def _profiles(traced: Traced) -> PhaseTable:
    if isinstance(traced, TraceBlock):
        return profile_block(traced)
    return profile_trace(traced)


def haecsim_profiles(traced: Traced) -> PhaseTable:
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


def postprocess_profiles(traced: Traced) -> PhaseTable:
    """Custom OTF2 post-processing for standardized benchmark traces
    (one trace, or every run of a block)."""
    return _profiles(traced)
