"""Post-processing: merging multi-run profiles into a dataset.

"Multiple runs of the same application are required due to the hardware
limitation on simultaneous recording of multiple PAPI counters. […]
Following data acquisition, the data from multiple runs is processed to
calculate average power and voltage across all runs.  Furthermore, the
phase profiles from multiple runs are combined together" (Section
III-A).

:func:`merge_runs` performs exactly that merge on a
:class:`~repro.tracing.phases.PhaseTable`: phases are matched by name
across the runs of one experiment, power/voltage are averaged over all
runs, and each run contributes the counters its PMU event set was
programmed with.

Because real campaigns lose runs (see :mod:`repro.faults`), the merge
records two consistency problems as issues instead of raising: a
**phase-set mismatch** (runs of one experiment disagree on which phases
exist, so merged phases lack the missing runs' counter rates) and a
**counter disagreement** (one counter recorded twice with wildly
inconsistent values: broken multiplexing).  Runs that disagree on a
phase's active thread count are not one experiment; that stays a
``ValueError``.

:func:`counter_coverage` makes the resulting holes explicit: the
fraction of merged phases carrying each counter — the coverage map the
campaign reports and degrades on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.hardware.counters import COUNTER_NAMES
from repro.tracing.phases import PhaseTable

__all__ = ["MergedPhases", "merge_runs", "counter_coverage", "build_dataset"]

#: Relative spread (max − min over the mean) beyond which two runs'
#: rates of one counter are a broken campaign, not run-to-run noise.
DISAGREEMENT_SPREAD = 0.25


@dataclass(frozen=True, eq=False)
class MergedPhases:
    """Phases merged across counter-group runs, as columns: one row per
    (workload, frequency, threads, phase) in first-seen order, with
    ``rates_per_s`` NaN where no run recorded the counter."""

    workloads: Tuple[str, ...]
    suites: Tuple[str, ...]
    frequency_mhz: np.ndarray
    threads: np.ndarray
    phase_names: Tuple[str, ...]
    active_threads: np.ndarray
    power_w: np.ndarray
    voltage_v: np.ndarray
    counter_names: Tuple[str, ...]
    rates_per_s: np.ndarray

    def __len__(self) -> int:
        return len(self.phase_names)

    def columns(self, names: Sequence[str]) -> np.ndarray:
        """``(phases, len(names))`` rates of ``names``, NaN where missing."""
        out = np.full((len(self), len(names)), np.nan)
        index = {c: j for j, c in enumerate(self.counter_names)}
        pairs = [(k, index[c]) for k, c in enumerate(names) if c in index]
        if pairs:
            dst, src = zip(*pairs)
            out[:, list(dst)] = self.rates_per_s[:, list(src)]
        return out


def merge_runs(
    table: PhaseTable, *, issues: Optional[List[str]] = None
) -> MergedPhases:
    """Merge the phase profiles of all runs of one or more experiments.

    Fixed counters appear in every run; their rate is averaged across
    runs.  Programmable counters appear once (their scheduled run) and
    are taken as recorded.  Rows are grouped by (workload, frequency,
    threads, phase), stably, so each group's values keep their run
    order, and groups of equal size are reduced together.

    Phase-set mismatches (sorted by experiment) and counter
    disagreements (> 25 % spread between runs, by phase, then by the
    row and column that first recorded the counter) are appended to
    ``issues``; the mean is kept.
    """
    frequency, threads = table.frequency_mhz.tolist(), table.threads.tolist()
    index: Dict[tuple, int] = {}
    group = np.array(
        [
            index.setdefault(key, len(index))
            for key in zip(table.workloads, frequency, threads, table.phase_names)
        ],
        dtype=np.intp,
    )
    keys = list(index)
    n_groups = len(keys)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group, minlength=n_groups)
    starts = np.cumsum(sizes) - sizes
    first = order[starts]

    active = table.active_threads
    odd = np.flatnonzero(active != active[first][group])
    if odd.size:
        i = odd[0]
        raise ValueError(
            f"{keys[group[i]]}: inconsistent active thread counts across runs "
            f"({int(active[i])} vs {int(active[first[group[i]]])})"
        )
    if issues is not None:
        issues.extend(_phase_set_gaps(table, keys, group))

    power = np.empty(n_groups)
    voltage = np.empty(n_groups)
    n_counters = len(table.counter_names)
    rates = np.full((n_groups, n_counters), np.nan)
    flagged: List[Tuple[int, int, int, float]] = []
    for size in sorted(set(sizes.tolist())):
        groups = np.flatnonzero(sizes == size)
        rows = order[starts[groups, None] + np.arange(size)]
        # np.add.reduce sums a C-contiguous last axis pairwise exactly
        # as np.mean sums a 1-D list (the trick _window_means in
        # tracing.phases documents), so every mean here is bit-identical
        # to a per-phase merge.
        power[groups] = np.add.reduce(table.power_w[rows], axis=1) / size
        voltage[groups] = np.add.reduce(table.voltage_v[rows], axis=1) / size
        # One counter at a time keeps the temporaries a column small.
        for j in range(n_counters):
            values = table.rates_per_s[rows, j]  # (groups, runs), run order
            present = ~np.isnan(values)
            count = present.sum(axis=1)
            merged = np.full(groups.size, np.nan)
            for c in (np.flatnonzero(np.bincount(count)[1:]) + 1).tolist():
                sel = np.flatnonzero(count == c)
                packed = values[sel]
                if c < size:
                    # A counter some runs lack: its values, in run order.
                    packed = packed[present[sel]].reshape(-1, c)
                merged[sel] = mean = np.add.reduce(packed, axis=1) / c
                positive = np.flatnonzero(mean > 0)
                spread = np.ptp(packed[positive], axis=1) / mean[positive]
                wide = spread > DISAGREEMENT_SPREAD
                for p, x in zip(sel[positive[wide]].tolist(), spread[wide].tolist()):
                    flagged.append((int(groups[p]), int(np.argmax(present[p])), j, x))
            rates[groups, j] = merged
    if issues is not None:
        for g, _, j, spread in sorted(flagged):
            issues.append(
                f"{keys[g]}: counter {table.counter_names[j]} disagrees across "
                f"runs by {float(spread):.0%} — inconsistent campaign"
            )
    return MergedPhases(
        workloads=tuple(key[0] for key in keys),
        suites=tuple(table.suites[i] for i in first.tolist()),
        frequency_mhz=table.frequency_mhz[first],
        threads=table.threads[first],
        phase_names=tuple(key[3] for key in keys),
        active_threads=active[first],
        power_w=power,
        voltage_v=voltage,
        counter_names=table.counter_names,
        rates_per_s=rates,
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  (A bare ``np.unique`` checks for a
    masked array, which imports ``numpy.ma`` on first use: ≈20 ms.)"""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _phase_set_gaps(
    table: PhaseTable, keys: List[tuple], group: np.ndarray
) -> List[str]:
    """One message per experiment whose runs carry different phase
    sets, sorted by experiment."""
    if not keys:
        return []
    experiment: Dict[tuple, int] = {}
    group_experiment = np.array(
        [experiment.setdefault(key[:3], len(experiment)) for key in keys],
        dtype=np.intp,
    )
    runs, run = np.unique(table.run_index, return_inverse=True)
    row_experiment = group_experiment[group]
    # An experiment is consistent when each of its phases was seen in
    # as many runs as the experiment has.
    n = runs.size
    phase_runs = np.bincount(_distinct(group * n + run) // n, minlength=len(keys))
    exp_runs = np.bincount(_distinct(row_experiment * n + run) // n)
    short = phase_runs < exp_runs[group_experiment]
    exp_keys = list(experiment)
    messages = []
    for e in sorted(set(group_experiment[short].tolist())):
        by_run: Dict[int, set] = {}
        for i in np.flatnonzero(row_experiment == e).tolist():
            by_run.setdefault(int(runs[run[i]]), set()).add(table.phase_names[i])
        union = set().union(*by_run.values())
        gaps = [
            f"run {r} missing {sorted(union - by_run[r])}"
            for r in sorted(by_run)
            if union - by_run[r]
        ]
        workload, frequency_mhz, threads = exp_keys[e]
        messages.append(
            (
                exp_keys[e],
                f"experiment {workload}@{frequency_mhz}MHz/{threads}t: "
                f"phase sets differ across runs ({'; '.join(gaps)}) — "
                f"affected phases lack those runs' counter rates",
            )
        )
    return [message for _, message in sorted(messages)]


def counter_coverage(
    merged: MergedPhases,
    counter_names: Sequence[str] = COUNTER_NAMES,
) -> Dict[str, float]:
    """Fraction of merged phases carrying each counter.

    1.0 everywhere for an intact campaign; a quarantined counter-group
    run shows up as a block of counters below 1.0.  This is the
    explicit coverage map graceful degradation decides on, instead of
    an exception.
    """
    names = tuple(counter_names)
    if not len(merged):
        return {c: 0.0 for c in names}
    share = (~np.isnan(merged.columns(names))).mean(axis=0)
    return dict(zip(names, share.tolist()))


def build_dataset(
    merged: MergedPhases,
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
    columns = merged.columns(names)
    missing = np.isnan(columns)
    incomplete = missing.any(axis=1)
    if require_complete and incomplete.any():
        i = int(np.argmax(incomplete))
        absent = [c for c, m in zip(names, missing[i].tolist()) if m]
        raise ValueError(
            f"phase {merged.phase_names[i]!r} of {merged.workloads[i]!r} is "
            f"missing {len(absent)} counters (e.g. {absent[:3]})"
        )
    rows = np.flatnonzero(~incomplete)
    if not rows.size:
        raise ValueError("no complete phases to build a dataset from")
    frequency_mhz = merged.frequency_mhz[rows].astype(np.float64)
    picked = rows.tolist()
    return PowerDataset(
        counters=columns[rows] / (frequency_mhz[:, None] * 1e6),
        power_w=merged.power_w[rows],
        voltage_v=merged.voltage_v[rows],
        frequency_mhz=frequency_mhz,
        threads=merged.threads[rows].astype(np.int64),
        workloads=tuple(merged.workloads[i] for i in picked),
        suites=tuple(merged.suites[i] for i in picked),
        phase_names=tuple(merged.phase_names[i] for i in picked),
        counter_names=names,
    )
