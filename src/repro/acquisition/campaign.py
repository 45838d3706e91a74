"""Measurement campaigns: the outer loop of data acquisition.

A campaign executes every (workload, frequency, thread count)
experiment the number of times the PMU scheduling demands (one run per
programmable counter group), traces each run with the Score-P plugins,
extracts phase profiles, and merges everything into a
:class:`~repro.acquisition.dataset.PowerDataset`.

This is the simulated equivalent of the multi-day measurement sessions
behind the paper's Section IV, and multi-day sessions on production
hardware are lossy.  :class:`Campaign` is therefore one fault-tolerant
loop: runs are traced and profiled in blocks, every trace passes the
acquisition watchdog, a failed run is retried alone with bounded
backoff and quarantined once its attempts run out, completed cells are
checkpointed through
:class:`~repro.acquisition.checkpoint.CampaignCheckpoint`, and the
merge degrades to a partial dataset with an explicit per-counter
coverage map.  Every outcome is accounted for in a structured
:class:`CampaignReport`.

With an empty :class:`~repro.faults.plan.FaultPlan` the loop is the
paper's campaign.  :func:`run_campaign` is its all-or-nothing form (the
behaviour of the original tooling): it returns the dataset of a clean
campaign and raises the first failure of any other.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.acquisition.checkpoint import CampaignCheckpoint, cell_id
from repro.acquisition.dataset import PowerDataset
from repro.audit.framework import AuditReport
from repro.acquisition.postprocess import build_dataset, counter_coverage, merge_runs
from repro.faults.errors import AcquisitionError, FaultError, RunFailure
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import screen_block, validate_profiles, validate_trace
from repro.hardware.counters import COUNTER_NAMES
from repro.hardware.platform import Platform, RunExecution
from repro.hardware.pmu import EventSet, schedule_events
from repro.timing import StageTimer, TimingReport
from repro.tracing.phases import PhaseTable, haecsim_profiles, postprocess_profiles
from repro.tracing.plugins import (
    ApapiPlugin,
    MultiplexedApapiPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.scorep import ScorePTracer, check_sampling_interval
from repro.workloads.base import Workload

__all__ = [
    "BLOCK_SAMPLES",
    "CampaignPlan",
    "Campaign",
    "RetryPolicy",
    "CampaignCell",
    "CampaignReport",
    "CampaignResult",
    "run_campaign",
    "run_resilient_campaign",
]

ProgressFn = Callable[[str], None]


def _call_progress(
    progress: Optional[ProgressFn],
    message: str,
    errors: Optional[List[str]] = None,
) -> None:
    """Invoke a progress observer without letting it kill acquisition.

    A campaign observer is telemetry, not control flow: a buggy one
    must never abort a multi-day measurement session.  Its exception is
    recorded (``errors`` and a ``RuntimeWarning``) and acquisition
    continues.  ``BaseException`` — ``KeyboardInterrupt`` above all —
    still propagates: an operator interrupt delivered through an
    observer must stop the campaign (checkpoint/resume covers it).
    """
    if progress is None:
        return
    try:
        progress(message)
    except Exception as exc:
        note = f"progress hook raised {type(exc).__name__}: {exc}"
        if errors is not None:
            errors.append(note)
        warnings.warn(note, RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class CampaignPlan:
    """What a campaign will measure."""

    workloads: Tuple[Workload, ...]
    frequencies_mhz: Tuple[int, ...]
    events: Tuple[str, ...] = COUNTER_NAMES
    sampling_interval_s: float = 0.1
    thread_counts_override: Optional[Tuple[int, ...]] = None
    """If set, used for every workload instead of its defaults."""
    multiplexing: str = "multi-run"
    """``multi-run`` (the paper's approach: one run per PMU counter
    group) or ``time-division`` (single run, counters rotated through
    the slots — cheaper but noisier)."""

    def experiments(self) -> List[Tuple[Workload, int, int]]:
        """All (workload, frequency, threads) combinations."""
        out = []
        for w in self.workloads:
            threads_list = self.thread_counts_override or w.default_thread_counts
            for f in self.frequencies_mhz:
                for t in threads_list:
                    out.append((w, f, t))
        return out

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if not self.frequencies_mhz:
            raise ValueError("campaign needs at least one frequency")
        check_sampling_interval(self.sampling_interval_s)
        # A repeated entry would execute, and merge, every run twice.
        for label, entries in (
            ("workload", [w.name for w in self.workloads]),
            ("frequency", self.frequencies_mhz),
            ("thread count", self.thread_counts_override or ()),
            ("event", self.events),
        ):
            seen = set()
            for entry in entries:
                if entry in seen:
                    raise ValueError(f"campaign plan repeats {label} {entry!r}")
                seen.add(entry)
        if self.multiplexing not in ("multi-run", "time-division"):
            raise ValueError(
                f"multiplexing must be 'multi-run' or 'time-division', "
                f"got {self.multiplexing!r}"
            )


@dataclass(frozen=True)
class CampaignCell:
    """One run of one experiment — the unit of retry and checkpointing."""

    workload: Workload
    frequency_mhz: int
    threads: int
    run_index: int
    event_set: Optional[EventSet]
    """``None`` in time-division mode (all events, one multiplexed run)."""

    @property
    def key(self) -> Tuple[str, int, int, int]:
        return (
            self.workload.name,
            self.frequency_mhz,
            self.threads,
            self.run_index,
        )

    def describe(self) -> str:
        return (
            f"{self.workload.name}@{self.frequency_mhz}MHz/"
            f"{self.threads}t#{self.run_index}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for failed runs."""

    max_attempts: int = 3
    """Total attempts per cell before quarantine (an integer ≥ 1)."""
    backoff_base_s: float = 0.0
    """Delay before the first retry; 0 disables sleeping entirely
    (the right setting for simulated campaigns and tests)."""
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_attempts, bool)
            or not isinstance(self.max_attempts, numbers.Integral)
            or self.max_attempts < 1
        ):
            raise ValueError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        for name in ("backoff_base_s", "backoff_max_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if not (math.isfinite(self.backoff_factor) and self.backoff_factor >= 1.0):
            raise ValueError(
                f"backoff_factor must be finite and >= 1, "
                f"got {self.backoff_factor!r}"
            )

    def delay_s(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        if self.backoff_base_s <= 0.0:
            return 0.0
        try:
            growth = self.backoff_factor**attempt
        except OverflowError:
            growth = math.inf
        return min(self.backoff_base_s * growth, self.backoff_max_s)


@dataclass(frozen=True)
class CampaignReport:
    """Structured account of what a campaign went through."""

    total_cells: int
    completed_cells: int
    resumed_cells: int
    """Cells restored from the checkpoint instead of re-executed."""
    retries: int
    """Extra attempts beyond the first, summed over all cells."""
    total_backoff_s: float
    faults_observed: Mapping[str, int]
    """Fault kind → occurrence count, over all attempts."""
    quarantined: Tuple[Tuple[str, str], ...]
    """(cell description, last error) for cells that exhausted retries,
    in cell order."""
    merge_issues: Tuple[str, ...]
    """Recorded post-processing inconsistencies (phase-set mismatches,
    counter disagreements)."""
    counter_coverage: Mapping[str, float]
    """Fraction of merged phases carrying each requested counter."""
    dropped_counters: Tuple[str, ...]
    """Counters excluded from the dataset for insufficient coverage."""
    degraded_phases: int
    """Merged phases dropped for missing one of the kept counters."""
    hook_errors: Tuple[str, ...] = ()
    """Exceptions raised by progress/observer hooks and survived.  A
    bad observer never aborts acquisition (it is telemetry, not control
    flow) but the campaign accounts for the breakage."""
    timing: Optional[TimingReport] = None
    """Per-stage wall time (monotonic clock).  Excluded from bit-identity
    comparisons — wall time legitimately differs between runs."""
    audit: Optional[AuditReport] = None
    """Statistical-rigor verdict over the acquisition provenance
    (:mod:`repro.audit` rule AU010): faults, quarantines and coverage
    degradation roll up into ``audit.verdict``."""

    @property
    def clean(self) -> bool:
        """True when the campaign saw no faults and degraded nothing."""
        return (
            self.retries == 0
            and not self.faults_observed
            and not self.quarantined
            and not self.merge_issues
            and not self.dropped_counters
            and self.degraded_phases == 0
        )

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"campaign cells: {self.completed_cells}/{self.total_cells} "
            f"completed ({self.resumed_cells} resumed from checkpoint)",
            f"retries: {self.retries} "
            f"(total backoff {self.total_backoff_s:.1f} s)",
        ]
        if self.faults_observed:
            counts = ", ".join(
                f"{kind}×{n}" for kind, n in sorted(self.faults_observed.items())
            )
            lines.append(f"faults observed: {counts}")
        if self.quarantined:
            lines.append(f"quarantined cells ({len(self.quarantined)}):")
            lines.extend(f"  {desc}: {why}" for desc, why in self.quarantined)
        if self.merge_issues:
            lines.append(f"merge issues ({len(self.merge_issues)}):")
            lines.extend(f"  {issue}" for issue in self.merge_issues)
        if self.dropped_counters:
            lines.append(
                f"degraded: dropped counters {list(self.dropped_counters)}"
            )
        if self.degraded_phases:
            lines.append(
                f"degraded: {self.degraded_phases} phases dropped for "
                f"incomplete counter coverage"
            )
        if self.hook_errors:
            lines.append(f"hook errors survived ({len(self.hook_errors)}):")
            lines.extend(f"  {err}" for err in self.hook_errors)
        if self.clean:
            lines.append("no faults observed — clean campaign")
        if self.audit is not None and not self.audit.clean:
            lines.append(f"audit verdict: {self.audit.verdict}")
        if self.timing is not None and self.timing.stages:
            lines.append("timing:")
            lines.extend(f"  {s.describe()}" for s in self.timing.stages)
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a campaign: data plus accountability."""

    dataset: Optional[PowerDataset]
    """``None`` when nothing usable survived (all cells quarantined)."""
    report: CampaignReport
    failure: Optional[Exception] = field(default=None, compare=False, repr=False)
    """What a strict campaign dies of: the first failed cell's own
    error (in cell order), else the merge's ``ValueError``.  ``None``
    exactly when the campaign produced a complete dataset cleanly."""


class _Ledger:
    """What acquisition did to each cell, by cell index.

    Per-cell state lives in flat lists and dicts, not in an object per
    cell: a paper campaign has 5,395 cells and every one of them
    succeeds on its first attempt, so only failing cells get entries.
    """

    def __init__(self, n_cells: int) -> None:
        #: Each completed cell's rows ``(table, lo, hi)`` (or ``None``).
        self.rows: List[Optional[Tuple[PhaseTable, int, int]]] = [None] * n_cells
        self.resumed = 0
        #: Attempts made at each cell that needed more than one.
        self.attempts: Dict[int, int] = {}
        #: Fault kinds per failing cell, in attempt order.
        self.faults: Dict[int, List[str]] = {}
        #: Last error per failing cell.
        self.errors: Dict[int, FaultError] = {}

    def fail(self, i: int, exc: FaultError) -> None:
        self.faults.setdefault(i, []).append(exc.kind)
        self.errors[i] = exc


#: Sample budget of one acquisition block (see :meth:`Campaign.run`):
#: large enough that per-call overhead vanishes, small enough that the
#: stacked sample buffers stay cache-resident and the working set stays
#: flat.
BLOCK_SAMPLES = 4096


def _is_kernel(suite: str) -> bool:
    """Whether a run's trace goes through the HAEC-SIM module."""
    return suite in ("roco2", "synthetic")


#: A started run of a block: its cell's index and its execution.
_Member = Tuple[int, RunExecution]


class Campaign:
    """Executes a :class:`CampaignPlan` on a platform, fault-tolerantly.

    Parameters
    ----------
    faults:
        Fault plan injected during acquisition (``None`` → no injected
        faults; the watchdog still checks every trace).
    retry:
        Per-cell retry budget and backoff.
    checkpoint_dir:
        Directory for incremental persistence; ``None`` disables
        checkpointing.  A directory written by a differently-configured
        campaign is detected via fingerprint and reset.
    min_counter_coverage:
        Counters covered by fewer than this fraction of merged phases
        are dropped from the dataset (columns), then phases missing any
        surviving counter are dropped (rows).
    sleep_fn:
        Injectable sleep (tests pass a recorder; default
        :func:`time.sleep`).
    """

    def __init__(
        self,
        platform: Platform,
        plan: CampaignPlan,
        *,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        min_counter_coverage: float = 0.75,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> None:
        if not 0.0 <= min_counter_coverage <= 1.0:
            raise ValueError("min_counter_coverage must be in [0, 1]")
        self.platform = platform
        self.plan = plan
        self.event_sets: List[EventSet] = schedule_events(
            plan.events, platform.cfg
        )
        self.faults = faults or FaultPlan()
        self.injector = FaultInjector(self.faults, platform.seed)
        self.retry = retry or RetryPolicy()
        self.min_counter_coverage = min_counter_coverage
        self.sleep_fn = sleep_fn
        self.checkpoint: Optional[CampaignCheckpoint] = None
        if checkpoint_dir is not None:
            self.checkpoint = CampaignCheckpoint(
                checkpoint_dir, self.fingerprint()
            )
        #: Observer-hook exceptions survived (see :func:`_call_progress`).
        self._hook_errors: List[str] = []
        #: Tracers cached per event set: stateless across traces, so a
        #: campaign builds one per counter group instead of one per
        #: cell.
        self._tracer_cache: Dict[Optional[int], ScorePTracer] = {}

    def fingerprint(self) -> str:
        """Hash of everything that determines the stored cell data."""
        parts = (
            "seed", self.platform.seed,
            "cfg", self.platform.cfg.name,
            "jitter", repr(self.platform.run_jitter_sigma),
            repr(self.platform.power_jitter_sigma),
            repr(self.platform.power_offset_sigma_w),
            "workloads", ",".join(w.name for w in self.plan.workloads),
            "frequencies", repr(self.plan.frequencies_mhz),
            "threads", repr(self.plan.thread_counts_override),
            "events", ",".join(self.plan.events),
            "interval", repr(self.plan.sampling_interval_s),
            "mux", self.plan.multiplexing,
            "faults", repr(self.faults),
            "attempts", self.retry.max_attempts,
        )
        h = hashlib.blake2b(digest_size=12)
        for part in parts:
            h.update(str(part).encode())
            h.update(b"\x1f")
        return h.hexdigest()

    def _cell_tracer(self, cell: CampaignCell) -> ScorePTracer:
        """The tracer for a cell's counter group, cached per event set."""
        key = None if cell.event_set is None else cell.run_index
        tracer = self._tracer_cache.get(key)
        if tracer is not None:
            return tracer
        if cell.event_set is None:
            counter_plugin: Any = MultiplexedApapiPlugin(
                self.platform, self.plan.events
            )
        else:
            counter_plugin = ApapiPlugin(self.platform, cell.event_set)
        tracer = ScorePTracer(
            self.platform,
            [
                PowerPlugin(self.platform),
                VoltagePlugin(self.platform),
                counter_plugin,
            ],
            sampling_interval_s=self.plan.sampling_interval_s,
        )
        self._tracer_cache[key] = tracer
        return tracer

    def _prime_caches(self, cells: List[CampaignCell]) -> None:
        """Warm the batched kernel's caches for the whole campaign.

        Pure cache warm-ups — phase-state skeletons and pre-expanded
        RNG state words — so primed and unprimed acquisition produce
        byte-identical datasets.
        """
        self.platform.prime_run_skeletons(self.plan.experiments())
        counter_plugin_name = (
            "MultiplexedApapiPlugin"
            if self.plan.multiplexing == "time-division"
            else "ApapiPlugin"
        )
        self.platform.prime_rng_words(
            (
                (cell.workload, cell.frequency_mhz, cell.threads, cell.run_index)
                for cell in cells
            ),
            ("PowerPlugin", "VoltagePlugin", counter_plugin_name),
        )

    @property
    def runs_per_experiment(self) -> int:
        """Run count imposed by the acquisition mode."""
        if self.plan.multiplexing == "time-division":
            return 1
        return len(self.event_sets)

    def cells(self) -> List[CampaignCell]:
        """The campaign's unit-of-retry grid: one cell per run.

        Multi-run mode has one cell per (experiment, event set);
        time-division mode one cell per experiment (``event_set``
        ``None`` means "all plan events, multiplexed").
        """
        out: List[CampaignCell] = []
        for workload, frequency_mhz, threads in self.plan.experiments():
            if self.plan.multiplexing == "time-division":
                out.append(
                    CampaignCell(workload, frequency_mhz, threads, 0, None)
                )
                continue
            for run_index, event_set in enumerate(self.event_sets):
                out.append(
                    CampaignCell(
                        workload, frequency_mhz, threads, run_index, event_set
                    )
                )
        return out

    # ------------------------------------------------------------------
    def _attempt(
        self, cells: List[CampaignCell], ledger: _Ledger, i: int, attempt: int
    ) -> Optional[RunExecution]:
        """Crash-check and execute one attempt at cell ``i``; ``None`` if
        it crashed.  Fault decisions are keyed on (cell, attempt), so
        they do not depend on wall clock, block layout or other cells."""
        cell = cells[i]
        try:
            self.injector.check_run(*cell.key, attempt=attempt)
        except RunFailure as exc:
            ledger.fail(i, exc)
            return None
        return self.platform.execute(
            cell.workload,
            cell.frequency_mhz,
            cell.threads,
            run_index=cell.run_index,
        )

    def _acquire_block(
        self,
        tracer: ScorePTracer,
        cells: List[CampaignCell],
        ledger: _Ledger,
        members: List[_Member],
        attempt: int,
    ) -> None:
        """Trace, check and profile one block of executed runs.

        One :meth:`ScorePTracer.trace` call and, unless the fault plan
        corrupts traces, one watchdog screen and one profile-generator
        call — roco2 traces through the HAEC-SIM module, benchmark
        traces through the custom OTF2 post-processing tool (Section
        III-A).  Corruption acts on one run's trace, so a corrupting
        plan has each run's trace materialized, corrupted and profiled
        on its own; otherwise only runs the screen flags get a
        :class:`~repro.tracing.otf2.Trace`, for ``validate_trace`` to
        diagnose.  Every cell that passes is filed as its row range of
        the table and stored at once.
        """
        block = tracer.trace([run for _, run in members])
        kernel = _is_kernel(members[0][1].suite)
        generator = haecsim_profiles if kernel else postprocess_profiles
        if self.faults.corrupts_traces:
            traces = {
                r: self.injector.corrupt_trace(block.trace(r), attempt=attempt)
                for r in range(len(members))
            }
        else:
            traces = {r: block.trace(r) for r in screen_block(block)}
            table = generator(block)
        for r, (i, run) in enumerate(members):
            try:
                if r in traces:
                    validate_trace(traces[r])
                    own = generator(traces[r])
                    rows = (own, 0, len(own))
                else:
                    rows = (table, table.run_offsets[r], table.run_offsets[r + 1])
                validate_profiles(rows[0].phase_names[rows[1] : rows[2]], run)
            except AcquisitionError as exc:
                ledger.fail(i, exc)
                continue
            ledger.rows[i] = rows
            if self.checkpoint is not None:
                self.checkpoint.store(
                    cell_id(*cells[i].key, self.plan.events), PhaseTable.gather([rows])
                )

    def _retry(
        self,
        tracer: ScorePTracer,
        cells: List[CampaignCell],
        ledger: _Ledger,
        i: int,
    ) -> None:
        """Attempts 1 … N−1 at failed cell ``i``, each a block of one."""
        for attempt in range(1, self.retry.max_attempts):
            delay_s = self.retry.delay_s(attempt - 1)
            if delay_s > 0:
                self.sleep_fn(delay_s)
            ledger.attempts[i] = attempt + 1
            run = self._attempt(cells, ledger, i, attempt)
            if run is not None:
                self._acquire_block(tracer, cells, ledger, [(i, run)], attempt)
            if ledger.rows[i] is not None:
                return

    def _acquire(
        self,
        cells: List[CampaignCell],
        ledger: _Ledger,
        progress: Optional[ProgressFn],
    ) -> None:
        """The cell loop: every cell announced, then loaded from the
        checkpoint or acquired, in blocks (see :meth:`run`)."""
        n_sets = self.runs_per_experiment
        tracers = [self._cell_tracer(cell) for cell in cells[:n_sets]]

        def start(i: int) -> Optional[RunExecution]:
            """Announce cell ``i``, then resume it or make its first
            attempt; its run if that attempt executed."""
            cell = cells[i]
            _call_progress(progress, f"cell {cell.describe()}", self._hook_errors)
            if self.checkpoint is not None:
                stored = self.checkpoint.load(cell_id(*cell.key, self.plan.events))
                if stored is not None:
                    ledger.rows[i] = (stored, 0, len(stored))
                    ledger.resumed += 1
                    return None
            return self._attempt(cells, ledger, i, 0)

        def acquire(first: int, stop: int, head: List[_Member]) -> None:
            """Acquire experiments ``first … stop − 1``, given their
            started event-set-0 runs (``head``)."""
            for k, tracer in enumerate(tracers):
                indices = range(first * n_sets + k, stop * n_sets, n_sets)
                members = head
                if k:
                    members = []
                    for i in indices:
                        run = start(i)
                        if run is not None:
                            members.append((i, run))
                if members:
                    self._acquire_block(tracer, cells, ledger, members, 0)
                for i in indices:
                    if ledger.rows[i] is None:
                        self._retry(tracer, cells, ledger, i)

        first, samples = 0, 0
        head: List[_Member] = []
        n_experiments = len(cells) // n_sets
        for e in range(n_experiments):
            i = e * n_sets
            run = start(i)
            # A stored or crashed first cell sizes nothing.
            n = tracers[0].sample_count(run) if run is not None else 0
            if e > first and (
                samples + n > BLOCK_SAMPLES
                or _is_kernel(cells[i].workload.suite)
                != _is_kernel(cells[first * n_sets].workload.suite)
            ):
                acquire(first, e, head)
                first, head, samples = e, [], 0
            if run is not None:
                head.append((i, run))
            samples += n
        acquire(first, n_experiments, head)

    def run(self, progress: Optional[ProgressFn] = None) -> CampaignResult:
        """Acquire every cell, merge with graceful degradation, report.

        Runs are traced and profiled in blocks.  Consecutive experiments
        that share a profile generator form a chunk of up to
        :data:`BLOCK_SAMPLES` samples per run set (an experiment's runs
        all sample the same grid, so event set 0's run sizes the chunk),
        and each event set's cells of a chunk form one block.  Every
        cell gets ``progress`` once, before its first attempt; a cell
        stored in the checkpoint is loaded and left out of its block.
        A first attempt that crashes drops its cell out of the block;
        a cell that crashes or fails the watchdog is retried alone
        under the :class:`RetryPolicy` and quarantined when its
        attempts run out.  Blocking changes call counts, never values.

        The merge records phase-set mismatches and counter
        disagreements instead of raising, computes the per-counter
        coverage map, drops counters below ``min_counter_coverage``
        (columns), then phases missing a kept counter (rows).
        """
        self._hook_errors = []
        cells = self.cells()
        # One batched warm-up covers every cell's skeleton and RNG
        # streams up front (pure cache warm-ups — outputs unchanged).
        self._prime_caches(cells)
        ledger = _Ledger(len(cells))
        timer = StageTimer()
        with timer.stage("acquisition", n_items=len(cells)):
            self._acquire(cells, ledger, progress)

        quarantined = [
            (cell.describe(), str(ledger.errors[i]))
            for i, cell in enumerate(cells)
            if ledger.rows[i] is None
        ]
        faults_observed: Dict[str, int] = {}
        for i in sorted(ledger.faults):
            for kind in ledger.faults[i]:
                faults_observed[kind] = faults_observed.get(kind, 0) + 1
        retries = 0
        backoff_s = 0.0
        for i in sorted(ledger.attempts):
            retries += ledger.attempts[i] - 1
            for attempt in range(ledger.attempts[i] - 1):
                backoff_s += self.retry.delay_s(attempt)
        resumed = ledger.resumed
        failure: Optional[Exception] = (
            ledger.errors[min(ledger.errors)] if ledger.errors else None
        )
        # Completed cells' rows in cell order.  The merge's transient
        # peak is the campaign's memory high-water mark; the per-block
        # tables are freed before it.
        table = PhaseTable.gather([rows for rows in ledger.rows if rows is not None])
        del ledger

        merge_issues: List[str] = []
        with timer.stage("merge", n_items=len(table)):
            merged = merge_runs(table, issues=merge_issues)
        del table
        coverage = counter_coverage(merged, self.plan.events)
        kept = tuple(
            c
            for c in self.plan.events
            if coverage[c] >= self.min_counter_coverage
        )
        dropped_counters = tuple(c for c in self.plan.events if c not in kept)
        dataset: Optional[PowerDataset] = None
        degraded_phases = 0
        if len(merged) and kept:
            complete = int((~np.isnan(merged.columns(kept))).all(axis=1).sum())
            degraded_phases = len(merged) - complete
            if complete:
                dataset = build_dataset(
                    merged, require_complete=False, counter_names=kept
                )

        if failure is None and merge_issues:
            failure = ValueError(merge_issues[0])
        if failure is None and (
            dataset is None or dropped_counters or degraded_phases
        ):
            try:
                build_dataset(merged, counter_names=self.plan.events)
            except ValueError as exc:
                failure = exc
        report = CampaignReport(
            total_cells=len(cells),
            completed_cells=len(cells) - len(quarantined),
            resumed_cells=resumed,
            retries=retries,
            total_backoff_s=backoff_s,
            faults_observed=faults_observed,
            quarantined=tuple(quarantined),
            merge_issues=tuple(merge_issues),
            counter_coverage=coverage,
            dropped_counters=dropped_counters,
            degraded_phases=degraded_phases,
            hook_errors=tuple(self._hook_errors),
            timing=timer.report(),
        )
        from repro.audit.engine import audit_campaign

        report = replace(report, audit=audit_campaign(report))
        return CampaignResult(dataset=dataset, report=report, failure=failure)


# ---------------------------------------------------------------------------
# convenience wrappers
# ---------------------------------------------------------------------------


def _make_plan(
    workloads: Sequence[Workload],
    frequencies_mhz: Sequence[int],
    *,
    events: Optional[Sequence[str]],
    sampling_interval_s: float,
    thread_counts: Optional[Sequence[int]],
    multiplexing: str,
) -> CampaignPlan:
    return CampaignPlan(
        workloads=tuple(workloads),
        frequencies_mhz=tuple(int(f) for f in frequencies_mhz),
        events=tuple(events) if events is not None else COUNTER_NAMES,
        sampling_interval_s=sampling_interval_s,
        thread_counts_override=tuple(thread_counts) if thread_counts else None,
        multiplexing=multiplexing,
    )


def run_campaign(
    platform: Platform,
    workloads: Sequence[Workload],
    frequencies_mhz: Sequence[int],
    *,
    events: Optional[Sequence[str]] = None,
    sampling_interval_s: float = 0.1,
    thread_counts: Optional[Sequence[int]] = None,
    multiplexing: str = "multi-run",
    progress: Optional[ProgressFn] = None,
) -> PowerDataset:
    """The paper's all-or-nothing campaign, in one call.

    One attempt per cell and no injected faults.  Returns the dataset
    of a clean campaign; otherwise raises the first failed cell's own
    typed error (e.g. :class:`~repro.faults.errors.AcquisitionError`)
    or the merge's ``ValueError`` — never a partial dataset.  Exposes
    the full plan surface: ``events`` (counter subset) and the
    ``multiplexing`` mode are forwarded, not silently fixed to
    defaults.
    """
    plan = _make_plan(
        workloads,
        frequencies_mhz,
        events=events,
        sampling_interval_s=sampling_interval_s,
        thread_counts=thread_counts,
        multiplexing=multiplexing,
    )
    campaign = Campaign(platform, plan, retry=RetryPolicy(max_attempts=1))
    result = campaign.run(progress)
    if result.failure is not None:
        raise result.failure
    return result.dataset


def run_resilient_campaign(
    platform: Platform,
    workloads: Sequence[Workload],
    frequencies_mhz: Sequence[int],
    *,
    events: Optional[Sequence[str]] = None,
    sampling_interval_s: float = 0.1,
    thread_counts: Optional[Sequence[int]] = None,
    multiplexing: str = "multi-run",
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    min_counter_coverage: float = 0.75,
    progress: Optional[ProgressFn] = None,
) -> CampaignResult:
    """One-call convenience around :class:`Campaign` that returns the
    whole :class:`CampaignResult`, degraded or not."""
    plan = _make_plan(
        workloads,
        frequencies_mhz,
        events=events,
        sampling_interval_s=sampling_interval_s,
        thread_counts=thread_counts,
        multiplexing=multiplexing,
    )
    campaign = Campaign(
        platform,
        plan,
        faults=faults,
        retry=retry,
        checkpoint_dir=checkpoint_dir,
        min_counter_coverage=min_counter_coverage,
    )
    return campaign.run(progress)
