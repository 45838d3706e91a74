"""Measurement campaigns: the outer loop of data acquisition.

A campaign executes every (workload, frequency, thread count)
experiment the number of times the PMU scheduling demands (one run per
programmable counter group), traces each run with the Score-P plugins,
extracts phase profiles, and merges everything into a
:class:`~repro.acquisition.dataset.PowerDataset`.

This is the simulated equivalent of the multi-day measurement sessions
behind the paper's Section IV — and multi-day sessions on production
hardware are lossy, so two execution modes exist:

* :class:`Campaign` — the strict all-or-nothing loop: any failure
  aborts the whole campaign (the behaviour of the original tooling);
* :class:`ResilientCampaign` — the fault-tolerant loop: per-run
  bounded retry with backoff, quarantine of persistently failing
  cells, incremental checkpoint/resume through
  :class:`~repro.acquisition.checkpoint.CampaignCheckpoint`, and
  graceful degradation to a partial dataset with an explicit
  per-counter coverage map.  Every outcome is accounted for in a
  structured :class:`CampaignReport`.
"""

from __future__ import annotations

import hashlib
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

from repro.acquisition.checkpoint import CampaignCheckpoint, cell_id
from repro.acquisition.dataset import PowerDataset
from repro.audit.framework import AuditReport
from repro.acquisition.postprocess import (
    MergedPhase,
    build_dataset,
    counter_coverage,
    merge_runs,
)
from repro.faults.errors import AcquisitionError, RunFailure
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import validate_profiles, validate_trace
from repro.hardware.counters import COUNTER_NAMES
from repro.hardware.platform import Platform, RunExecution
from repro.hardware.pmu import EventSet, schedule_events
from repro.timing import StageTimer, TimingReport
from repro.tracing.phases import PhaseProfile, haecsim_profiles, postprocess_profiles
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
    "ResilientCampaign",
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


#: Sample budget of one acquisition block (see
#: :meth:`Campaign.collect_profiles`): large enough that per-call
#: overhead vanishes, small enough that the stacked sample buffers stay
#: cache-resident and the working set stays flat.
BLOCK_SAMPLES = 4096


def _is_kernel(run: RunExecution) -> bool:
    """Whether a run's trace goes through the HAEC-SIM module."""
    return run.suite in ("roco2", "synthetic")


def _profile_block(
    tracer: ScorePTracer, runs: List[RunExecution]
) -> List[PhaseProfile]:
    """Trace and profile one block of runs, in run order."""
    traced = tracer.trace(runs)
    generator = haecsim_profiles if _is_kernel(runs[0]) else postprocess_profiles
    return generator(traced)


class Campaign:
    """Executes a :class:`CampaignPlan` on a platform (all-or-nothing)."""

    def __init__(self, platform: Platform, plan: CampaignPlan) -> None:
        self.platform = platform
        self.plan = plan
        self.event_sets: List[EventSet] = schedule_events(
            plan.events, platform.cfg
        )
        #: Observer-hook exceptions survived (see :func:`_call_progress`).
        self._hook_errors: List[str] = []
        #: Tracers cached per event set: stateless across traces, so a
        #: campaign builds one per counter group instead of one per
        #: cell.
        self._tracer_cache: Dict[Optional[int], ScorePTracer] = {}

    def _cell_tracer(self, cell: "CampaignCell") -> ScorePTracer:
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
            fault_injector=getattr(self, "injector", None),
        )
        self._tracer_cache[key] = tracer
        return tracer

    def _prime_caches(self, cells: List["CampaignCell"]) -> None:
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

    def cells(self) -> List["CampaignCell"]:
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

    def _execute(self, cell: "CampaignCell") -> RunExecution:
        return self.platform.execute(
            cell.workload,
            cell.frequency_mhz,
            cell.threads,
            run_index=cell.run_index,
        )

    def collect_profiles(
        self, progress: Optional[ProgressFn] = None
    ) -> List[PhaseProfile]:
        """Execute all runs and extract phase profiles, in cell order.

        Runs are traced and profiled in blocks.  Consecutive experiments
        that share a profile generator form a chunk of up to
        :data:`BLOCK_SAMPLES` samples per run set (an experiment's runs
        all sample the same grid), and each event set's runs of a chunk
        form one block.  Every run goes through
        :meth:`Platform.execute`; every block through one
        :meth:`ScorePTracer.trace` call and one profile-generator call
        — roco2 traces through the HAEC-SIM module, benchmark traces
        through the custom OTF2 post-processing tool (Section III-A).
        Blocking changes call counts, never values.
        """
        cells = self.cells()
        # One batched warm-up covers every cell's skeleton and RNG
        # streams up front (pure cache warm-ups — outputs unchanged).
        self._prime_caches(cells)
        n_sets = self.runs_per_experiment
        tracers = [self._cell_tracer(cell) for cell in cells[:n_sets]]
        profiles: List[PhaseProfile] = []

        def acquire(first: int, chunk: List[RunExecution]) -> None:
            """Profile experiments ``first, first + 1, ...``, given
            their first event set's runs (``chunk``)."""
            stop = (first + len(chunk)) * n_sets
            for k, tracer in enumerate(tracers):
                block = chunk if k == 0 else [
                    self._execute(cell)
                    for cell in cells[first * n_sets + k : stop : n_sets]
                ]
                profiles.extend(_profile_block(tracer, block))

        first, chunk, samples = 0, [], 0
        for e, cell in enumerate(cells[::n_sets]):
            _call_progress(
                progress,
                f"{cell.workload.name} @ {cell.frequency_mhz} MHz, "
                f"{cell.threads} threads",
                self._hook_errors,
            )
            run = self._execute(cell)
            n = tracers[0].sample_count(run)
            if chunk and (
                samples + n > BLOCK_SAMPLES
                or _is_kernel(run) != _is_kernel(chunk[0])
            ):
                acquire(first, chunk)
                first, chunk, samples = e, [], 0
            chunk.append(run)
            samples += n
        acquire(first, chunk)
        # Back to cell order (the sort is stable, so each run's phases
        # keep theirs).
        experiment_index = {
            (workload.name, frequency_mhz, threads): e
            for e, (workload, frequency_mhz, threads) in enumerate(
                self.plan.experiments()
            )
        }

        def cell_index(p: PhaseProfile) -> int:
            e = experiment_index[(p.workload, p.frequency_mhz, p.threads)]
            return e * n_sets + p.run_index

        profiles.sort(key=cell_index)
        return profiles

    def run(
        self,
        progress: Optional[ProgressFn] = None,
        *,
        require_complete: bool = True,
    ) -> PowerDataset:
        """Full campaign: execute, trace, profile, merge, assemble."""
        profiles = self.collect_profiles(progress)
        merged = merge_runs(profiles)
        return build_dataset(
            merged,
            require_complete=require_complete,
            counter_names=self.plan.events,
        )


# ---------------------------------------------------------------------------
# fault-tolerant execution
# ---------------------------------------------------------------------------


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

    @property
    def events(self) -> Tuple[str, ...]:
        return self.event_set.events if self.event_set is not None else ()

    def describe(self) -> str:
        return (
            f"{self.workload.name}@{self.frequency_mhz}MHz/"
            f"{self.threads}t#{self.run_index}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for failed runs."""

    max_attempts: int = 3
    """Total attempts per cell before quarantine (≥ 1)."""
    backoff_base_s: float = 0.0
    """Delay before the first retry; 0 disables sleeping entirely
    (the right setting for simulated campaigns and tests)."""
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(
            self.backoff_base_s * self.backoff_factor**attempt,
            self.backoff_max_s,
        )


@dataclass(frozen=True)
class CampaignReport:
    """Structured account of what a resilient campaign went through."""

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
    """(cell description, last error) for cells that exhausted retries."""
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
    """Outcome of a resilient campaign: data plus accountability."""

    dataset: Optional[PowerDataset]
    """``None`` when nothing usable survived (all cells quarantined)."""
    report: CampaignReport


@dataclass
class _CellOutcome:
    profiles: Optional[List[PhaseProfile]]
    attempts: int
    faults: List[str] = field(default_factory=list)
    last_error: str = ""


class ResilientCampaign(Campaign):
    """Fault-tolerant campaign execution.

    Wraps the strict :class:`Campaign` grid with, per cell: fault
    injection (optional), bounded retry with backoff, quarantine after
    exhausted retries, and incremental checkpointing.  The final merge
    degrades gracefully — holes become coverage-map entries and report
    lines instead of exceptions.

    Parameters
    ----------
    faults:
        Fault plan injected during acquisition (``None`` → no injected
        faults; the watchdog still validates every trace).
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
    validate:
        Run the acquisition watchdog on every trace/profile set.
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
        validate: bool = True,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(platform, plan)
        if not 0.0 <= min_counter_coverage <= 1.0:
            raise ValueError("min_counter_coverage must be in [0, 1]")
        self.faults = faults or FaultPlan()
        self.injector = FaultInjector(self.faults, platform.seed)
        self.retry = retry or RetryPolicy()
        self.min_counter_coverage = min_counter_coverage
        self.validate = validate
        self.sleep_fn = sleep_fn
        self.checkpoint: Optional[CampaignCheckpoint] = None
        if checkpoint_dir is not None:
            self.checkpoint = CampaignCheckpoint(
                checkpoint_dir, self.fingerprint()
            )

    # ------------------------------------------------------------------
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
            "validate", self.validate,
        )
        h = hashlib.blake2b(digest_size=12)
        for part in parts:
            h.update(str(part).encode())
            h.update(b"\x1f")
        return h.hexdigest()

    # ------------------------------------------------------------------
    def execute_cell(
        self, cell: CampaignCell, *, attempt: int = 0, phases=None
    ) -> List[PhaseProfile]:
        """One attempt at one cell, with fault injection + validation."""
        self.injector.check_run(*cell.key, attempt=attempt)
        run = self.platform.execute(
            cell.workload,
            cell.frequency_mhz,
            cell.threads,
            run_index=cell.run_index,
            phases=phases,
        )
        trace = self._cell_tracer(cell).trace(run, attempt=attempt)
        if self.validate:
            validate_trace(trace)
        if _is_kernel(run):
            profiles = haecsim_profiles(trace)
        else:
            profiles = postprocess_profiles(trace)
        if self.validate:
            validate_profiles(profiles, run)
        return profiles

    def run_cell(self, cell: CampaignCell) -> _CellOutcome:
        """Execute one cell under the retry policy.

        Fault decisions are keyed on (cell, attempt) — deterministic,
        independent of wall-clock and of other cells, which is what
        makes interrupted campaigns resumable bit-for-bit.
        """
        outcome = _CellOutcome(profiles=None, attempts=0)
        # The phase list is a pure function of (workload, threads):
        # derive it once, not once per attempt.
        phases = tuple(cell.workload.phases(cell.threads))
        for attempt in range(self.retry.max_attempts):
            outcome.attempts = attempt + 1
            try:
                outcome.profiles = self.execute_cell(
                    cell, attempt=attempt, phases=phases
                )
                return outcome
            except (RunFailure, AcquisitionError) as exc:
                outcome.faults.append(exc.kind)
                outcome.last_error = str(exc)
                if attempt + 1 < self.retry.max_attempts:
                    delay_s = self.retry.delay_s(attempt)
                    if delay_s > 0:
                        self.sleep_fn(delay_s)
        return outcome

    # ------------------------------------------------------------------
    def _run_cells(
        self, cells: List[CampaignCell], progress: Optional[ProgressFn]
    ) -> Tuple[List[Optional[_CellOutcome]], Dict[int, List[PhaseProfile]]]:
        """The cell loop: strictly interleaved progress, execution and
        checkpointing (an interrupt mid-loop leaves every finished cell
        stored — the resume tests rely on this)."""
        outcomes: List[Optional[_CellOutcome]] = []
        resumed: Dict[int, List[PhaseProfile]] = {}
        for i, cell in enumerate(cells):
            cid = cell_id(*cell.key, self.plan.events)
            _call_progress(
                progress, f"cell {cell.describe()}", self._hook_errors
            )
            if self.checkpoint is not None:
                stored = self.checkpoint.load(cid)
                if stored is not None:
                    outcomes.append(None)
                    resumed[i] = stored
                    continue
            outcome = self.run_cell(cell)
            if self.checkpoint is not None and outcome.profiles is not None:
                self.checkpoint.store(cid, outcome.profiles)
            outcomes.append(outcome)
        return outcomes, resumed

    def run(self, progress: Optional[ProgressFn] = None) -> CampaignResult:
        """Fault-tolerant campaign: retry, quarantine, checkpoint,
        merge with graceful degradation, and report."""
        profiles: List[PhaseProfile] = []
        faults_observed: Dict[str, int] = {}
        quarantined: List[Tuple[str, str]] = []
        retries = 0
        completed = 0
        backoff_s = 0.0
        self._hook_errors = []
        cells = self.cells()
        # The resilient path bypasses collect_profiles, so it warms the
        # batched kernel's caches itself (same warm-ups).
        self._prime_caches(cells)
        timer = StageTimer()
        with timer.stage("acquisition", n_items=len(cells)):
            # One outcome per cell (``None`` = resumed) plus the
            # resumed profiles by cell index.
            outcomes, resumed_profiles = self._run_cells(cells, progress)
        resumed = len(resumed_profiles)
        completed += resumed
        for i, (cell, outcome) in enumerate(zip(cells, outcomes)):
            if outcome is None:  # resumed from checkpoint
                profiles.extend(resumed_profiles[i])
                continue
            retries += outcome.attempts - 1
            for attempt in range(outcome.attempts - 1):
                backoff_s += self.retry.delay_s(attempt)
            for kind in outcome.faults:
                faults_observed[kind] = faults_observed.get(kind, 0) + 1
            if outcome.profiles is None:
                quarantined.append((cell.describe(), outcome.last_error))
                continue
            completed += 1
            profiles.extend(outcome.profiles)

        merge_issues: List[str] = []
        with timer.stage("merge", n_items=len(profiles)):
            merged: List[MergedPhase] = merge_runs(
                profiles,
                on_phase_mismatch="record",
                on_counter_disagreement="record",
                issues=merge_issues,
            )
        coverage = counter_coverage(merged, self.plan.events)
        kept = tuple(
            c
            for c in self.plan.events
            if coverage[c] >= self.min_counter_coverage
        )
        dropped_counters = tuple(c for c in self.plan.events if c not in kept)
        dataset: Optional[PowerDataset] = None
        degraded_phases = 0
        if merged and kept:
            rows = [
                m
                for m in merged
                if all(c in m.counter_rates_per_s for c in kept)
            ]
            degraded_phases = len(merged) - len(rows)
            if rows:
                dataset = build_dataset(
                    rows, require_complete=True, counter_names=kept
                )
        report = CampaignReport(
            total_cells=len(cells),
            completed_cells=completed,
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
        return CampaignResult(dataset=dataset, report=report)


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
    require_complete: bool = True,
    progress: Optional[ProgressFn] = None,
) -> PowerDataset:
    """One-call convenience around :class:`Campaign`.

    Exposes the full plan surface — ``events`` (counter subset),
    ``multiplexing`` mode and ``require_complete`` are forwarded, not
    silently fixed to defaults.
    """
    plan = _make_plan(
        workloads,
        frequencies_mhz,
        events=events,
        sampling_interval_s=sampling_interval_s,
        thread_counts=thread_counts,
        multiplexing=multiplexing,
    )
    campaign = Campaign(platform, plan)
    return campaign.run(progress, require_complete=require_complete)


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
    """One-call convenience around :class:`ResilientCampaign`."""
    plan = _make_plan(
        workloads,
        frequencies_mhz,
        events=events,
        sampling_interval_s=sampling_interval_s,
        thread_counts=thread_counts,
        multiplexing=multiplexing,
    )
    campaign = ResilientCampaign(
        platform,
        plan,
        faults=faults,
        retry=retry,
        checkpoint_dir=checkpoint_dir,
        min_counter_coverage=min_counter_coverage,
    )
    return campaign.run(progress)
