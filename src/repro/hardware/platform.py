"""The simulated system under test: a dual-socket Haswell-EP node.

:class:`Platform` binds together the microarchitecture model, the
ground-truth power model, the sensor instrumentation, the voltage
telemetry and the PMU, and executes workloads at pinned operating
points — the simulated equivalent of launching an instrumented binary
on the paper's test system.

An execution (:class:`RunExecution`) carries *truth*: per-phase
microarchitectural state and ground-truth power.  Measurement —
sampling sensors, reading the PMU — is performed by the tracing layer
(:mod:`repro.tracing`), mirroring the paper's separation between the
system under test and the measurement infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.config import HASWELL_EP_CONFIG, PlatformConfig
from repro.hardware.counters import COUNTER_NAMES, counter_index
from repro.hardware.dvfs import OperatingPoint
from repro.hardware.fastsim import PhaseStateMemo, simulate_phases
from repro.hardware.microarch import MicroarchState
from repro.hardware.pmu import PMU
from repro.hardware.power import (
    HASWELL_EP_POWER_PARAMS,
    PowerBreakdown,
    PowerModelParams,
)
from repro.hardware.sensors import SensorArray
from repro.hardware.voltage import VoltageTelemetry
from repro.seeding import (
    DEFAULT_SEED,
    SeedHasher,
    derive_rng,
    rng_from_state_words,
    seedseq_state_words,
)
from repro.workloads.base import PhaseSpec, Workload

__all__ = [
    "PhaseExecution",
    "RunExecution",
    "Platform",
    "WorkloadNameConflictError",
]

#: Counters exempt from run-to-run execution jitter: cycle counts are
#: pinned by the fixed frequency and wall time.
_JITTER_EXEMPT = ("TOT_CYC", "REF_CYC")

#: Integer column indices of the exempt counters.
_EXEMPT_IDX = np.array(
    [counter_index(name) for name in _JITTER_EXEMPT], dtype=np.intp
)


class WorkloadNameConflictError(ValueError):
    """A second workload reached a :class:`Platform` under the name of
    one it already ran, with different phases.

    The platform memoizes runs by workload name, so serving the second
    workload from the memo would silently return the first one's data
    (``generate_workloads`` names every set ``gen000…``).  Run each
    such set on its own platform.
    """


@dataclass(frozen=True)
class _RunSkeleton:
    """Everything about a run that does not depend on ``run_index``.

    The pre-jitter phase stack of one (workload, frequency, threads)
    experiment: specs, operating point, stacked pre-jitter counter
    rates, hidden activities, base power breakdowns, true voltages and
    phase timings.  A campaign re-executes each experiment once per
    event set; only the three run-level jitter draws differ, so the
    skeleton is computed once and replayed.
    """

    specs: Tuple[PhaseSpec, ...]
    op: OperatingPoint
    rates: np.ndarray
    hidden: Tuple
    breakdowns: Tuple[PowerBreakdown, ...]
    voltages: Tuple[float, ...]
    bounds: Tuple[Tuple[float, float], ...]
    source: Optional[Workload]
    """The workload whose own ``phases(threads)`` gave ``specs`` (the
    memo may then serve its ``phases=None`` calls); ``None`` for an
    explicit phase list."""


@dataclass(frozen=True)
class PhaseExecution:
    """Ground truth for one executed phase."""

    phase: PhaseSpec
    start_s: float
    end_s: float
    state: MicroarchState
    power_breakdown: PowerBreakdown
    true_voltage_v: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class RunExecution:
    """Ground truth for one complete run of a workload."""

    workload_name: str
    suite: str
    op: OperatingPoint
    threads: int
    run_index: int
    phases: Tuple[PhaseExecution, ...]
    seed: int

    @property
    def total_duration_s(self) -> float:
        return self.phases[-1].end_s if self.phases else 0.0


class Platform:
    """Simulated dual-socket x86 node with instrumentation attached."""

    def __init__(
        self,
        cfg: PlatformConfig = HASWELL_EP_CONFIG,
        power_params: PowerModelParams = HASWELL_EP_POWER_PARAMS,
        *,
        seed: int = DEFAULT_SEED,
        run_jitter_sigma: float = 0.004,
        power_jitter_sigma: float = 0.003,
        power_offset_sigma_w: float = 1.2,
    ) -> None:
        self.cfg = cfg
        self.power_params = power_params
        self.seed = seed
        self.run_jitter_sigma = run_jitter_sigma
        self.power_jitter_sigma = power_jitter_sigma
        self.power_offset_sigma_w = power_offset_sigma_w
        # Instrument calibration is a property of the physical setup:
        # drawn once per platform instance, stable across campaigns.
        self.sensors = SensorArray.build(
            cfg.sockets, derive_rng(seed, "sensor-calibration")
        )
        self.voltage = VoltageTelemetry(cfg)
        self.pmu = PMU(cfg)
        # Pre-jitter phase states, shared across the event-set runs of a
        # campaign (see repro.hardware.fastsim).  Never pickled: worker
        # processes rebuild their own memo on first use.
        self._phase_memo = PhaseStateMemo()
        # Whole-run skeletons keyed (workload, frequency, threads) — the
        # run_index-independent part of execute().  Same lifecycle as
        # the phase memo.
        self._run_memo: dict = {}
        # Pre-hashed head of the per-run jitter RNG key (holds a hash
        # object, so it is rebuilt after pickling).
        self._run_hasher = SeedHasher(seed, "run")
        # Pre-expanded RNG state words, filled by campaigns via
        # prime_rng_words and keyed (workload, frequency, threads,
        # run_index) -> {stream name -> words}.  A pure derivation
        # cache: a hit yields the same generator stream a cold
        # default_rng construction would.  Same lifecycle as the memos.
        self._rng_words: dict = {}

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_phase_memo"] = None
        state["_run_memo"] = None
        state["_run_hasher"] = None
        state["_rng_words"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.__dict__.get("_phase_memo") is None:
            self._phase_memo = PhaseStateMemo()
        if self.__dict__.get("_run_memo") is None:
            self._run_memo = {}
        if self.__dict__.get("_run_hasher") is None:
            self._run_hasher = SeedHasher(self.seed, "run")
        if self.__dict__.get("_rng_words") is None:
            self._rng_words = {}

    # ------------------------------------------------------------------
    def execute(
        self,
        workload: Workload,
        frequency_mhz: int,
        threads: int,
        *,
        run_index: int = 0,
        phases: Optional[Sequence[PhaseSpec]] = None,
    ) -> RunExecution:
        """Execute a workload at a pinned frequency and thread count.

        The operating frequency is "always fixed to one particular
        value during one particular execution" (Section III-A).
        Run-to-run variation is modelled as a coherent multiplicative
        jitter on activity rates with a correlated power jitter.

        Pre-jitter phase states come from the batched, memoized kernel
        (:mod:`repro.hardware.fastsim`); only the three run-level
        jitter draws differ between runs.  ``phases`` lets callers that
        re-execute the same cell (retry loops) pass a pre-derived phase
        list instead of re-deriving it from the workload every attempt.
        """
        skeleton = self._run_skeleton(workload, frequency_mhz, threads, phases)
        specs = skeleton.specs
        # The run's jitter stream is derive_rng(seed, "run", workload,
        # frequency, threads, run_index), with the constant ("run",)
        # head pre-hashed (SeedHasher contract) and, under a primed
        # campaign, the seed's PCG64 state words already expanded
        # (rng_from_state_words contract).
        entry = self._rng_words.get(
            (workload.name, frequency_mhz, threads, run_index)
        )
        words = entry.get("run") if entry is not None else None
        if words is not None:
            rng = rng_from_state_words(words)
        else:
            rng = self._run_hasher.rng(
                workload.name, frequency_mhz, threads, run_index
            )
        # One block draw; ``normal(0, s)`` is ``0.0 + s*z`` on the same
        # ziggurat stream, so three scalar draws give identical values.
        z = rng.standard_normal(3)
        jitter = 1.0 + float(0.0 + self.run_jitter_sigma * z[0])
        power_jitter = (
            1.0
            + 0.6 * (jitter - 1.0)
            + float(0.0 + self.power_jitter_sigma * z[1])
        )
        power_offset = float(0.0 + self.power_offset_sigma_w * z[2])
        # Run-level absolute power offset: OS housekeeping, fan state,
        # VR operating-point differences.  Dominates *relative* error at
        # the low end of the power range.
        per_socket_offset = power_offset / self.cfg.sockets

        # Replay the skeleton: one jitter multiply over the stacked
        # pre-jitter rates (exempt columns restored from the stack),
        # then only the per-run breakdown scaling runs per phase.
        jittered = skeleton.rates * jitter
        if jittered.size:
            jittered[:, _EXEMPT_IDX] = skeleton.rates[:, _EXEMPT_IDX]
        hidden = skeleton.hidden
        voltages = skeleton.voltages
        bounds = skeleton.bounds
        executions: List[PhaseExecution] = []
        append = executions.append
        for i, spec in enumerate(specs):
            base = skeleton.breakdowns[i]
            breakdown = PowerBreakdown(
                per_socket_w=tuple(
                    [
                        max(p * power_jitter + per_socket_offset, 0.0)
                        for p in base.per_socket_w
                    ]
                ),
                dynamic_core_w=base.dynamic_core_w,
                uncore_w=base.uncore_w,
                static_w=base.static_w,
                board_w=base.board_w,
                temperature_c=base.temperature_c,
            )
            start_s, end_s = bounds[i]
            append(
                PhaseExecution(
                    phase=spec,
                    start_s=start_s,
                    end_s=end_s,
                    state=MicroarchState(
                        counter_rates=jittered[i],
                        hidden=hidden[i],
                    ),
                    power_breakdown=breakdown,
                    true_voltage_v=voltages[i],
                )
            )

        return RunExecution(
            workload_name=workload.name,
            suite=workload.suite,
            op=skeleton.op,
            threads=threads,
            run_index=run_index,
            phases=tuple(executions),
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    def _run_skeleton(
        self,
        workload: Workload,
        frequency_mhz: int,
        threads: int,
        phases: Optional[Sequence[PhaseSpec]],
    ) -> _RunSkeleton:
        """The run_index-independent phase stack, memoized.

        Keyed ``(workload name, frequency, threads)``; a memo entry
        built from the workload's own phase list also serves
        ``phases=None`` callers (see :meth:`_derived_skeleton`), while
        explicit phase lists must match the cached specs exactly
        (otherwise the skeleton is rebuilt uncached).
        """
        key = (workload.name, frequency_mhz, threads)
        cached = self._run_memo.get(key)
        if phases is None:
            hit = self._derived_skeleton(workload, frequency_mhz, threads)
            if hit is not None:
                return hit
        elif cached is not None and tuple(phases) == cached.specs:
            return cached
        workload.validate_threads(threads, self.cfg.total_cores)
        op = self.cfg.curve.operating_point(frequency_mhz)
        derived = phases is None
        specs = tuple(workload.phases(threads)) if derived else tuple(phases)
        pairs = self._phase_states_fast(specs, op)
        if pairs:
            rates = np.stack([state.counter_rates for state, _ in pairs])
        else:
            rates = np.empty((0, len(COUNTER_NAMES)))
        rates.setflags(write=False)
        bounds = []
        t = 0.0
        for spec in specs:
            bounds.append((t, t + spec.duration_s))
            t += spec.duration_s
        skeleton = _RunSkeleton(
            specs=specs,
            op=op,
            rates=rates,
            hidden=tuple(state.hidden for state, _ in pairs),
            breakdowns=tuple(breakdown for _, breakdown in pairs),
            voltages=tuple(
                self.voltage.true_voltage(op, spec.active_threads)
                for spec in specs
            ),
            bounds=tuple(bounds),
            source=workload if derived else None,
        )
        if derived or cached is None:
            if len(self._run_memo) >= 4096:
                self._run_memo.pop(next(iter(self._run_memo)))
            self._run_memo[key] = skeleton
        return skeleton

    def _derived_skeleton(
        self, workload: Workload, frequency_mhz: int, threads: int
    ) -> Optional[_RunSkeleton]:
        """The memoized skeleton built from ``workload``'s own phases.

        ``None`` on a miss.  A hit by the same workload object costs one
        identity check; another object under the same name must derive
        the same phase specs, or :class:`WorkloadNameConflictError` is
        raised instead of serving it the other workload's run.
        """
        cached = self._run_memo.get((workload.name, frequency_mhz, threads))
        if cached is None or cached.source is None:
            return None
        if cached.source is not workload and (
            tuple(workload.phases(threads)) != cached.specs
        ):
            raise WorkloadNameConflictError(
                f"workload {workload.name!r} at {frequency_mhz} MHz x "
                f"{threads} threads differs from the workload of that name "
                "this platform already ran; use one platform per workload set"
            )
        return cached

    # ------------------------------------------------------------------
    def prime_run_skeletons(
        self, experiments: Iterable[Tuple[Workload, int, int]]
    ) -> None:
        """Warm the run/phase memos for a batch of experiments at once.

        A campaign visits every experiment's phases once per PMU event
        set; built one experiment at a time, each skeleton pays a
        separate :func:`~repro.hardware.fastsim.simulate_phases` call
        on a handful of phases — mostly fixed kernel-dispatch overhead.
        Priming groups every uncached phase state by operating point
        and evaluates each group through ONE batched call; elementwise
        float64 kernels are batch-size invariant, so the states equal
        the per-experiment builds bit for bit (the identity the fastsim
        test suite pins).  Purely a cache warm-up: :meth:`execute`
        output is unchanged whether or not this ran.
        """
        memo = self._phase_memo
        pending: List[Tuple[Workload, int, int]] = []
        by_op: Dict[int, Tuple[OperatingPoint, dict]] = {}
        for workload, frequency_mhz, threads in experiments:
            if self._derived_skeleton(workload, frequency_mhz, threads) is not None:
                continue
            workload.validate_threads(threads, self.cfg.total_cores)
            op = self.cfg.curve.operating_point(frequency_mhz)
            pending.append((workload, frequency_mhz, threads))
            group = by_op.setdefault(frequency_mhz, (op, {}))[1]
            for spec in workload.phases(threads):
                key = (spec.characterization, frequency_mhz, spec.active_threads)
                if memo.get(key) is None:
                    group[key] = None
        for op, group in by_op.values():
            if not group:
                continue
            uniq = list(group)
            results = simulate_phases(
                [key[0] for key in uniq],
                [key[2] for key in uniq],
                op,
                self.cfg,
                self.power_params,
            )
            for key, result in zip(uniq, results):
                memo.put(key, result)
        for workload, frequency_mhz, threads in pending:
            self._run_skeleton(workload, frequency_mhz, threads, None)

    # ------------------------------------------------------------------
    def prime_rng_words(
        self,
        runs: Iterable[Tuple[Workload, int, int, int]],
        plugin_names: Sequence[str],
    ) -> None:
        """Expand every run's RNG seeds to PCG64 state words, batched.

        A campaign constructs one generator per run-level jitter draw
        plus one per (plugin, phase) metric stream; built one at a
        time, each pays ``default_rng``'s ``SeedSequence`` expansion.
        The seeds are all known up front, so this derives them with the
        incremental hasher and runs one vectorized
        :func:`~repro.seeding.seedseq_state_words` pass over the lot.
        :meth:`execute` and the tracer then construct each generator
        from its precomputed words — the same stream a cold
        ``default_rng(seed)`` construction yields, so primed and
        unprimed acquisition are bit-identical.

        ``runs`` holds (workload, frequency_mhz, threads, run_index);
        ``plugin_names`` the plugin *type* names of the tracer (their
        RNG key heads).  Phase names come from the memoized run
        skeleton — prime skeletons first to keep that build batched.
        """
        cache = self._rng_words
        if len(cache) >= 8192:
            cache.clear()
        bases = {
            name: SeedHasher(self.seed, "plugin", name)
            for name in plugin_names
        }
        name_blobs: Dict[str, bytes] = {}
        experiment_names: Dict[Tuple[str, int, int], Tuple[str, ...]] = {}
        seeds: List[int] = []
        layout: List[Tuple[Tuple[str, int, int, int], int, Tuple[str, ...]]] = []
        for workload, frequency_mhz, threads, run_index in runs:
            run_key = (workload.name, frequency_mhz, threads, run_index)
            if run_key in cache:
                continue
            phase_names = experiment_names.get(run_key[:3])
            if phase_names is None:
                skeleton = self._run_skeleton(
                    workload, frequency_mhz, threads, None
                )
                phase_names = tuple(spec.name for spec in skeleton.specs)
                experiment_names[run_key[:3]] = phase_names
            run_blob = SeedHasher.encode(
                workload.name, frequency_mhz, threads, run_index
            )
            layout.append((run_key, len(seeds), phase_names))
            seeds.append(self._run_hasher.seed_encoded(run_blob))
            for base in bases.values():
                child = base.child_encoded(run_blob)
                for phase_name in phase_names:
                    blob = name_blobs.get(phase_name)
                    if blob is None:
                        name_blobs[phase_name] = blob = SeedHasher.encode(
                            phase_name
                        )
                    seeds.append(child.seed_encoded(blob))
        if not seeds:
            return
        words = seedseq_state_words(seeds)
        for run_key, start, phase_names in layout:
            entry: Dict[str, object] = {
                # Guards consumers against phase-list drift: words are
                # replayed positionally, so the names must match.
                "phases": phase_names,
                "run": words[start],
            }
            pos = start + 1
            n_phases = len(phase_names)
            for name in bases:
                entry[name] = words[pos : pos + n_phases]
                pos += n_phases
            cache[run_key] = entry

    # ------------------------------------------------------------------
    def _phase_states_fast(
        self, specs: Sequence[PhaseSpec], op: OperatingPoint
    ) -> List[Tuple[MicroarchState, PowerBreakdown]]:
        """Pre-jitter (state, base power) per phase via the memo.

        Misses are batched through one :func:`simulate_phases` call;
        hits replay the campaign's earlier event-set runs for free.
        """
        memo = self._phase_memo
        keys = [
            (spec.characterization, op.frequency_mhz, spec.active_threads)
            for spec in specs
        ]
        out: List[Optional[Tuple[MicroarchState, PowerBreakdown]]] = [
            memo.get(key) for key in keys
        ]
        if any(entry is None for entry in out):
            missing: dict = {}
            for i, entry in enumerate(out):
                if entry is None:
                    missing.setdefault(keys[i], []).append(i)
            uniq = list(missing)
            results = simulate_phases(
                [key[0] for key in uniq],
                [key[2] for key in uniq],
                op,
                self.cfg,
                self.power_params,
            )
            for key, result in zip(uniq, results):
                memo.put(key, result)
                for i in missing[key]:
                    out[i] = result
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def supported_frequencies(self) -> Tuple[int, int]:
        """Min/max pinnable core frequency in MHz."""
        return (
            self.cfg.curve.min_frequency_mhz,
            self.cfg.curve.max_frequency_mhz,
        )

    def describe(self) -> str:
        """Human-readable platform summary (README material)."""
        c = self.cfg
        return (
            f"{c.name}: {c.sockets} sockets x {c.cores_per_socket} cores, "
            f"{c.curve.min_frequency_mhz}-{c.curve.max_frequency_mhz} MHz, "
            f"{len(COUNTER_NAMES)} PAPI presets, "
            f"{c.programmable_slots} programmable PMU slots"
        )
