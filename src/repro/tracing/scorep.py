"""Score-P-like tracer: execute a run and record an instrumented trace.

Mirrors the paper's acquisition path: the application (workload) runs
with compiler instrumentation (phase enter/leave events) while the
configured metric plugins asynchronously add power, voltage and PAPI
samples to the trace (Section III-A).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, overload

import numpy as np

from repro.hardware.platform import PhaseExecution, Platform, RunExecution
from repro.hardware.pmu import EventSet
from repro.seeding import SeedHasher, rng_from_state_words
from repro.tracing.otf2 import Trace, TraceBlock
from repro.tracing.plugins import ApapiPlugin, MetricPlugin, PowerPlugin, VoltagePlugin

__all__ = [
    "ScorePTracer",
    "check_sampling_interval",
    "trace_run",
    "trace_multiplexed_run",
]

#: Shared sample-grid cache of the recording path, keyed by the
#: run's phase timings and the sampling interval.  Grids are a pure
#: function of the key, and the cached arrays are read-only, so every
#: trace of every event-set run of an experiment reuses one times
#: array (which also lets profile extraction reuse its window bounds).
_GRID_CACHE: dict = {}
_GRID_CACHE_CAPACITY = 512


def _sample_grids(phases, dt: float):
    """Per-phase sample grids and their concatenation, cached.

    Sample times are a pure function of the phase timings and the
    sampling interval — identical across every event-set run of an
    experiment — so the arrays are computed once, frozen, and shared
    between traces.  (Trace consumers never write times in place; the
    fault injector copies before corrupting.)
    """
    key = (tuple((p.start_s, p.end_s) for p in phases), dt)
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached
    grids = []
    for phase in phases:
        n = max(int(np.floor(phase.duration_s / dt)), 1)
        sample_times = phase.start_s + dt * np.arange(1, n + 1)
        sample_times = sample_times[sample_times <= phase.end_s + 1e-9]
        if sample_times.size == 0:
            sample_times = np.array([phase.end_s])
        sample_times.setflags(write=False)
        grids.append(sample_times)
    shared_times = np.concatenate(grids) if grids else np.array([])
    shared_times.setflags(write=False)
    if len(_GRID_CACHE) >= _GRID_CACHE_CAPACITY:
        _GRID_CACHE.pop(next(iter(_GRID_CACHE)))
    _GRID_CACHE[key] = (tuple(grids), shared_times)
    return _GRID_CACHE[key]


def check_sampling_interval(interval_s: float) -> None:
    """Raise ``ValueError`` unless ``interval_s`` is finite and positive."""
    if not (math.isfinite(interval_s) and interval_s > 0):
        raise ValueError(
            f"sampling interval must be finite and positive, got {interval_s!r}"
        )


class ScorePTracer:
    """Traces platform executions with a set of metric plugins."""

    def __init__(
        self,
        platform: Platform,
        plugins: Sequence[MetricPlugin],
        *,
        sampling_interval_s: float = 0.1,
    ) -> None:
        check_sampling_interval(sampling_interval_s)
        if not plugins:
            raise ValueError("need at least one metric plugin")
        self.platform = platform
        self.plugins = list(plugins)
        self.sampling_interval_s = sampling_interval_s
        seen = set()
        self._plugin_defs = []
        for plugin in self.plugins:
            defs = tuple(plugin.metric_defs())
            for mdef in defs:
                if mdef.name in seen:
                    raise ValueError(f"metric {mdef.name!r} provided twice")
                seen.add(mdef.name)
            self._plugin_defs.append(defs)
        self._defs = tuple(mdef for defs in self._plugin_defs for mdef in defs)
        # Constant head of every plugin's RNG key, hashed once (the
        # per-run tail goes through SeedHasher.child in _record).
        self._plugin_names = [type(plugin).__name__ for plugin in self.plugins]
        self._base_hashers = [
            SeedHasher(platform.seed, "plugin", name)
            for name in self._plugin_names
        ]
        # Encoded phase-name suffixes, filled as names are first seen:
        # every event-set run of an experiment re-derives one stream
        # per (plugin, phase), so the byte form is worth keeping.
        self._name_blobs: dict = {}

    @overload
    def trace(self, runs: RunExecution) -> Trace: ...

    @overload
    def trace(self, runs: Sequence[RunExecution]) -> TraceBlock: ...

    def trace(self, runs):
        """Record one run's :class:`Trace`, or a block of runs.

        Given a sequence of runs, every (plugin, run, phase) stream is
        drawn into one stacked ``(metrics × samples)`` buffer and the
        plugins make one elementwise pass over it; the result is a
        :class:`~repro.tracing.otf2.TraceBlock`, which profile
        extraction reduces in one pass too.  Given a single run, the
        same code records a block of one and materializes its trace.

        Sample times form a run-global grid (plugins sample on their
        own clock, not aligned to phases), as Score-P async plugins do.
        Every plugin samples the same per-phase grid, so all metric
        streams of a run share ONE concatenated times array (also what
        lets profile extraction reuse its window bounds across
        streams).  Per-plugin RNG streams are ``derive_rng(seed,
        "plugin", plugin, workload, frequency, threads, run_index,
        phase)``, derived from a :class:`~repro.seeding.SeedHasher`
        holding the hashed run prefix, or replayed from a primed
        platform's state words.
        """
        if isinstance(runs, RunExecution):
            return self._record((runs,)).trace(0)
        runs = tuple(runs)
        if not runs:
            raise ValueError("need at least one run to trace")
        return self._record(runs)

    def sample_count(self, run: RunExecution) -> int:
        """Samples each metric stream of ``run``'s trace holds."""
        return _sample_grids(run.phases, self.sampling_interval_s)[1].size

    def _stream_rngs(self, run: RunExecution) -> List[List[np.random.Generator]]:
        """Per plugin, one generator per phase of ``run``.

        A primed platform (Platform.prime_rng_words) already expanded
        every stream seed of the run to PCG64 state words; the entry
        replays them in phase order — guarded by the phase-name tuple —
        and skips per-stream hashing and SeedSequence entirely, yielding
        the very generators a cold construction would.  Cold tracers
        take the incremental-hasher path: the run suffix and phase
        names are hashed by every plugin, so each is encoded once
        (phase-name byte forms persist across the event-set runs
        re-deriving the same streams).
        """
        plugin_names = self._plugin_names
        names = [phase.phase.name for phase in run.phases]
        entry = self.platform._rng_words.get(
            (run.workload_name, run.op.frequency_mhz,
             run.threads, run.run_index)
        )
        if entry is not None and entry.get("phases") != tuple(names):
            entry = None
        run_blob = None
        phase_blobs = None
        if entry is None or not all(p in entry for p in plugin_names):
            run_blob = SeedHasher.encode(
                run.workload_name, run.op.frequency_mhz,
                run.threads, run.run_index,
            )
            name_blobs = self._name_blobs
            phase_blobs = []
            for name in names:
                blob = name_blobs.get(name)
                if blob is None:
                    if len(name_blobs) >= 4096:
                        name_blobs.clear()
                    name_blobs[name] = blob = SeedHasher.encode(name)
                phase_blobs.append(blob)
        rngs = []
        for pname, base in zip(plugin_names, self._base_hashers):
            words = entry.get(pname) if entry is not None else None
            if words is not None:
                rngs.append([rng_from_state_words(w) for w in words])
            else:
                hasher = base.child_encoded(run_blob)
                rngs.append([hasher.rng_encoded(blob) for blob in phase_blobs])
        return rngs

    def _record(self, runs: Sequence[RunExecution]) -> TraceBlock:
        """The block of ``runs``."""
        dt = self.sampling_interval_s
        metas, intervals, times, offsets = [], [], [], [0]
        streams: List[Tuple[RunExecution, PhaseExecution]] = []
        sizes: List[int] = []
        rngs: List[list] = [[] for _ in self.plugins]
        for run in runs:
            phases = run.phases
            metas.append(
                {
                    "workload": run.workload_name,
                    "suite": run.suite,
                    "frequency_mhz": run.op.frequency_mhz,
                    "threads": run.threads,
                    "run_index": run.run_index,
                }
            )
            intervals.append(
                tuple(
                    (p.phase.name, p.start_s, p.end_s, p.phase.active_threads)
                    for p in phases
                )
            )
            grids, shared_times = _sample_grids(phases, dt)
            times.append(shared_times)
            offsets.append(offsets[-1] + shared_times.size)
            streams.extend((run, phase) for phase in phases)
            sizes.extend(grid.size for grid in grids)
            for plugin_rngs, run_rngs in zip(rngs, self._stream_rngs(run)):
                plugin_rngs.extend(run_rngs)

        # Metric names are unique across plugins (checked in __init__),
        # so each plugin fills the next rows, in definition order.
        values = np.empty((len(self._defs), offsets[-1]))
        row = 0
        for plugin, pname, defs, plugin_rngs in zip(
            self.plugins, self._plugin_names, self._plugin_defs, rngs
        ):
            sampled = plugin.sample(streams, sizes, dt, plugin_rngs)
            if sampled.shape != (len(defs), values.shape[1]):
                raise ValueError(
                    f"plugin {pname} sampled shape {sampled.shape}, "
                    f"not one row per metric on the shared grid"
                )
            values[row : row + len(defs)] = sampled
            row += len(defs)
        return TraceBlock(
            metas=tuple(metas),
            intervals=tuple(intervals),
            defs=self._defs,
            values=values,
            times=tuple(times),
            offsets=tuple(offsets),
        )


def trace_run(
    platform: Platform,
    run: RunExecution,
    event_set: EventSet,
    *,
    sampling_interval_s: float = 0.1,
) -> Trace:
    """Convenience: trace a run with the paper's three plugins."""
    tracer = ScorePTracer(
        platform,
        [
            PowerPlugin(platform),
            VoltagePlugin(platform),
            ApapiPlugin(platform, event_set),
        ],
        sampling_interval_s=sampling_interval_s,
    )
    return tracer.trace(run)


def trace_multiplexed_run(
    platform: Platform,
    run: RunExecution,
    events: Sequence[str],
    *,
    sampling_interval_s: float = 0.1,
) -> Trace:
    """Trace a run with time-division-multiplexed counter sampling:
    all requested events from a single run (see
    :class:`~repro.tracing.plugins.MultiplexedApapiPlugin`)."""
    from repro.tracing.plugins import MultiplexedApapiPlugin

    tracer = ScorePTracer(
        platform,
        [
            PowerPlugin(platform),
            VoltagePlugin(platform),
            MultiplexedApapiPlugin(platform, events),
        ],
        sampling_interval_s=sampling_interval_s,
    )
    return tracer.trace(run)
