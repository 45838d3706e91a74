"""Score-P-like tracer: execute a run and record an instrumented trace.

Mirrors the paper's acquisition path: the application (workload) runs
with compiler instrumentation (phase enter/leave events) while the
configured metric plugins asynchronously add power, voltage and PAPI
samples to the trace (Section III-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.hardware.platform import Platform, RunExecution
from repro.hardware.pmu import EventSet
from repro.seeding import SeedHasher, rng_from_state_words
from repro.tracing.otf2 import MetricStream, Trace
from repro.tracing.plugins import ApapiPlugin, MetricPlugin, PowerPlugin, VoltagePlugin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults → tracing)
    from repro.faults.injector import FaultInjector

__all__ = ["ScorePTracer", "trace_run", "trace_multiplexed_run"]

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


class ScorePTracer:
    """Traces platform executions with a set of metric plugins."""

    def __init__(
        self,
        platform: Platform,
        plugins: Sequence[MetricPlugin],
        *,
        sampling_interval_s: float = 0.1,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        if sampling_interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        if not plugins:
            raise ValueError("need at least one metric plugin")
        self.platform = platform
        self.plugins = list(plugins)
        self.sampling_interval_s = sampling_interval_s
        self.fault_injector = fault_injector
        seen = set()
        self._plugin_defs = []
        for plugin in self.plugins:
            defs = tuple(plugin.metric_defs())
            for mdef in defs:
                if mdef.name in seen:
                    raise ValueError(f"metric {mdef.name!r} provided twice")
                seen.add(mdef.name)
            self._plugin_defs.append(defs)
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

    def trace(self, run: RunExecution, *, attempt: int = 0) -> Trace:
        """Record the trace of one executed run.

        Sample times form a run-global grid (plugins sample on their
        own clock, not aligned to phases), as Score-P async plugins do.

        With a ``fault_injector`` attached, the finished trace passes
        through :meth:`~repro.faults.injector.FaultInjector.corrupt_trace`
        keyed by ``attempt`` — the measurement infrastructure, not the
        system under test, is what glitches.

        Every plugin samples the same per-phase grid, so all metric
        streams of a trace share ONE concatenated times array (also
        what lets :func:`repro.tracing.phases.profile_trace` reuse its
        window bounds across streams).  Per-plugin RNG streams are
        ``derive_rng(seed, "plugin", plugin, workload, frequency,
        threads, run_index, phase)``, derived from a
        :class:`~repro.seeding.SeedHasher` holding the hashed run
        prefix, or replayed from a primed platform's state words.
        """
        trace = self._record(run)
        if self.fault_injector is not None:
            trace = self.fault_injector.corrupt_trace(trace, attempt=attempt)
        return trace

    def _record(self, run: RunExecution) -> Trace:
        """The trace of one run, before any fault injection."""
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
        phases = run.phases
        for phase in phases:
            trace.record_enter(
                phase.phase.name, phase.start_s, phase.phase.active_threads
            )
            trace.record_leave(
                phase.phase.name, phase.end_s, phase.phase.active_threads
            )
        grids, shared_times = _sample_grids(phases, dt)
        shape = shared_times.shape

        # A primed platform (Platform.prime_rng_words) already expanded
        # every stream seed of this run to PCG64 state words; the entry
        # replays them in phase order — guarded by the phase-name
        # tuple — and skips per-stream hashing and SeedSequence
        # entirely, yielding the very generators a cold construction
        # would.  Cold tracers take the incremental-hasher path: the
        # run suffix and phase names are hashed by every plugin, so
        # each is encoded once (phase-name byte forms persist across
        # the event-set runs re-deriving the same streams).
        plugin_names = self._plugin_names
        names = [phase.phase.name for phase in phases]
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

        # Metric names are unique across plugins (checked in __init__),
        # so streams go straight into trace.metrics in definition order.
        metrics = trace.metrics
        for plugin, pname, base, defs in zip(
            self.plugins, plugin_names, self._base_hashers, self._plugin_defs
        ):
            words = entry.get(pname) if entry is not None else None
            if words is not None:
                rngs = [rng_from_state_words(w) for w in words]
            else:
                hasher = base.child_encoded(run_blob)
                rngs = [hasher.rng_encoded(blob) for blob in phase_blobs]
            sampled = plugin.sample_run(run, phases, grids, dt, rngs)
            for mdef in defs:
                values = sampled.pop(mdef.name, None)
                if values is None:
                    empty = np.array([])
                    metrics[mdef.name] = MetricStream.trusted(
                        mdef, empty, empty
                    )
                    continue
                if values.shape != shape:
                    raise ValueError(
                        f"metric {mdef.name!r} not sampled on the shared grid"
                    )
                metrics[mdef.name] = MetricStream.trusted(
                    mdef, shared_times, values
                )
            if sampled:
                raise ValueError(
                    f"plugin produced undeclared metric "
                    f"{next(iter(sampled))!r}"
                )
        return trace


def trace_run(
    platform: Platform,
    run: RunExecution,
    event_set: EventSet,
    *,
    sampling_interval_s: float = 0.1,
    fault_injector: Optional["FaultInjector"] = None,
    attempt: int = 0,
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
        fault_injector=fault_injector,
    )
    return tracer.trace(run, attempt=attempt)


def trace_multiplexed_run(
    platform: Platform,
    run: RunExecution,
    events: Sequence[str],
    *,
    sampling_interval_s: float = 0.1,
    fault_injector: Optional["FaultInjector"] = None,
    attempt: int = 0,
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
        fault_injector=fault_injector,
    )
    return tracer.trace(run, attempt=attempt)
