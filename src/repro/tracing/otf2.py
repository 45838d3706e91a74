"""A lightweight OTF2-inspired trace format.

The paper's data path runs through Open Trace Format 2 files produced
by Score-P: "It consists of a stream of events chronologically ordered
by the time of their occurrence, and information about the state and
configuration of the target system" (Section III-A).

We keep that structure — definitions + chronologically ordered region
events + per-metric sample streams — but store each metric stream as a
pair of numpy arrays (timestamps, values).  That is both closer to how
OTF2 encodes metric classes than per-sample Python objects would be,
and orders of magnitude cheaper for the multi-minute SPEC traces.
Traces live in memory only: the tracer hands them straight to phase
profile extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["MetricDef", "RegionEvent", "MetricStream", "Trace", "TraceBlock"]


@dataclass(frozen=True)
class MetricDef:
    """Definition record of one metric (name, unit, mode)."""

    name: str
    unit: str
    mode: str = "absolute_point"
    """``absolute_point`` (sampled value) or ``accumulated`` (counter)."""


@dataclass(frozen=True)
class RegionEvent:
    """An Enter or Leave event of an instrumented region."""

    kind: str  # "enter" | "leave"
    region: str
    time_s: float
    active_threads: int

    def __post_init__(self) -> None:
        if self.kind not in ("enter", "leave"):
            raise ValueError(f"event kind must be enter/leave, got {self.kind!r}")
        if self.time_s < 0:
            raise ValueError("event time cannot be negative")


@dataclass
class MetricStream:
    """Sampled values of one metric over the trace duration."""

    definition: MetricDef
    times_s: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times_s = np.asarray(self.times_s, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times_s.shape != self.values.shape:
            raise ValueError("times and values must have the same shape")
        if self.times_s.ndim != 1:
            raise ValueError("metric streams are 1-D")
        if self.times_s.size and np.any(np.diff(self.times_s) < 0):
            raise ValueError(
                f"metric {self.definition.name!r}: samples not chronological"
            )

    @staticmethod
    def trusted(
        definition: MetricDef, times_s: np.ndarray, values: np.ndarray
    ) -> "MetricStream":
        """Construct without ``__post_init__`` validation.

        For internal producers whose arrays are float64, 1-D, equal
        length and chronological *by construction* (the tracer fast
        path, which also shares one times array across all streams of
        a trace).  External data must go through the normal
        constructor.
        """
        stream = MetricStream.__new__(MetricStream)
        stream.definition = definition
        stream.times_s = times_s
        stream.values = values
        return stream


class Trace:
    """One OTF2-like application trace.

    Region events must be recorded in chronological order with balanced
    enter/leave nesting (flat phase sequences in this reproduction).
    """

    def __init__(self, meta: Optional[Dict[str, Union[str, int, float]]] = None):
        self.meta: Dict[str, Union[str, int, float]] = dict(meta or {})
        self.events: List[RegionEvent] = []
        self.metrics: Dict[str, MetricStream] = {}
        self._open_regions: List[str] = []
        self._last_time = 0.0
        self._intervals_cache: Optional[
            List[Tuple[str, float, float, int]]
        ] = None

    # ------------------------------------------------------------------
    def record_enter(self, region: str, time_s: float, active_threads: int) -> None:
        self._check_time(time_s)
        self.events.append(RegionEvent("enter", region, time_s, active_threads))
        self._open_regions.append(region)
        self._intervals_cache = None

    def record_leave(self, region: str, time_s: float, active_threads: int) -> None:
        self._check_time(time_s)
        if not self._open_regions or self._open_regions[-1] != region:
            raise ValueError(
                f"unbalanced leave of region {region!r} "
                f"(open: {self._open_regions})"
            )
        self.events.append(RegionEvent("leave", region, time_s, active_threads))
        self._open_regions.pop()
        self._intervals_cache = None

    def _check_time(self, time_s: float) -> None:
        if time_s < self._last_time - 1e-12:
            raise ValueError(
                f"event at {time_s} out of chronological order "
                f"(last was {self._last_time})"
            )
        self._last_time = max(self._last_time, time_s)

    def add_metric_stream(self, stream: MetricStream) -> None:
        name = stream.definition.name
        if name in self.metrics:
            raise ValueError(f"duplicate metric stream {name!r}")
        self.metrics[name] = stream

    # ------------------------------------------------------------------
    def phase_intervals(self) -> List[Tuple[str, float, float, int]]:
        """(region, start, end, active_threads) per completed region.

        Memoized until the next recorded event: profile extraction and
        trace validation both walk the intervals, and the event list is
        final once tracing ends.
        """
        if self._open_regions:
            raise ValueError(f"trace has unclosed regions: {self._open_regions}")
        if self._intervals_cache is not None:
            return self._intervals_cache
        intervals: List[Tuple[str, float, float, int]] = []
        stack: List[RegionEvent] = []
        for ev in self.events:
            if ev.kind == "enter":
                stack.append(ev)
            else:
                enter = stack.pop()
                intervals.append(
                    (ev.region, enter.time_s, ev.time_s, enter.active_threads)
                )
        self._intervals_cache = intervals
        return intervals

    @property
    def duration_s(self) -> float:
        return self._last_time


@dataclass(frozen=True, eq=False)
class TraceBlock:
    """The metric samples of several runs traced by one tracer, stacked.

    ``values`` is one ``(metrics × samples)`` buffer: row ``m`` holds
    metric ``defs[m]`` and run ``r`` owns columns
    ``offsets[r]:offsets[r + 1]``, sampled at ``times[r]`` (the run's
    shared grid).  ``metas[r]`` and ``intervals[r]`` are what run
    ``r``'s :class:`Trace` would carry as ``meta`` and
    :meth:`Trace.phase_intervals`.  A block is what profile extraction
    reduces in one pass; :meth:`trace` materializes one run's trace
    for callers that need the OTF2 view.
    """

    metas: Tuple[Dict[str, Union[str, int, float]], ...]
    intervals: Tuple[Tuple[Tuple[str, float, float, int], ...], ...]
    defs: Tuple[MetricDef, ...]
    values: np.ndarray
    times: Tuple[np.ndarray, ...]
    offsets: Tuple[int, ...]

    def trace(self, r: int) -> Trace:
        """Run ``r``'s trace; its streams share the run's times array
        and view the block's rows."""
        trace = Trace(meta=self.metas[r])
        for region, start_s, end_s, active in self.intervals[r]:
            trace.record_enter(region, start_s, active)
            trace.record_leave(region, end_s, active)
        times = self.times[r]
        lo, hi = self.offsets[r], self.offsets[r + 1]
        for mdef, row in zip(self.defs, self.values):
            trace.metrics[mdef.name] = MetricStream.trusted(mdef, times, row[lo:hi])
        return trace
