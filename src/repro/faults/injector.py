"""Deterministic fault injection for platforms and traces.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete failures.  Every decision is drawn from a stream derived
via :func:`repro.seeding.derive_rng` from ``(root_seed, "fault",
fault_seed, kind, cell key…, attempt)``:

* decisions are **reproducible** — the same seed and plan replay the
  same faults, so chaos tests assert exact outcomes;
* decisions are **per (cell, attempt)** — a retry of a crashed run is
  a fresh draw, exactly like re-launching a flaky job, while being
  independent of *when* the retry happens.  This is what makes an
  interrupted-and-resumed campaign bit-identical to an uninterrupted
  one.

Injection sites mirror the real acquisition stack: run crashes before
the campaign executes a cell (:meth:`FaultInjector.check_run`),
everything else as corruption of the recorded trace (sensor dropout /
stuck-at / NaN readings on the power stream, 48-bit wrap on PMC
streams, truncation of the event record).
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Tuple, Union

import numpy as np

from repro.faults.errors import RunFailure
from repro.faults.plan import FaultPlan
from repro.seeding import derive_rng
from repro.tracing.otf2 import MetricStream, Trace
from repro.tracing.plugins import ApapiPlugin, PowerPlugin

__all__ = ["FaultInjector", "OVERFLOW_RATE_PER_S"]

#: Reported event rate of a wrapped/saturated 48-bit PMC read.  Orders
#: of magnitude above anything a ~3 GHz chip can produce, so the
#: watchdog's plausibility check always catches it.
OVERFLOW_RATE_PER_S = float(2**48)

_CellKey = Tuple[str, int, int, int]  # workload, freq_mhz, threads, run_index


class FaultInjector:
    """Applies a :class:`FaultPlan` to runs and traces, deterministically."""

    def __init__(self, plan: FaultPlan, root_seed: int) -> None:
        self.plan = plan
        self.root_seed = int(root_seed)
        # An inactive plan never crashes a run: the paper campaign
        # pays one attribute test per cell.
        self._crashes = bool(plan.kill_cells) or plan.run_failure_rate > 0.0

    # ------------------------------------------------------------------
    def _rng(self, kind: str, *key: Union[str, int]) -> np.random.Generator:
        return derive_rng(
            self.root_seed, "fault", self.plan.fault_seed, kind, *key
        )

    def _event(self, rate: float, kind: str, *key: Union[str, int]) -> bool:
        if rate <= 0.0:
            return False
        return bool(self._rng(kind, *key).random() < rate)

    @staticmethod
    def _cell_tag(cell: _CellKey) -> str:
        workload, frequency_mhz, threads, run_index = cell
        return f"{workload}:{frequency_mhz}:{threads}:{run_index}"

    # ------------------------------------------------------------------
    # run-level faults
    # ------------------------------------------------------------------
    def check_run(
        self,
        workload: str,
        frequency_mhz: int,
        threads: int,
        run_index: int,
        *,
        attempt: int = 0,
    ) -> None:
        """Raise :class:`RunFailure` if this (cell, attempt) crashes."""
        if not self._crashes:
            return
        cell: _CellKey = (workload, int(frequency_mhz), int(threads), int(run_index))
        tag = self._cell_tag(cell)
        for pattern in self.plan.kill_cells:
            if fnmatch(tag, pattern):
                raise RunFailure(
                    f"run {tag} attempt {attempt}: cell matches kill "
                    f"pattern {pattern!r} (persistently broken)",
                    kind="cell-killed",
                )
        if self._event(self.plan.run_failure_rate, "run-crash", *cell, attempt):
            raise RunFailure(
                f"run {tag} attempt {attempt}: transient crash injected"
            )

    # ------------------------------------------------------------------
    # trace-level faults
    # ------------------------------------------------------------------
    def corrupt_trace(self, trace: Trace, *, attempt: int = 0) -> Trace:
        """Return ``trace`` with this plan's corruptions applied.

        The input trace is not modified.  Faults are keyed by the run
        identity in ``trace.meta`` plus ``attempt``.
        """
        if not self.plan.corrupts_traces:
            return trace
        meta = trace.meta
        cell: _CellKey = (
            str(meta["workload"]),
            int(meta["frequency_mhz"]),
            int(meta["threads"]),
            int(meta["run_index"]),
        )
        out = self._maybe_truncate(trace, cell, attempt)
        self._corrupt_power_stream(out, cell, attempt)
        self._corrupt_counter_streams(out, cell, attempt)
        return out

    # -- truncation ----------------------------------------------------
    def _maybe_truncate(self, trace: Trace, cell: _CellKey, attempt: int) -> Trace:
        rng = self._rng("truncate", *cell, attempt)
        copy = self._copy_trace(trace)
        if not (
            self.plan.trace_truncation_rate > 0.0
            and rng.random() < self.plan.trace_truncation_rate
        ):
            return copy
        cut_s = float(rng.uniform(0.25, 0.9)) * trace.duration_s
        truncated = Trace(meta=dict(trace.meta))
        for region, start_s, end_s, active in trace.phase_intervals():
            if end_s <= cut_s:
                truncated.record_enter(region, start_s, active)
                truncated.record_leave(region, end_s, active)
        for name, stream in trace.metrics.items():
            keep = stream.times_s <= cut_s
            truncated.add_metric_stream(
                MetricStream(
                    definition=stream.definition,
                    times_s=stream.times_s[keep],
                    values=stream.values[keep].copy(),
                )
            )
        return truncated

    @staticmethod
    def _copy_trace(trace: Trace) -> Trace:
        """Shallow-structure copy with fresh value arrays (so stream
        corruption never mutates the caller's trace)."""
        copy = Trace(meta=dict(trace.meta))
        copy.events = list(trace.events)
        copy._open_regions = list(trace._open_regions)
        copy._last_time = trace._last_time
        for name, stream in trace.metrics.items():
            copy.add_metric_stream(
                MetricStream(
                    definition=stream.definition,
                    times_s=stream.times_s,
                    values=stream.values.copy(),
                )
            )
        return copy

    # -- power-sensor glitches ----------------------------------------
    def _corrupt_power_stream(
        self, trace: Trace, cell: _CellKey, attempt: int
    ) -> None:
        stream = trace.metrics.get(PowerPlugin.METRIC)
        if stream is None or stream.values.size == 0:
            return
        values = stream.values
        n = values.size
        if self.plan.nan_sample_rate > 0.0:
            rng = self._rng("nan-sample", *cell, attempt)
            values[rng.random(n) < self.plan.nan_sample_rate] = np.nan
        if self._event(self.plan.sensor_dropout_rate, "sensor-dropout", *cell, attempt):
            rng = self._rng("sensor-dropout-window", *cell, attempt)
            width = max(int(n * float(rng.uniform(0.1, 0.4))), 1)
            start = int(rng.integers(0, max(n - width, 0) + 1))
            values[start : start + width] = np.nan
        if self._event(self.plan.sensor_stuck_rate, "sensor-stuck", *cell, attempt):
            rng = self._rng("sensor-stuck-index", *cell, attempt)
            idx = int(rng.integers(0, max(n - 8, 0) + 1))
            values[idx:] = values[idx]

    # -- PMC overflow ---------------------------------------------------
    def _corrupt_counter_streams(
        self, trace: Trace, cell: _CellKey, attempt: int
    ) -> None:
        if self.plan.counter_overflow_rate <= 0.0:
            return
        for name, stream in trace.metrics.items():
            if not name.startswith(ApapiPlugin.PREFIX):
                continue
            if stream.values.size == 0:
                continue
            if not self._event(
                self.plan.counter_overflow_rate, "overflow", *cell, name, attempt
            ):
                continue
            rng = self._rng("overflow-index", *cell, name, attempt)
            n = stream.values.size
            width = max(n // 10, 1)
            start = int(rng.integers(0, max(n - width, 0) + 1))
            stream.values[start : start + width] = OVERFLOW_RATE_PER_S
