"""Online (run-time) power estimation from streaming counter samples.

The paper's opening motivation is "accurate real-time power information
for efficient power management".  A deployed PMC power model does not
see phase profiles — it sees a stream of counter deltas at some
sampling interval.  :class:`OnlineEstimator` consumes such a stream and
emits per-interval power estimates; :func:`estimate_run` drives it from
a simulated execution and returns the estimated and measured timelines
side by side, which is how the temporal-granularity advantage of models
over sensors is demonstrated.

One kernel
----------
The step itself is implemented once, vectorized over nodes, by
:class:`repro.serve.fleet.FleetEstimator`; :class:`OnlineEstimator` is
a one-node view over a fleet of one.  The serial implementation the
kernel was transliterated from lives in the tests as an oracle
(``tests/oracles/online.py``).

Drift defense (DESIGN.md §10)
-----------------------------
A deployed estimator also faces *inference-time* faults the training
campaign never saw: multiplexed-away counters, NaN deltas from a dying
perf fd, timestamps stepping backwards under NTP.
:meth:`OnlineEstimator.step` never raises on degraded input:

* invalid context (non-positive/non-finite interval, voltage, frequency)
  and non-monotonic timestamps **skip** the interval with a counted
  warning instead of raising mid-control-loop;
* intervals with missing / NaN / negative deltas for any model counter
  fall back from full Equation 1 to the PMC-free baseline
  :math:`\\beta V^2 f + \\gamma V + \\delta Z`;
* a **circuit breaker** opens after ``breaker_threshold`` consecutive
  degraded intervals and holds the estimator on the baseline until
  ``recovery_threshold`` consecutive clean intervals close it again —
  a flapping counter cannot whipsaw the estimate;
* a :class:`PowerEnvelope` (typically derived from the training data)
  bounds plausibility: model estimates outside it are replaced by the
  clipped baseline, and a window where more than ``drift_tolerance`` of
  the intervals are implausible latches **drift detected**.

Everything observed is tallied into a structured :class:`DriftReport`
(:meth:`OnlineEstimator.drift_report`).  ``smoothed_w`` stays finite
through all of this: every fallback produces a finite power before it
reaches the EWMA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.model import FittedPowerModel
from repro.core.report import render_counts
from repro.hardware.platform import Platform, RunExecution
from repro.hardware.pmu import EventSet
from repro.seeding import derive_rng

__all__ = [
    "ONLINE_STATE_FORMAT",
    "WARNINGS_KEPT",
    "OnlineEstimate",
    "OnlineEstimator",
    "OnlineTimeline",
    "PowerEnvelope",
    "DriftReport",
    "estimate_run",
    "estimate_run_degraded",
]

#: Version stamp of the :meth:`OnlineEstimator.state_dict` schema.
#: Bump when the schema changes; stale snapshots are migrated or
#: rejected, never misread.  Format 2 bounds the warnings (format 1
#: kept every one).
ONLINE_STATE_FORMAT = 2

#: Warning messages a node keeps: a ring of the most recent ones, next
#: to the ``n_warnings`` count of all of them, so per-node state stays
#: the same size however long the node misbehaves.
WARNINGS_KEPT = 16


@dataclass(frozen=True)
class OnlineEstimate:
    """One interval's estimate."""

    time_s: float
    power_w: float
    smoothed_w: float
    source: str = "model"
    """``"model"`` (full Equation 1) or ``"baseline"`` (PMC-free
    fallback βV²f + γV + δZ)."""
    flags: Tuple[str, ...] = ()
    """Degradation notes for this interval (missing counters, breaker
    state, plausibility clips); empty for a clean interval."""


@dataclass(frozen=True)
class PowerEnvelope:
    """Plausible node-power range used for online sanity checks.

    Derived from the training campaign: if the model never saw powers
    outside ``[lo_w, hi_w]``, an online estimate far outside that range
    says more about drift or counter corruption than about the machine.
    """

    lo_w: float
    hi_w: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo_w) and np.isfinite(self.hi_w)):
            raise ValueError("envelope bounds must be finite")
        if self.lo_w >= self.hi_w:
            raise ValueError(
                f"envelope lower bound {self.lo_w} must be below upper "
                f"bound {self.hi_w}"
            )

    @classmethod
    def from_dataset(cls, dataset, margin: float = 0.25) -> "PowerEnvelope":
        """Envelope spanning a dataset's measured power ± ``margin``
        (relative to the observed span, so a tight training range still
        leaves headroom)."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        power_w = np.asarray(dataset.power_w, dtype=np.float64)
        finite = power_w[np.isfinite(power_w)]
        if finite.size == 0:
            raise ValueError("dataset has no finite power samples")
        lo = float(finite.min())
        hi = float(finite.max())
        pad = margin * max(hi - lo, abs(hi), 1.0)
        return cls(lo_w=max(lo - pad, 0.0), hi_w=hi + pad)

    def contains(self, power_w: float) -> bool:
        return bool(
            np.isfinite(power_w) and self.lo_w <= power_w <= self.hi_w
        )

    def clip(self, power_w: float) -> float:
        """Clamp into the envelope; non-finite input lands mid-range."""
        if not np.isfinite(power_w):
            return 0.5 * (self.lo_w + self.hi_w)
        return float(min(max(power_w, self.lo_w), self.hi_w))


@dataclass(frozen=True)
class DriftReport:
    """Structured tally of one online estimation session."""

    n_intervals: int
    """Intervals that produced an estimate (model or baseline)."""
    n_model: int
    n_baseline: int
    n_skipped: int
    """Inputs rejected outright (bad context / non-monotonic time)."""
    n_implausible: int
    """Model estimates that fell outside the power envelope."""
    n_clipped: int
    """Estimates clamped into the envelope."""
    breaker_trips: int
    breaker_open_intervals: int
    breaker_open: bool
    """Whether the circuit breaker is open *now* (session end)."""
    drift_detected: bool
    drift_fraction: float
    """Implausible fraction over the most recent drift window."""
    warnings: Tuple[str, ...] = field(default=())
    """The last :data:`WARNINGS_KEPT` warnings, oldest first."""
    n_warnings: int = 0
    """Every warning raised, including those the ring has dropped."""

    @property
    def clean(self) -> bool:
        return (
            self.n_baseline == 0
            and self.n_skipped == 0
            and self.n_implausible == 0
            and not self.drift_detected
            and not self.warnings
        )

    def summary(self) -> str:
        counts = render_counts(
            {
                "intervals": self.n_intervals,
                "model": self.n_model,
                "baseline": self.n_baseline,
                "skipped": self.n_skipped,
                "implausible": self.n_implausible,
                "clipped": self.n_clipped,
                "breaker_trips": self.breaker_trips,
                "breaker_open_intervals": self.breaker_open_intervals,
                "warnings": self.n_warnings,
            },
            title="online estimation",
        )
        lines = [counts]
        if self.breaker_open:
            lines.append("circuit breaker OPEN at session end")
        if self.drift_detected:
            lines.append(
                f"DRIFT detected (implausible fraction "
                f"{self.drift_fraction:.0%} over recent window)"
            )
        lines.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(lines)


class OnlineEstimator:
    """Streaming Equation 1 evaluator for one node.

    A view over a one-node :class:`repro.serve.fleet.FleetEstimator`,
    the only implementation of the online step (see the module doc).

    Parameters
    ----------
    model:
        A fitted power model whose counters will be fed as deltas.
    smoothing:
        EWMA factor in (0, 1]; 1 disables smoothing.  Power-management
        loops usually want a little smoothing against PMU read noise.
    envelope:
        Optional plausibility bounds; estimates the model pushes
        outside the envelope fall back to the clipped baseline and
        count toward drift detection.
    breaker_threshold:
        Consecutive degraded intervals before the circuit breaker opens.
    recovery_threshold:
        Consecutive clean intervals required to close it again.
    drift_window / drift_tolerance:
        Drift is declared when more than ``drift_tolerance`` of the last
        ``drift_window`` produced intervals were implausible.
    """

    _NODE = "node"

    def __init__(
        self,
        model: FittedPowerModel,
        *,
        smoothing: float = 0.5,
        envelope: Optional[PowerEnvelope] = None,
        breaker_threshold: int = 3,
        recovery_threshold: int = 2,
        drift_window: int = 20,
        drift_tolerance: float = 0.5,
    ):
        from repro.serve.api import RowPacker
        from repro.serve.fleet import FleetEstimator

        self.model = model
        self._fleet = FleetEstimator(
            model,
            smoothing=smoothing,
            envelope=envelope,
            breaker_threshold=breaker_threshold,
            recovery_threshold=recovery_threshold,
            drift_window=drift_window,
            drift_tolerance=drift_tolerance,
            capacity=1,
        )
        self._fleet.ensure_node(self._NODE)
        self._row = RowPacker(self._NODE, self._fleet.counters)

    @property
    def breaker_open(self) -> bool:
        return self.drift_report().breaker_open

    def state_dict(self) -> Dict[str, object]:
        """Everything mutable, as plain scalars and lists.

        The returned dict is JSON/npz-serialisable, and
        :meth:`load_state` restores it so that a resumed stream is
        bit-identical to an uninterrupted one: subsequent estimates,
        breaker decisions, drift latching and the final
        :class:`DriftReport` all match exactly.
        """
        return self._fleet.node_state(self._NODE)

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (strict, validated).

        Unknown schema versions and malformed snapshots raise
        ``ValueError`` and leave the estimator as it was — a corrupt
        snapshot is discarded by the caller, never half-loaded.
        """
        self._fleet.load_node_state(self._NODE, state)

    def baseline_power(
        self, *, voltage_v: float, frequency_mhz: float
    ) -> float:
        """PMC-free Equation 1 baseline :math:`\\beta V^2 f + \\gamma V
        + \\delta Z` — what the model says about this operating point
        when no counter can be trusted."""
        return float(self._fleet.baseline_power(voltage_v, frequency_mhz))

    def step(
        self,
        counter_deltas: Dict[str, float],
        *,
        interval_s: float,
        voltage_v: float,
        frequency_mhz: float,
        time_s: Optional[float] = None,
    ) -> Optional[OnlineEstimate]:
        """Feed one sampling interval's counter deltas.

        ``counter_deltas`` are raw event counts accumulated over the
        interval for (at least) the model's counters.  Never raises on
        degraded input.  Returns ``None`` when the interval had to be
        skipped entirely (invalid context or a non-monotonic
        timestamp); otherwise returns an estimate whose
        ``source``/``flags`` say how it was produced.  All incidents
        are tallied for :meth:`drift_report`.
        """
        batch = self._row.pack(
            counter_deltas, interval_s, voltage_v, frequency_mhz, time_s
        )
        return self._fleet.step_batch(batch).estimate(0)

    def drift_report(self) -> DriftReport:
        """Structured account of everything :meth:`step` observed."""
        return self._fleet.drift_report(self._NODE)


@dataclass(frozen=True)
class OnlineTimeline:
    """Estimated vs measured power over one simulated execution."""

    times_s: np.ndarray
    estimated_w: np.ndarray
    smoothed_w: np.ndarray
    measured_w: np.ndarray

    def mape(self) -> float:
        from repro.stats.metrics import mape as _mape

        return _mape(self.measured_w, self.estimated_w)

    def tracks_phase_changes(self, threshold_w: float = 5.0) -> bool:
        """Does the estimate move with the measurement between
        consecutive intervals whenever the measurement moves a lot?"""
        dm = np.diff(self.measured_w)
        de = np.diff(self.estimated_w)
        big = np.abs(dm) > threshold_w
        if not np.any(big):
            return True
        return bool(np.all(np.sign(dm[big]) == np.sign(de[big])))


def _stream_run(
    platform: Platform,
    run: RunExecution,
    model: FittedPowerModel,
    estimator: OnlineEstimator,
    *,
    interval_s: float,
    injector=None,
) -> OnlineTimeline:
    """Shared driver: stream a simulated run through an estimator,
    optionally corrupting each interval's deltas with an online fault
    injector."""
    rng = derive_rng(
        platform.seed, "online", run.workload_name,
        run.op.frequency_mhz, run.threads, run.run_index,
    )
    times, measured, estimates = [], [], []
    f_hz = run.op.frequency_hz
    interval_index = 0
    for phase in run.phases:
        n = max(int(np.floor(phase.duration_s / interval_s)), 1)
        for k in range(1, n + 1):
            t = phase.start_s + k * interval_s
            if t > phase.end_s + 1e-9:
                break
            deltas = {}
            for counter in model.counters:
                true = phase.state.rate(counter) * f_hz * interval_s
                noise = 1.0 + rng.normal(0.0, platform.pmu.read_noise_sigma)
                deltas[counter] = max(true * noise, 0.0)
            voltage_v_mean = platform.voltage.read_average(
                run.op, phase.phase.active_threads, 1, rng
            )
            if injector is not None:
                deltas = injector.corrupt(deltas, interval_index)
            estimate = estimator.step(
                deltas,
                interval_s=interval_s,
                voltage_v=voltage_v_mean,
                frequency_mhz=run.op.frequency_mhz,
                time_s=t,
            )
            interval_index += 1
            if estimate is None:
                continue
            measured.append(
                platform.sensors.measure_node_average(
                    phase.power_breakdown.per_socket_w, interval_s, rng
                )
            )
            times.append(t)
            estimates.append(estimate)
    return OnlineTimeline(
        times_s=np.asarray(times),
        estimated_w=np.asarray([e.power_w for e in estimates]),
        smoothed_w=np.asarray([e.smoothed_w for e in estimates]),
        measured_w=np.asarray(measured),
    )


def estimate_run(
    platform: Platform,
    run: RunExecution,
    model: FittedPowerModel,
    *,
    interval_s: float = 0.5,
    smoothing: float = 1.0,
) -> OnlineTimeline:
    """Stream a simulated run through the online estimator.

    Counter deltas are sampled from the run's ground truth with PMU
    read noise; the measured series comes from the power sensors at the
    same cadence — the comparison a deployment validation would make.
    """
    estimator = OnlineEstimator(model, smoothing=smoothing)
    EventSet(events=tuple(model.counters))  # validates the counter set
    return _stream_run(
        platform, run, model, estimator, interval_s=interval_s
    )


def estimate_run_degraded(
    platform: Platform,
    run: RunExecution,
    model: FittedPowerModel,
    *,
    faults,
    interval_s: float = 0.5,
    smoothing: float = 1.0,
    envelope: Optional[PowerEnvelope] = None,
    breaker_threshold: int = 3,
    recovery_threshold: int = 2,
) -> Tuple[OnlineTimeline, DriftReport]:
    """Stream a simulated run through the *hardened* estimator while an
    inference-time fault injector corrupts the counter stream.

    ``faults`` is a :class:`repro.faults.online.CounterLossPlan`; the
    injector is keyed by the platform seed, so the same (platform,
    plan) pair reproduces the same degraded session bit for bit.
    Returns the timeline together with the session's
    :class:`DriftReport`.
    """
    from repro.faults.online import OnlineFaultInjector

    estimator = OnlineEstimator(
        model,
        smoothing=smoothing,
        envelope=envelope,
        breaker_threshold=breaker_threshold,
        recovery_threshold=recovery_threshold,
    )
    EventSet(events=tuple(model.counters))  # validates the counter set
    injector = OnlineFaultInjector(faults, platform.seed)
    timeline = _stream_run(
        platform,
        run,
        model,
        estimator,
        interval_s=interval_s,
        injector=injector,
    )
    return timeline, estimator.drift_report()
