"""Serial online-estimator oracle: the per-node ``step``, verbatim.

Production online estimation has one kernel,
:meth:`repro.serve.fleet.FleetEstimator.step_batch`, and
:class:`repro.core.online.OnlineEstimator` is a one-node view over it.
This module keeps the original scalar estimator that the kernel was
transliterated from — one node, one interval at a time, branches
instead of masks — together with its strict ``update`` and its
``history``/``reset``.  Tests feed it the same samples as production and
assert every estimate, flag, warning, breaker decision and
:class:`~repro.core.online.DriftReport` equal with ``==`` on floats; a
state it writes must load into production and resume bit-identically.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import FittedPowerModel
from repro.core.online import (
    ONLINE_STATE_FORMAT,
    WARNINGS_KEPT,
    DriftReport,
    OnlineEstimate,
    PowerEnvelope,
)

__all__ = ["OnlineEstimator"]


class OnlineEstimator:
    """Streaming Equation 1 evaluator.

    Parameters
    ----------
    model:
        A fitted power model whose counters will be fed as deltas.
    smoothing:
        EWMA factor in (0, 1]; 1 disables smoothing.  Power-management
        loops usually want a little smoothing against PMU read noise.
    envelope:
        Optional plausibility bounds for :meth:`step`; estimates the
        model pushes outside the envelope fall back to the clipped
        baseline and count toward drift detection.
    breaker_threshold:
        Consecutive degraded intervals before the circuit breaker opens.
    recovery_threshold:
        Consecutive clean intervals required to close it again.
    drift_window / drift_tolerance:
        Drift is declared when more than ``drift_tolerance`` of the last
        ``drift_window`` produced intervals were implausible.
    """

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
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if recovery_threshold < 1:
            raise ValueError("recovery_threshold must be at least 1")
        if drift_window < 1:
            raise ValueError("drift_window must be at least 1")
        if not 0.0 < drift_tolerance <= 1.0:
            raise ValueError(
                f"drift_tolerance must be in (0, 1], got {drift_tolerance}"
            )
        self.model = model
        self.smoothing = smoothing
        self.envelope = envelope
        self.breaker_threshold = breaker_threshold
        self.recovery_threshold = recovery_threshold
        self.drift_window = drift_window
        self.drift_tolerance = drift_tolerance
        self._smoothed: Optional[float] = None
        self._history: List[OnlineEstimate] = []
        self._warnings: Deque[str] = deque(maxlen=WARNINGS_KEPT)
        self._n_warnings = 0
        self._last_time: Optional[float] = None
        self._n_intervals = 0
        self._seen = 0
        self._n_model = 0
        self._n_baseline = 0
        self._n_skipped = 0
        self._n_implausible = 0
        self._n_clipped = 0
        self._breaker_open = False
        self._breaker_trips = 0
        self._breaker_open_intervals = 0
        self._consecutive_bad = 0
        self._consecutive_good = 0
        self._implausible_window: List[bool] = []
        self._drift_detected = False

    @property
    def history(self) -> Tuple[OnlineEstimate, ...]:
        return tuple(self._history)

    @property
    def warnings(self) -> Tuple[str, ...]:
        return tuple(self._warnings)

    @property
    def breaker_open(self) -> bool:
        return self._breaker_open

    def reset(self) -> None:
        self._smoothed = None
        self._history.clear()
        self._warnings.clear()
        self._n_warnings = 0
        self._last_time = None
        self._n_intervals = 0
        self._seen = 0
        self._n_model = 0
        self._n_baseline = 0
        self._n_skipped = 0
        self._n_implausible = 0
        self._n_clipped = 0
        self._breaker_open = False
        self._breaker_trips = 0
        self._breaker_open_intervals = 0
        self._consecutive_bad = 0
        self._consecutive_good = 0
        self._implausible_window.clear()
        self._drift_detected = False

    # ------------------------------------------------------------------
    # Snapshot-safe state round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Everything mutable, as plain scalars and lists.

        The returned dict is JSON/npz-serialisable — no locks, no
        closures, no object graphs — and :meth:`load_state` restores it
        so that a resumed stream is bit-identical to an uninterrupted
        one: subsequent estimates, breaker decisions, drift latching
        and the final :class:`DriftReport` all match exactly.  The
        per-interval ``history`` is deliberately *not* part of the
        state (it is an unbounded observability log, not estimator
        state); a restored instance starts with an empty history.
        """
        return {
            "format": ONLINE_STATE_FORMAT,
            "smoothed": self._smoothed,
            "last_time": self._last_time,
            "n_intervals": self._n_intervals,
            "seen": self._seen,
            "n_model": self._n_model,
            "n_baseline": self._n_baseline,
            "n_skipped": self._n_skipped,
            "n_implausible": self._n_implausible,
            "n_clipped": self._n_clipped,
            "breaker_open": self._breaker_open,
            "breaker_trips": self._breaker_trips,
            "breaker_open_intervals": self._breaker_open_intervals,
            "consecutive_bad": self._consecutive_bad,
            "consecutive_good": self._consecutive_good,
            "implausible_window": [bool(b) for b in self._implausible_window],
            "drift_detected": self._drift_detected,
            "warnings": list(self._warnings),
            "n_warnings": self._n_warnings,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (strict, validated).

        Unknown schema versions and malformed snapshots raise
        ``ValueError`` — a corrupt snapshot must be discarded by the
        caller (and the estimator rebuilt from the baseline model),
        never half-loaded.
        """
        if not isinstance(state, dict):
            raise ValueError("estimator state must be a dict")
        if state.get("format") != ONLINE_STATE_FORMAT:
            raise ValueError(
                f"unknown estimator state format {state.get('format')!r} "
                f"(expected {ONLINE_STATE_FORMAT})"
            )
        try:
            smoothed = state["smoothed"]
            last_time = state["last_time"]
            window = list(state["implausible_window"])
            warnings = [str(w) for w in state["warnings"]]
            ints = {
                key: int(state[key])  # type: ignore[arg-type]
                for key in (
                    "n_intervals", "seen", "n_model", "n_baseline",
                    "n_skipped", "n_implausible", "n_clipped",
                    "breaker_trips", "breaker_open_intervals",
                    "consecutive_bad", "consecutive_good", "n_warnings",
                )
            }
            breaker_open = bool(state["breaker_open"])
            drift_detected = bool(state["drift_detected"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed estimator state: {exc}") from exc
        if smoothed is not None and not np.isfinite(float(smoothed)):
            raise ValueError("estimator state carries a non-finite EWMA")
        if len(window) > self.drift_window:
            raise ValueError(
                "estimator state drift window longer than configured"
            )
        if any(v < 0 for v in ints.values()):
            raise ValueError("estimator state counters must be non-negative")
        self.reset()
        self._smoothed = None if smoothed is None else float(smoothed)
        self._last_time = None if last_time is None else float(last_time)
        self._n_intervals = ints["n_intervals"]
        self._seen = ints["seen"]
        self._n_model = ints["n_model"]
        self._n_baseline = ints["n_baseline"]
        self._n_skipped = ints["n_skipped"]
        self._n_implausible = ints["n_implausible"]
        self._n_clipped = ints["n_clipped"]
        self._breaker_trips = ints["breaker_trips"]
        self._breaker_open_intervals = ints["breaker_open_intervals"]
        self._consecutive_bad = ints["consecutive_bad"]
        self._consecutive_good = ints["consecutive_good"]
        self._breaker_open = breaker_open
        self._drift_detected = drift_detected
        self._implausible_window = [bool(b) for b in window]
        self._warnings.extend(warnings)
        self._n_warnings = ints["n_warnings"]

    # ------------------------------------------------------------------
    # Equation 1 pieces
    # ------------------------------------------------------------------
    def _structural_terms(
        self, voltage_v: float, frequency_mhz: float
    ) -> Tuple[float, float]:
        v2f = voltage_v * voltage_v * (frequency_mhz / 1000.0)
        coeffs = self.model.coefficients
        baseline = (
            coeffs["beta:V2f"] * v2f
            + coeffs["gamma:V"] * voltage_v
            + coeffs["delta:Z"]
        )
        return v2f, baseline

    def baseline_power(
        self, *, voltage_v: float, frequency_mhz: float
    ) -> float:
        """PMC-free Equation 1 baseline :math:`\\beta V^2 f + \\gamma V
        + \\delta Z` — what the model says about this operating point
        when no counter can be trusted."""
        _, baseline = self._structural_terms(voltage_v, frequency_mhz)
        return baseline

    def _model_power(
        self,
        counter_deltas: Dict[str, float],
        interval_s: float,
        voltage_v: float,
        frequency_mhz: float,
    ) -> float:
        cycles = frequency_mhz * 1e6 * interval_s
        v2f, power_w = self._structural_terms(voltage_v, frequency_mhz)
        coeffs = self.model.coefficients
        for counter in self.model.counters:
            rate = counter_deltas[counter] / cycles
            power_w += coeffs[f"alpha:{counter}"] * rate * v2f
        return power_w

    def _record(
        self,
        power_w: float,
        time_s: Optional[float],
        interval_s: float,
        source: str,
        flags: Tuple[str, ...],
    ) -> OnlineEstimate:
        if self._smoothed is None:
            self._smoothed = power_w
        else:
            self._smoothed = (
                self.smoothing * power_w
                + (1.0 - self.smoothing) * self._smoothed
            )
        # The previous recorded timestamp is tracked explicitly (not
        # read off the history tail) so a snapshot-restored estimator —
        # whose history starts empty — continues the timeline exactly.
        t = time_s if time_s is not None else (
            self._last_time + interval_s
            if self._last_time is not None
            else interval_s
        )
        self._last_time = t
        self._n_intervals += 1
        estimate = OnlineEstimate(
            time_s=t,
            power_w=power_w,
            smoothed_w=self._smoothed,
            source=source,
            flags=flags,
        )
        self._history.append(estimate)
        return estimate

    # ------------------------------------------------------------------
    # Strict path (historical contract: raise on anything suspect)
    # ------------------------------------------------------------------
    def update(
        self,
        counter_deltas: Dict[str, float],
        *,
        interval_s: float,
        voltage_v: float,
        frequency_mhz: float,
        time_s: Optional[float] = None,
    ) -> OnlineEstimate:
        """Feed one sampling interval's counter deltas.

        ``counter_deltas`` are raw event counts accumulated over the
        interval for (at least) the model's counters.  Returns the
        instantaneous and smoothed power estimates.  Invalid input
        raises — use :meth:`step` for the fault-tolerant variant.
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        if voltage_v <= 0 or frequency_mhz <= 0:
            raise ValueError("voltage and frequency must be positive")
        missing = [c for c in self.model.counters if c not in counter_deltas]
        if missing:
            raise KeyError(
                f"counter deltas missing model events: {missing}"
            )
        power_w = self._model_power(
            counter_deltas, interval_s, voltage_v, frequency_mhz
        )
        self._seen += 1
        self._n_model += 1
        return self._record(power_w, time_s, interval_s, "model", ())

    # ------------------------------------------------------------------
    # Hardened path
    # ------------------------------------------------------------------
    def _warn(self, message: str) -> None:
        self._n_warnings += 1
        self._warnings.append(f"interval {self._seen}: {message}")

    def _update_breaker(self, interval_good: bool) -> None:
        if interval_good:
            self._consecutive_good += 1
            self._consecutive_bad = 0
            if (
                self._breaker_open
                and self._consecutive_good >= self.recovery_threshold
            ):
                self._breaker_open = False
                self._warn(
                    f"circuit breaker closed after "
                    f"{self._consecutive_good} clean intervals"
                )
        else:
            self._consecutive_bad += 1
            self._consecutive_good = 0
            if (
                not self._breaker_open
                and self._consecutive_bad >= self.breaker_threshold
            ):
                self._breaker_open = True
                self._breaker_trips += 1
                self._warn(
                    f"circuit breaker opened after "
                    f"{self._consecutive_bad} degraded intervals"
                )

    def _track_drift(self, implausible: bool) -> None:
        self._implausible_window.append(implausible)
        if len(self._implausible_window) > self.drift_window:
            del self._implausible_window[0]
        if (
            len(self._implausible_window) == self.drift_window
            and not self._drift_detected
            and self._drift_fraction() > self.drift_tolerance
        ):
            self._drift_detected = True
            self._warn(
                f"drift detected: {self._drift_fraction():.0%} of the "
                f"last {self.drift_window} intervals implausible"
            )

    def _drift_fraction(self) -> float:
        if not self._implausible_window:
            return 0.0
        return sum(self._implausible_window) / len(self._implausible_window)

    def step(
        self,
        counter_deltas: Dict[str, float],
        *,
        interval_s: float,
        voltage_v: float,
        frequency_mhz: float,
        time_s: Optional[float] = None,
    ) -> Optional[OnlineEstimate]:
        """Fault-tolerant variant of :meth:`update`.

        Never raises on degraded input.  Returns ``None`` when the
        interval had to be skipped entirely (invalid context or a
        non-monotonic timestamp); otherwise returns an estimate whose
        ``source``/``flags`` say how it was produced.  All incidents
        are tallied for :meth:`drift_report`.
        """
        self._seen += 1
        context = (interval_s, voltage_v, frequency_mhz)
        if not all(np.isfinite(v) and v > 0 for v in context):
            self._n_skipped += 1
            self._warn(
                f"skipped: invalid context (interval={interval_s}, "
                f"voltage={voltage_v}, frequency={frequency_mhz})"
            )
            return None
        if (
            time_s is not None
            and self._last_time is not None
            and time_s <= self._last_time
        ):
            self._n_skipped += 1
            self._warn(
                f"skipped: non-monotonic timestamp {time_s} after "
                f"{self._last_time}"
            )
            return None

        flags: List[str] = []
        bad: List[str] = []
        for counter in self.model.counters:
            value = counter_deltas.get(counter)
            if value is None:
                bad.append(f"{counter} missing")
            elif not np.isfinite(value):
                bad.append(f"{counter} non-finite")
            elif value < 0:
                bad.append(f"{counter} negative")
        interval_good = not bad
        if bad:
            flags.append("degraded-counters: " + "; ".join(bad))
            self._warn("degraded counters: " + "; ".join(bad))
        self._update_breaker(interval_good)
        if self._breaker_open:
            self._breaker_open_intervals += 1
            flags.append("breaker-open")

        _, baseline = self._structural_terms(voltage_v, frequency_mhz)
        implausible = False
        if interval_good and not self._breaker_open:
            power_w = self._model_power(
                counter_deltas, interval_s, voltage_v, frequency_mhz
            )
            plausible = np.isfinite(power_w) and (
                self.envelope is None or self.envelope.contains(power_w)
            )
            if plausible:
                source = "model"
                self._n_model += 1
            else:
                implausible = True
                self._n_implausible += 1
                flags.append("implausible-model-estimate")
                power_w = baseline
                source = "baseline"
                self._n_baseline += 1
        else:
            power_w = baseline
            source = "baseline"
            self._n_baseline += 1

        if source == "baseline" and self.envelope is not None:
            clipped = self.envelope.clip(power_w)
            if clipped != power_w or not np.isfinite(power_w):  # clip() returns the input bit-exactly when in range
                flags.append("clipped-to-envelope")
                self._n_clipped += 1
                power_w = clipped
        if not np.isfinite(power_w):
            # Defensive: a pathological model (non-finite coefficients)
            # without an envelope.  Pin to zero rather than poison the
            # EWMA — and say so.
            flags.append("non-finite-estimate-zeroed")
            self._warn("non-finite estimate replaced by 0.0")
            power_w = 0.0

        self._track_drift(implausible)
        return self._record(
            power_w, time_s, interval_s, source, tuple(flags)
        )

    def drift_report(self) -> DriftReport:
        """Structured account of everything :meth:`step` observed."""
        return DriftReport(
            n_intervals=self._n_intervals,
            n_model=self._n_model,
            n_baseline=self._n_baseline,
            n_skipped=self._n_skipped,
            n_implausible=self._n_implausible,
            n_clipped=self._n_clipped,
            breaker_trips=self._breaker_trips,
            breaker_open_intervals=self._breaker_open_intervals,
            breaker_open=self._breaker_open,
            drift_detected=self._drift_detected,
            drift_fraction=self._drift_fraction(),
            warnings=tuple(self._warnings),
            n_warnings=self._n_warnings,
        )
