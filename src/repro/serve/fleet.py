"""The online estimation kernel: per-node state over (nodes × counters).

:class:`FleetEstimator` is the only implementation of the online
step.  It holds every node's estimator state in flat numpy arrays and
advances a whole :class:`~repro.serve.api.Batch` per call;
:class:`~repro.core.online.OnlineEstimator` is a one-node view over a
fleet of one, so a single node and a fleet of millions run the same
code.

Semantics of ``step_batch``
---------------------------
Rows are applied in order, one interval per row, with the contract
documented on :mod:`repro.core.online`: invalid context and
non-monotonic timestamps skip the row, degraded counters fall back to
the baseline, the node-level breaker and the envelope decide the
source, and the drift window latches.  Branching is masking: each
branch is a boolean mask, and warning/flag strings are built by sparse
Python loops over ``np.nonzero`` of *incident* rows only, so the clean
fast path stays loop-free.  Duplicate node ids inside one batch are
processed in **waves** (first occurrence of every node, then second,
…), so each node sees its samples in arrival order.

The serial estimator the kernel was transliterated from is kept in the
tests as an oracle (``tests/oracles/online.py``); estimates, flags,
warnings, breaker transitions and drift reports are asserted equal to
it with ``==`` on floats.

Per-node state is bounded: the drift window is a fixed-size int8 ring
buffer, and the warnings are a ring of the last ``WARNINGS_KEPT``
messages next to an ``n_warnings`` count of all of them.
Quarantine is a fleet-level *reporting overlay*: a node whose full drift
window is over the tolerance is quarantined (seeded probation via
:func:`repro.seeding.derive_rng`, keyed by its entry count) so shard
health statistics exclude it; its estimates are still produced.  The
first entry coincides with the drift latch firing; a released node is
re-armed and enters again once its window drifts again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import FittedPowerModel
from repro.core.online import (
    ONLINE_STATE_FORMAT,
    WARNINGS_KEPT,
    DriftReport,
    OnlineEstimate,
    PowerEnvelope,
)
from repro.seeding import DEFAULT_SEED, derive_rng
from repro.serve.api import Batch

__all__ = ["FleetEstimator", "BatchResult"]


@dataclass
class BatchResult:
    """Row-aligned outcome of one ``step_batch`` call.

    ``produced[i]`` is False where the interval was skipped;
    ``power_w``/``smoothed_w``/``time_s`` are NaN there.  ``flags`` is
    sparse: only rows with at least one flag appear.
    """

    node_ids: Tuple[str, ...]
    produced: np.ndarray
    power_w: np.ndarray
    smoothed_w: np.ndarray
    time_s: np.ndarray
    source_model: np.ndarray
    flags: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.node_ids)

    def estimate(self, i: int) -> Optional[OnlineEstimate]:
        """Row *i* as an :class:`OnlineEstimate` (``None`` for a
        skipped row)."""
        if not self.produced[i]:
            return None
        return OnlineEstimate(
            time_s=float(self.time_s[i]),
            power_w=float(self.power_w[i]),
            smoothed_w=float(self.smoothed_w[i]),
            source="model" if self.source_model[i] else "baseline",
            flags=self.flags.get(i, ()),
        )


#: Integer tallies of a node snapshot; each is stored in the int64
#: array of the same name with a leading underscore.
_COUNT_KEYS = (
    "n_intervals", "seen", "n_model", "n_baseline", "n_skipped",
    "n_implausible", "n_clipped", "breaker_trips", "breaker_open_intervals",
    "consecutive_bad", "consecutive_good", "n_warnings",
)
_STATE_KEYS = _COUNT_KEYS + (
    "smoothed", "last_time", "breaker_open", "drift_detected",
    "implausible_window", "warnings",
)
_COUNT_MAX = int(np.iinfo(np.int64).max)


def _finite_or_none(value: object, what: str) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"malformed estimator state: {what} is {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = float("inf")
    if not np.isfinite(number):
        raise ValueError(f"estimator state carries a non-finite {what}")
    return number


def _parse_state(state: object, drift_window: int) -> Dict[str, object]:
    """A validated, normalised copy of a node snapshot.

    Anything this kernel could not have written raises ``ValueError``,
    and only ``ValueError``: a non-dict, an unknown ``format``, missing
    keys, tallies that are not non-negative int64 integers, a
    non-finite EWMA or timestamp, flags that are not booleans, a drift
    window longer than ``drift_window``, warnings that are not strings,
    more than :data:`WARNINGS_KEPT` of them or more than ``n_warnings``.
    A format-1 snapshot, which kept every warning, migrates: its last
    :data:`WARNINGS_KEPT` warnings stay and ``n_warnings`` counts them
    all.
    """
    if not isinstance(state, dict):
        raise ValueError("estimator state must be a dict")
    legacy = state.get("format") == 1
    if legacy and isinstance(state.get("warnings"), (list, tuple)):
        state = {**state, "n_warnings": len(state["warnings"])}
    elif not legacy and state.get("format") != ONLINE_STATE_FORMAT:
        raise ValueError(
            f"unknown estimator state format {state.get('format')!r} "
            f"(expected {ONLINE_STATE_FORMAT})"
        )
    missing = [key for key in _STATE_KEYS if key not in state]
    if missing:
        raise ValueError(f"malformed estimator state: missing {missing}")
    out: Dict[str, object] = {}
    for key in _COUNT_KEYS:
        value = state[key]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(
                f"malformed estimator state: {key} is {value!r}, "
                f"not an integer"
            )
        if value < 0:
            raise ValueError("estimator state counters must be non-negative")
        if value > _COUNT_MAX:
            raise ValueError(f"estimator state counter {key} out of range")
        out[key] = int(value)
    out["smoothed"] = _finite_or_none(state["smoothed"], "EWMA")
    out["last_time"] = _finite_or_none(state["last_time"], "timestamp")
    for key in ("breaker_open", "drift_detected"):
        if not isinstance(state[key], (bool, np.bool_)):
            raise ValueError(f"malformed estimator state: {key} not a bool")
        out[key] = bool(state[key])
    window = state["implausible_window"]
    if not isinstance(window, (list, tuple)) or not all(
        isinstance(b, (bool, np.bool_)) for b in window
    ):
        raise ValueError(
            "malformed estimator state: implausible_window must be a "
            "list of booleans"
        )
    if len(window) > drift_window:
        raise ValueError("estimator state drift window longer than configured")
    out["implausible_window"] = [bool(b) for b in window]
    warnings = state["warnings"]
    if not isinstance(warnings, (list, tuple)) or not all(
        isinstance(w, str) for w in warnings
    ):
        raise ValueError(
            "malformed estimator state: warnings must be a list of strings"
        )
    if not legacy and len(warnings) > WARNINGS_KEPT:
        raise ValueError(
            f"estimator state keeps more than {WARNINGS_KEPT} warnings"
        )
    if len(warnings) > out["n_warnings"]:
        raise ValueError("estimator state has more warnings than n_warnings")
    out["warnings"] = list(warnings[-WARNINGS_KEPT:])
    return out


class FleetEstimator:
    """Per-node online-estimator state for a whole fleet, in arrays."""

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
        seed: int = DEFAULT_SEED,
        quarantine_probation: int = 50,
        capacity: int = 1024,
    ) -> None:
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
        if quarantine_probation < 1:
            raise ValueError("quarantine_probation must be at least 1")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.model = model
        self.counters: Tuple[str, ...] = tuple(model.counters)
        self.smoothing = float(smoothing)
        self.envelope = envelope
        self.breaker_threshold = int(breaker_threshold)
        self.recovery_threshold = int(recovery_threshold)
        self.drift_window = int(drift_window)
        self.drift_tolerance = float(drift_tolerance)
        self.seed = int(seed)
        self.quarantine_probation = int(quarantine_probation)

        coeffs = model.coefficients
        self._alpha_row = np.array(
            [coeffs[f"alpha:{c}"] for c in self.counters], dtype=np.float64
        )
        self._beta = coeffs["beta:V2f"]
        self._gamma = coeffs["gamma:V"]
        self._delta = coeffs["delta:Z"]

        self._index: Dict[str, int] = {}
        self._ids: List[str] = []
        self._warnings: Dict[int, Deque[str]] = {}
        self._dirty: set = set()
        self._allocate(int(capacity))

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    _INT_FIELDS = (
        "_seen", "_n_intervals", "_n_model", "_n_baseline", "_n_skipped",
        "_n_implausible", "_n_clipped", "_breaker_trips",
        "_breaker_open_intervals", "_consecutive_bad", "_consecutive_good",
        "_wlen", "_wpos", "_wsum", "_quarantine_release", "_n_quarantines",
        "_n_warnings",
    )
    _BOOL_FIELDS = (
        "_smoothed_valid", "_last_time_valid", "_breaker_open",
        "_drift_detected", "_quarantined",
    )

    def _allocate(self, capacity: int) -> None:
        self._capacity = capacity
        self._smoothed = np.full(capacity, np.nan, dtype=np.float64)
        self._last_time = np.full(capacity, np.nan, dtype=np.float64)
        for name in self._INT_FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=np.int64))
        for name in self._BOOL_FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=bool))
        self._ring = np.zeros((capacity, self.drift_window), dtype=np.int8)

    def _grow(self, needed: int) -> None:
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        old = {
            name: getattr(self, name)
            for name in ("_smoothed", "_last_time", "_ring")
            + self._INT_FIELDS + self._BOOL_FIELDS
        }
        n = len(self._ids)
        self._allocate(capacity)
        for name, arr in old.items():
            getattr(self, name)[:n] = arr[:n]

    @property
    def n_nodes(self) -> int:
        return len(self._ids)

    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._ids)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def ensure_node(self, node_id: str) -> int:
        """Index of a node, registering it fresh on first sight."""
        idx = self._index.get(node_id)
        if idx is not None:
            return idx
        idx = len(self._ids)
        if idx >= self._capacity:
            self._grow(idx + 1)
        self._ids.append(node_id)
        self._index[node_id] = idx
        return idx

    def _node_index(self, node_id: str) -> int:
        idx = self._index.get(node_id)
        if idx is None:
            raise KeyError(f"unknown node {node_id!r}")
        return idx

    # ------------------------------------------------------------------
    # Snapshot-safe per-node state (ONLINE_STATE_FORMAT schema)
    # ------------------------------------------------------------------
    def _window_list(self, idx: int) -> List[bool]:
        """The node's implausible window, oldest → newest."""
        wlen = int(self._wlen[idx])
        if wlen < self.drift_window:
            raw = self._ring[idx, :wlen]
        else:
            pos = int(self._wpos[idx])
            raw = np.concatenate(
                [self._ring[idx, pos:], self._ring[idx, :pos]]
            )
        return [bool(v) for v in raw]

    def node_state(self, node_id: str) -> Dict[str, object]:
        """One node's state as plain scalars and lists (JSON-safe,
        ``ONLINE_STATE_FORMAT``); :meth:`load_node_state` restores it so
        the node resumes bit-identically.  The single-node
        :meth:`OnlineEstimator.state_dict` is this dict."""
        i = self._node_index(node_id)
        return {
            "format": ONLINE_STATE_FORMAT,
            "smoothed": (
                float(self._smoothed[i]) if self._smoothed_valid[i] else None
            ),
            "last_time": (
                float(self._last_time[i])
                if self._last_time_valid[i]
                else None
            ),
            **{key: int(getattr(self, "_" + key)[i]) for key in _COUNT_KEYS},
            "breaker_open": bool(self._breaker_open[i]),
            "implausible_window": self._window_list(i),
            "drift_detected": bool(self._drift_detected[i]),
            "warnings": list(self._warnings.get(i, ())),
        }

    def load_node_state(self, node_id: str, state: Dict[str, object]) -> int:
        """Restore one node from a snapshot (strict, validated).

        A malformed snapshot raises ``ValueError`` (see
        :func:`_parse_state`) before anything is written: an existing
        node keeps its state and an unknown one stays unregistered.
        """
        parsed = _parse_state(state, self.drift_window)
        i = self.ensure_node(node_id)
        sm = parsed["smoothed"]
        self._smoothed[i] = np.nan if sm is None else sm
        self._smoothed_valid[i] = sm is not None
        lt = parsed["last_time"]
        self._last_time[i] = np.nan if lt is None else lt
        self._last_time_valid[i] = lt is not None
        for key in _COUNT_KEYS:
            getattr(self, "_" + key)[i] = parsed[key]
        self._breaker_open[i] = parsed["breaker_open"]
        self._drift_detected[i] = parsed["drift_detected"]
        window = parsed["implausible_window"]
        self._ring[i, :] = 0
        self._ring[i, : len(window)] = [int(b) for b in window]
        self._wlen[i] = len(window)
        self._wpos[i] = len(window) % self.drift_window
        self._wsum[i] = sum(window)
        self._warnings[i] = deque(parsed["warnings"], maxlen=WARNINGS_KEPT)
        # Quarantine is a live overlay, not snapshot state: a restored
        # node re-earns it if its window stays implausible.
        self._quarantined[i] = False
        self._quarantine_release[i] = 0
        return i

    # ------------------------------------------------------------------
    # Equation 1 baseline
    # ------------------------------------------------------------------
    def _baseline_terms(
        self, voltage_v: np.ndarray, frequency_mhz: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``V²f`` and the PMC-free baseline ``βV²f + γV + δZ``."""
        v2f = voltage_v * voltage_v * (frequency_mhz / 1000.0)
        return v2f, self._beta * v2f + self._gamma * voltage_v + self._delta

    def baseline_power(self, voltage_v, frequency_mhz) -> np.ndarray:
        """The baseline ``βV²f + γV + δZ``, elementwise: what the model
        says about an operating point when no counter can be trusted."""
        return self._baseline_terms(
            np.asarray(voltage_v, dtype=np.float64),
            np.asarray(frequency_mhz, dtype=np.float64),
        )[1]

    def _clip_to_envelope(
        self, power_w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Baseline estimates clamped into the envelope (non-finite ones
        land mid-range), and the mask of those that changed."""
        lo, hi = self.envelope.lo_w, self.envelope.hi_w
        nonfinite = ~np.isfinite(power_w)
        clipped = np.minimum(np.maximum(power_w, lo), hi)
        clipped[nonfinite] = 0.5 * (lo + hi)
        changed = (clipped != power_w) | nonfinite  # the clamp returns in-range input bit-exactly
        return clipped, changed

    def stateless_power(self, voltage_v, frequency_mhz) -> np.ndarray:
        """Answers for samples served without per-node state: the
        baseline, clamped into the envelope when there is one, with
        non-finite values pinned to zero — the kernel's rules for a
        baseline interval."""
        power_w = self.baseline_power(voltage_v, frequency_mhz)
        if self.envelope is not None:
            power_w = self._clip_to_envelope(power_w)[0]
        power_w[~np.isfinite(power_w)] = 0.0
        return power_w

    # ------------------------------------------------------------------
    # Vectorized stepping
    # ------------------------------------------------------------------
    def _warn(self, idx: int, message: str) -> None:
        self._n_warnings[idx] += 1
        self._warnings.setdefault(idx, deque(maxlen=WARNINGS_KEPT)).append(
            f"interval {int(self._seen[idx])}: {message}"
        )

    def step_batch(self, batch: Batch) -> BatchResult:
        """Advance every row's node by one interval (see module doc)."""
        if batch.counters != self.counters:
            raise ValueError(
                f"batch counters {batch.counters} do not match model "
                f"counters {self.counters}"
            )
        n = batch.n_rows
        out = BatchResult(
            node_ids=batch.node_ids,
            produced=np.zeros(n, dtype=bool),
            power_w=np.full(n, np.nan, dtype=np.float64),
            smoothed_w=np.full(n, np.nan, dtype=np.float64),
            time_s=np.full(n, np.nan, dtype=np.float64),
            source_model=np.zeros(n, dtype=bool),
        )
        if n == 0:
            return out
        index = self._index.get
        known = [index(node_id) for node_id in batch.node_ids]
        if None in known:
            known = [self.ensure_node(node_id) for node_id in batch.node_ids]
        nodes = np.array(known, dtype=np.int64)
        distinct = set(known)
        self._dirty.update(distinct)
        if len(distinct) < n:
            # Duplicate reports: each node's k-th sample lands in wave
            # k, so each node's samples apply in arrival order.
            occurrence = np.empty(n, dtype=np.int64)
            occ_count: Dict[int, int] = {}
            for i, node in enumerate(known):
                c = occ_count.get(node, 0)
                occurrence[i] = c
                occ_count[node] = c + 1
            for wave in range(int(occurrence.max()) + 1):
                sel = occurrence == wave
                self._step_wave(batch, np.nonzero(sel)[0], nodes[sel], out)
        else:
            self._step_wave(batch, np.arange(n), nodes, out)
        self._maintain_quarantine(nodes)
        return out

    def _step_wave(
        self,
        batch: Batch,
        rows: np.ndarray,
        nd: np.ndarray,
        out: BatchResult,
    ) -> None:
        """One wave: every node appears at most once in ``rows``."""
        flags: Dict[int, List[str]] = {}

        def add_flag(row: int, flag: str) -> None:
            flags.setdefault(row, []).append(flag)

        self._seen[nd] += 1
        interval = batch.interval_s[rows]
        voltage_v = batch.voltage_v[rows]
        freq_mhz = batch.frequency_mhz[rows]

        ctx_ok = (
            np.isfinite(interval) & (interval > 0)
            & np.isfinite(voltage_v) & (voltage_v > 0)
            & np.isfinite(freq_mhz) & (freq_mhz > 0)
        )
        for j in (~ctx_ok).nonzero()[0]:
            self._n_skipped[nd[j]] += 1
            self._warn(
                int(nd[j]),
                f"skipped: invalid context (interval={float(interval[j])}, "
                f"voltage={float(voltage_v[j])}, "
                f"frequency={float(freq_mhz[j])})",
            )
        t_valid = batch.time_valid[rows]
        t_in = batch.time_s[rows]
        lt_valid = self._last_time_valid[nd]
        last_time = self._last_time[nd]
        nonmono = ctx_ok & t_valid & lt_valid & (t_in <= last_time)
        for j in nonmono.nonzero()[0]:
            self._n_skipped[nd[j]] += 1
            self._warn(
                int(nd[j]),
                f"skipped: non-monotonic timestamp {float(t_in[j])} "
                f"after {float(last_time[j])}",
            )
        live = ctx_ok & ~nonmono
        if not live.all():
            if not live.any():
                return
            rows, nd = rows[live], nd[live]
            interval, voltage_v, freq_mhz = (
                interval[live], voltage_v[live], freq_mhz[live],
            )
            t_valid, t_in = t_valid[live], t_in[live]
            lt_valid, last_time = lt_valid[live], last_time[live]
        m = len(rows)

        # Degraded counters: missing, non-finite or negative.  ``deltas
        # >= 0`` is False for NaN and ``< inf`` for +inf, so ``clean``
        # is exactly "present, finite and non-negative".
        deltas = batch.deltas[rows]
        present = batch.present[rows]
        clean = present & (deltas >= 0) & (deltas < np.inf)
        bad_rows = ~clean.all(axis=1)
        any_bad_row = bad_rows.any()
        if any_bad_row:
            finite = np.isfinite(deltas)
            for j in bad_rows.nonzero()[0]:
                parts = []
                for k, counter in enumerate(self.counters):
                    if not present[j, k]:
                        parts.append(f"{counter} missing")
                    elif not finite[j, k]:
                        parts.append(f"{counter} non-finite")
                    elif not clean[j, k]:
                        parts.append(f"{counter} negative")
                joined = "; ".join(parts)
                add_flag(int(rows[j]), "degraded-counters: " + joined)
                self._warn(int(nd[j]), "degraded counters: " + joined)

        # Breaker transitions (same thresholds, same warning text).
        good_nodes = nd[~bad_rows] if any_bad_row else nd
        self._consecutive_good[good_nodes] += 1
        self._consecutive_bad[good_nodes] = 0
        closing = good_nodes[
            self._breaker_open[good_nodes]
            & (self._consecutive_good[good_nodes] >= self.recovery_threshold)
        ]
        if closing.size:
            self._breaker_open[closing] = False
            for node in closing:
                self._warn(
                    int(node),
                    f"circuit breaker closed after "
                    f"{int(self._consecutive_good[node])} clean intervals",
                )
        if any_bad_row:
            bad_nodes = nd[bad_rows]
            self._consecutive_bad[bad_nodes] += 1
            self._consecutive_good[bad_nodes] = 0
            opening = bad_nodes[
                ~self._breaker_open[bad_nodes]
                & (self._consecutive_bad[bad_nodes] >= self.breaker_threshold)
            ]
            self._breaker_open[opening] = True
            self._breaker_trips[opening] += 1
            for node in opening:
                self._warn(
                    int(node),
                    f"circuit breaker opened after "
                    f"{int(self._consecutive_bad[node])} degraded intervals",
                )
        is_open = self._breaker_open[nd]
        any_open = is_open.any()
        if any_open:
            self._breaker_open_intervals[nd[is_open]] += 1
            for j in is_open.nonzero()[0]:
                add_flag(int(rows[j]), "breaker-open")

        # Equation 1.  The operand order of every float expression
        # below matches the serial oracle, which keeps them bit-equal.
        v2f, baseline = self._baseline_terms(voltage_v, freq_mhz)
        power_w = baseline.copy()
        source_model = np.zeros(m, dtype=bool)
        implausible = np.zeros(m, dtype=bool)
        if any_bad_row or any_open:
            eligible = (~bad_rows & ~is_open).nonzero()[0]
        else:
            eligible = np.arange(m)
        if eligible.size:
            cycles = freq_mhz[eligible] * 1e6 * interval[eligible]
            v2fe = v2f[eligible]
            # Each term is alpha * (delta / cycles) * V²f, summed onto
            # the baseline one counter at a time, as the oracle does.
            terms = (self._alpha_row * (deltas[eligible] / cycles[:, None])) * v2fe[
                :, None
            ]
            model_power_w = baseline[eligible]
            for term in terms.T:
                model_power_w = model_power_w + term
            plausible = np.isfinite(model_power_w)
            if self.envelope is not None:
                plausible &= (model_power_w >= self.envelope.lo_w) & (
                    model_power_w <= self.envelope.hi_w
                )
            ok = eligible[plausible]
            power_w[ok] = model_power_w[plausible]
            source_model[ok] = True
            self._n_model[nd[ok]] += 1
            if not plausible.all():
                bad_est = eligible[~plausible]
                implausible[bad_est] = True
                self._n_implausible[nd[bad_est]] += 1
                for j in bad_est:
                    add_flag(int(rows[j]), "implausible-model-estimate")
        baseline_rows = (~source_model).nonzero()[0]
        if baseline_rows.size:
            self._n_baseline[nd[baseline_rows]] += 1
            if self.envelope is not None:
                clipped, changed = self._clip_to_envelope(power_w[baseline_rows])
                hit = baseline_rows[changed]
                self._n_clipped[nd[hit]] += 1
                for j in hit:
                    add_flag(int(rows[j]), "clipped-to-envelope")
                power_w[hit] = clipped[changed]
        if not np.isfinite(power_w).all():
            zeroed = (~np.isfinite(power_w)).nonzero()[0]
            for j in zeroed:
                add_flag(int(rows[j]), "non-finite-estimate-zeroed")
                self._warn(int(nd[j]), "non-finite estimate replaced by 0.0")
            power_w[zeroed] = 0.0

        # Drift window: append-and-trim as a ring buffer.
        window = self.drift_window
        val = implausible.astype(np.int8)
        wlen = self._wlen[nd]
        wpos = self._wpos[nd]
        old = np.where(wlen == window, self._ring[nd, wpos], 0)
        wsum = self._wsum[nd] + (val - old)
        self._wsum[nd] = wsum
        self._ring[nd, wpos] = val
        self._wpos[nd] = (wpos + 1) % window
        wlen = np.minimum(wlen + 1, window)
        self._wlen[nd] = wlen
        fraction = wsum / wlen
        drifting = (wlen == window) & (fraction > self.drift_tolerance)
        if drifting.any():
            detect = drifting & ~self._drift_detected[nd]
            self._drift_detected[nd[detect]] = True
            for j in detect.nonzero()[0]:
                self._warn(
                    int(nd[j]),
                    f"drift detected: {float(fraction[j]):.0%} of the last "
                    f"{window} intervals implausible",
                )

        # Record: EWMA, timeline, interval count (oracle operand order).
        smoothed = np.where(
            self._smoothed_valid[nd],
            self.smoothing * power_w + (1.0 - self.smoothing) * self._smoothed[nd],
            power_w,
        )
        self._smoothed[nd] = smoothed
        self._smoothed_valid[nd] = True
        t = np.where(
            t_valid,
            t_in,
            np.where(lt_valid, last_time + interval, interval),
        )
        self._last_time[nd] = t
        self._last_time_valid[nd] = True
        self._n_intervals[nd] += 1

        # Quarantine overlay: a drifting node not in quarantine enters
        # probation — on the interval its drift latch fires, and again
        # after each release (the latch itself stays set, as in the
        # serial estimator).
        if drifting.any():
            for node in nd[drifting & ~self._quarantined[nd]]:
                self._enter_quarantine(int(node))

        out.produced[rows] = True
        out.power_w[rows] = power_w
        out.smoothed_w[rows] = smoothed
        out.time_s[rows] = t
        out.source_model[rows] = source_model
        for row, row_flags in flags.items():
            out.flags[row] = tuple(row_flags)

    # ------------------------------------------------------------------
    # Quarantine overlay
    # ------------------------------------------------------------------
    def _enter_quarantine(self, idx: int) -> None:
        self._quarantined[idx] = True
        self._n_quarantines[idx] += 1
        rng = derive_rng(
            self.seed, "serve-quarantine", self._ids[idx],
            int(self._n_quarantines[idx]),
        )
        probation = self.quarantine_probation + int(
            rng.integers(0, self.quarantine_probation)
        )
        self._quarantine_release[idx] = int(self._n_intervals[idx]) + probation

    def _maintain_quarantine(self, nodes: np.ndarray) -> None:
        """Release quarantined nodes whose probation elapsed *and*
        whose recent window is back under the drift tolerance."""
        q = nodes[self._quarantined[nodes]]
        if q.size == 0:
            return
        q = np.unique(q)
        served = self._n_intervals[q] >= self._quarantine_release[q]
        denom = np.maximum(self._wlen[q], 1)
        calm = self._wsum[q] / denom <= self.drift_tolerance
        self._quarantined[q[served & calm]] = False

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def is_quarantined(self, node_id: str) -> bool:
        return bool(self._quarantined[self._node_index(node_id)])

    def drift_report(self, node_id: str) -> DriftReport:
        """One node's session tally."""
        i = self._node_index(node_id)
        wlen = int(self._wlen[i])
        fraction = float(self._wsum[i]) / wlen if wlen else 0.0
        return DriftReport(
            n_intervals=int(self._n_intervals[i]),
            n_model=int(self._n_model[i]),
            n_baseline=int(self._n_baseline[i]),
            n_skipped=int(self._n_skipped[i]),
            n_implausible=int(self._n_implausible[i]),
            n_clipped=int(self._n_clipped[i]),
            breaker_trips=int(self._breaker_trips[i]),
            breaker_open_intervals=int(self._breaker_open_intervals[i]),
            breaker_open=bool(self._breaker_open[i]),
            drift_detected=bool(self._drift_detected[i]),
            drift_fraction=fraction,
            warnings=tuple(self._warnings.get(i, ())),
            n_warnings=int(self._n_warnings[i]),
        )

    def take_dirty_nodes(self) -> List[str]:
        """Node ids touched since the last call (snapshot worker's
        work-list); clears the dirty set."""
        dirty = sorted(self._dirty)
        self._dirty.clear()
        return [self._ids[i] for i in dirty]

    def health_counts(
        self, node_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, int]:
        """Health tally over ``node_ids`` (default: every registered
        node).  A quarantined node counts as quarantined only; a node
        with an open breaker or a latched drift detector is degraded."""
        if node_ids is None:
            idx = np.arange(self.n_nodes)
        else:
            idx = np.asarray(
                [self._node_index(n) for n in node_ids], dtype=np.int64
            )
        quarantined = self._quarantined[idx]
        degraded = (
            (self._breaker_open[idx] | self._drift_detected[idx])
            & ~quarantined
        )
        n_quarantined = int(np.count_nonzero(quarantined))
        n_degraded = int(np.count_nonzero(degraded))
        return {
            "n_nodes": int(idx.size),
            "quarantined": n_quarantined,
            "degraded": n_degraded,
            "healthy": int(idx.size) - n_quarantined - n_degraded,
        }
