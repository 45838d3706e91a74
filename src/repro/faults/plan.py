"""Fault plans: a declarative, seeded model of acquisition failures.

Real multi-day Score-P measurement sessions (Section III-A) are lossy:
runs crash, power sensors drop out or flat-line, PAPI counters wrap,
and traces get truncated when a buffer fills.  A
:class:`FaultPlan` describes *how* lossy a simulated campaign should
be; the :class:`~repro.faults.injector.FaultInjector` turns the plan
into concrete, deterministic fault decisions derived from the root
seed via :func:`repro.seeding.derive_rng` — the same seed and plan
always produce the same faults, so every chaos test is reproducible
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Tuple

__all__ = ["FaultPlan"]

#: FaultPlan fields that are probabilities (validated to [0, 1]).
_RATE_FIELDS: Tuple[str, ...] = (
    "run_failure_rate",
    "sensor_dropout_rate",
    "sensor_stuck_rate",
    "nan_sample_rate",
    "counter_overflow_rate",
    "trace_truncation_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Rates and targets of every modelled acquisition fault.

    All rates are probabilities.  ``run_failure_rate``,
    ``trace_truncation_rate``, ``sensor_dropout_rate`` and
    ``sensor_stuck_rate`` are per run attempt; ``nan_sample_rate`` is
    per power sample; ``counter_overflow_rate`` is per (run, counter).
    """

    run_failure_rate: float = 0.0
    """Probability one instrumented run crashes (→ ``RunFailure``)."""
    sensor_dropout_rate: float = 0.0
    """Probability a run loses a contiguous block of power samples."""
    sensor_stuck_rate: float = 0.0
    """Probability the power channel flat-lines (stuck-at glitch)."""
    nan_sample_rate: float = 0.0
    """Per-sample probability of a NaN power reading."""
    counter_overflow_rate: float = 0.0
    """Per-(run, counter) probability of a 48-bit PMC wrap/saturation."""
    trace_truncation_rate: float = 0.0
    """Probability a trace is cut short (Score-P buffer exhaustion)."""
    kill_cells: Tuple[str, ...] = ()
    """``fnmatch`` patterns of ``workload:freq:threads:run_index`` cells
    that crash on *every* attempt — models a persistently broken
    configuration (the quarantine path of the campaign loop)."""
    fault_seed: int = 0
    """Extra stream key so distinct chaos scenarios can share one
    platform seed without correlating their fault decisions."""

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    # ------------------------------------------------------------------
    @property
    def any_active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return bool(self.kill_cells) or any(
            getattr(self, name) > 0.0 for name in _RATE_FIELDS
        )

    @property
    def corrupts_traces(self) -> bool:
        """Whether any trace-level corruption is configured."""
        return any(
            getattr(self, name) > 0.0
            for name in (
                "sensor_dropout_rate",
                "sensor_stuck_rate",
                "nan_sample_rate",
                "counter_overflow_rate",
                "trace_truncation_rate",
            )
        )

    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "FaultPlan":
        """This plan with every rate multiplied by ``factor`` (capped
        at 1.0) — e.g. ``plan.scaled(0.5)`` for a gentler rehearsal."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        updates = {
            name: min(getattr(self, name) * factor, 1.0)
            for name in _RATE_FIELDS
        }
        return replace(self, **updates)

    def combine(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans: elementwise max of rates, union of kill
        patterns.  ``fault_seed`` is taken from ``self``."""
        updates = {
            name: max(getattr(self, name), getattr(other, name))
            for name in _RATE_FIELDS
        }
        updates["kill_cells"] = tuple(
            dict.fromkeys(self.kill_cells + other.kill_cells)
        )
        return replace(self, **updates)

    @classmethod
    def chaos(cls, intensity: float = 0.1, *, fault_seed: int = 0) -> "FaultPlan":
        """A kitchen-sink plan exercising every fault class at once.

        ``intensity`` scales all rates; 0.1 roughly matches the loss
        rate of a bad week on a shared production system.
        """
        return cls(
            run_failure_rate=1.0,
            sensor_dropout_rate=1.0,
            sensor_stuck_rate=0.5,
            nan_sample_rate=0.02,
            counter_overflow_rate=0.5,
            trace_truncation_rate=1.0,
            fault_seed=fault_seed,
        ).scaled(intensity)

    def describe(self) -> str:
        """One line per active fault class (report / log material)."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _RATE_FIELDS and value > 0.0:
                lines.append(f"{f.name}={value:g}")
        if self.kill_cells:
            lines.append(f"kill_cells={','.join(self.kill_cells)}")
        return "FaultPlan(" + (", ".join(lines) or "inactive") + ")"
