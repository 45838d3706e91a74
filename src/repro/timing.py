"""Per-stage wall-time accounting.

One monotonic clock (:data:`MONOTONIC_CLOCK`, ``time.perf_counter``)
serves every measurement in the repository — wall-clock sources like
``time.time`` jump under NTP corrections and suspend/resume, which is
exactly what a multi-hour campaign hits.  :class:`StageTimer` collects
:class:`StageTiming` records while a pipeline runs; the frozen
:class:`TimingReport` travels on ``CampaignReport`` and
``WorkflowResult``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = ["MONOTONIC_CLOCK", "StageTiming", "StageTimer", "TimingReport"]

#: The single monotonic time source (seconds, arbitrary epoch).
MONOTONIC_CLOCK = time.perf_counter


@dataclass(frozen=True)
class StageTiming:
    """Wall time of one pipeline stage."""

    stage: str
    elapsed_s: float
    n_items: int
    """Work items actually executed (resumed/skipped items excluded)."""

    @property
    def per_item_s(self) -> float:
        return self.elapsed_s / self.n_items if self.n_items > 0 else 0.0

    def describe(self) -> str:
        return f"{self.stage}: {self.elapsed_s:.3f} s ({self.n_items} items)"


@dataclass(frozen=True)
class TimingReport:
    """Ordered per-stage timings of one pipeline run."""

    stages: Tuple[StageTiming, ...] = ()

    @property
    def total_s(self) -> float:
        return float(sum(s.elapsed_s for s in self.stages))

    def stage(self, name: str) -> StageTiming:
        """The first stage with the given name (KeyError if absent)."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(f"no stage named {name!r} in {[s.stage for s in self.stages]}")

    def summary(self) -> str:
        lines = [s.describe() for s in self.stages]
        lines.append(f"total: {self.total_s:.3f} s")
        return "\n".join(lines)


class StageTimer:
    """Accumulates stage timings on the shared monotonic clock."""

    def __init__(self) -> None:
        self._stages: List[StageTiming] = []

    @contextmanager
    def stage(self, name: str, *, n_items: int = 0) -> Iterator[None]:
        """Time a ``with`` block as one stage (recorded even on error)."""
        t0 = MONOTONIC_CLOCK()
        try:
            yield
        finally:
            self.record(name, MONOTONIC_CLOCK() - t0, n_items=n_items)

    def record(self, name: str, elapsed_s: float, *, n_items: int = 0) -> None:
        """Append a stage whose extent was measured by the caller."""
        self._stages.append(
            StageTiming(stage=name, elapsed_s=float(elapsed_s), n_items=int(n_items))
        )

    def report(self) -> TimingReport:
        return TimingReport(stages=tuple(self._stages))
