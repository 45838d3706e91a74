"""Ingestion middleware: validate and audit samples before they queue.

The service's first line of defense.  Malformed submissions are
dropped **and counted** here, so they never reach the estimator, where
one of them would fail its whole shard's batch: a wrong type, a missing
field, an empty node id, a counter delta or context value that
``float()`` rejects or cannot represent, a NaN or infinite timestamp.
Degraded but well-formed samples (NaN or ``None`` deltas, non-positive
voltage, backwards timestamps) pass through untouched: judging *values*
is the estimator's job, and it must see them so a node served by the
fleet gets the same session as its single-node
:meth:`~repro.core.online.OnlineEstimator.step` replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serve.api import NodeSample

__all__ = ["SchemaValidator", "DuplicateAuditor"]

#: What ``float()`` raises on a value it cannot turn into a float:
#: a non-number, an unparsable string, or an int past the float range.
_NOT_A_FLOAT = (TypeError, ValueError, OverflowError)


@dataclass
class SchemaValidator:
    """Drop structurally-invalid submissions, tallying why.

    ``validate`` returns the surviving samples; ``dropped`` maps a
    reason to how many submissions it rejected.  Dropping is always
    observable — a silent filter would make overload and fault rates
    unmeasurable downstream.
    """

    dropped: Dict[str, int] = field(default_factory=dict)

    def _drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    def validate(self, submissions: Sequence[object]) -> List[NodeSample]:
        out: List[NodeSample] = []
        for sub in submissions:
            if not isinstance(sub, NodeSample):
                self._drop("not-a-sample")
                continue
            if not isinstance(sub.node_id, str) or not sub.node_id:
                self._drop("bad-node-id")
                continue
            if not isinstance(sub.counter_deltas, dict):
                self._drop("bad-deltas")
                continue
            try:
                for value in sub.counter_deltas.values():
                    if value is not None:  # None: a missing counter
                        float(value)
            except _NOT_A_FLOAT:
                self._drop("non-numeric-delta")
                continue
            try:
                float(sub.interval_s)
                float(sub.voltage_v)
                float(sub.frequency_mhz)
            except _NOT_A_FLOAT:
                self._drop("non-numeric-context")
                continue
            if sub.time_s is not None:
                try:
                    t = float(sub.time_s)
                except _NOT_A_FLOAT:
                    self._drop("bad-timestamp")
                    continue
                if not np.isfinite(t):
                    self._drop("bad-timestamp")
                    continue
            out.append(sub)
        return out


@dataclass
class DuplicateAuditor:
    """Count duplicate node ids per submission batch (never drops).

    Duplicates are *legal* — a node may report twice in one window and
    the estimator processes both in arrival order — but a high rate is
    an ingestion-pipeline smell worth surfacing in the fleet report.
    """

    n_rows: int = 0
    n_duplicates: int = 0

    def observe(self, samples: Sequence[NodeSample]) -> None:
        seen = set()
        for sample in samples:
            self.n_rows += 1
            if sample.node_id in seen:
                self.n_duplicates += 1
            seen.add(sample.node_id)

    @property
    def duplicate_fraction(self) -> float:
        return self.n_duplicates / self.n_rows if self.n_rows else 0.0

    def counts(self) -> Tuple[int, int]:
        return self.n_rows, self.n_duplicates
