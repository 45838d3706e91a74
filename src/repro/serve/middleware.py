"""Ingestion middleware: validate, pack and audit samples before they queue.

The service's first line of defense.  :class:`SchemaValidator` runs
each tick's submissions through :func:`repro.serve.api.make_batch`,
which drops malformed submissions **and counts** them here, so they
never reach the estimator, where one of them would fail its whole
shard's batch: a wrong type, a missing field, an empty node id, a
counter delta or context value that ``float()`` rejects or cannot
represent, a NaN or infinite timestamp.  The drop happens where the
columns are built, in the same pass that packs the survivors.
Degraded but well-formed samples (NaN or ``None`` deltas, non-positive
voltage, backwards timestamps) pass through untouched: judging *values*
is the estimator's job, and it must see them so a node served by the
fleet gets the same session as its single-node
:meth:`~repro.core.online.OnlineEstimator.step` replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.serve.api import Batch, make_batch

__all__ = ["SchemaValidator", "DuplicateAuditor"]


@dataclass
class SchemaValidator:
    """Drop structurally-invalid submissions, tallying why.

    ``pack`` returns the survivors as a :class:`~repro.serve.api.Batch`;
    ``dropped`` maps a reason to how many submissions it rejected.
    Dropping is always observable — a silent filter would make overload
    and fault rates unmeasurable downstream.
    """

    dropped: Dict[str, int] = field(default_factory=dict)

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    def pack(self, submissions: Sequence[object], counters: Sequence[str]) -> Batch:
        return make_batch(submissions, counters, self.dropped)


@dataclass
class DuplicateAuditor:
    """Count duplicate node ids per submission batch (never drops).

    Duplicates are *legal* — a node may report twice in one window and
    the estimator processes both in arrival order — but a high rate is
    an ingestion-pipeline smell worth surfacing in the fleet report.
    """

    n_rows: int = 0
    n_duplicates: int = 0

    def observe(self, node_ids: Sequence[str]) -> None:
        self.n_rows += len(node_ids)
        self.n_duplicates += len(node_ids) - len(set(node_ids))
