"""Bounded ingestion queue with explicit, observable backpressure.

Overload must be a *graded state*, not unbounded memory growth.  The
queue holds at most ``capacity`` sample rows; what happens to row
``capacity + 1`` is a declared policy:

``reject``
    New rows bounce (the producer is told), queued work survives.
``shed-oldest``
    New rows enqueue, the oldest queued rows are shed — freshest data
    wins, as a monitoring loop usually wants.
``degrade-to-baseline``
    Overflow rows are *diverted*: never queued, returned to the caller
    for a stateless PMC-free baseline answer.  The caller gets a
    bounded-latency estimate and per-node estimator state is untouched,
    so estimates resume cleanly once the burst passes.

The queue holds the column chunks the middleware packed (one
:class:`~repro.serve.api.Batch` per submission) and counts rows, not
chunks: a policy decision takes a slice of a chunk, never a Python pass
over its samples.  ``shed-oldest`` slices the head chunk.  Every
outcome is counted in :class:`QueueStats`; nothing is dropped silently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.serve.api import Batch

__all__ = ["POLICIES", "BoundedIngestQueue", "OfferOutcome", "QueueStats"]

POLICIES: Tuple[str, ...] = ("reject", "shed-oldest", "degrade-to-baseline")


@dataclass(frozen=True)
class QueueStats:
    """Counters of everything the queue ever decided."""

    capacity: int
    depth: int
    max_depth: int
    accepted: int
    rejected: int
    shed: int
    diverted: int
    """Samples diverted to the stateless baseline path
    (``degrade-to-baseline`` overflow)."""

    @property
    def overloaded_fraction(self) -> float:
        """Share of offered samples that hit a backpressure outcome."""
        offered = self.accepted + self.rejected + self.diverted
        if offered == 0:
            return 0.0
        return (self.rejected + self.shed + self.diverted) / offered


@dataclass(frozen=True)
class OfferOutcome:
    """What one ``offer`` call did with the offered rows."""

    accepted: int
    rejected: int
    shed: int
    diverted: Optional[Batch]
    """Rows the caller must answer with the stateless baseline
    (``None`` when there are none)."""


class BoundedIngestQueue:
    """FIFO of pending sample rows that can never exceed ``capacity``."""

    def __init__(self, capacity: int, *, policy: str = "reject") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {POLICIES}"
            )
        self.capacity = int(capacity)
        self.policy = policy
        # Bound enforced by explicit accounting below (shed/reject
        # decisions must be counted, which deque(maxlen=...) would
        # swallow).
        self._chunks: Deque[Batch] = deque()
        self._depth = 0
        self._max_depth = 0
        self._accepted = 0
        self._rejected = 0
        self._shed = 0
        self._diverted = 0

    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        return self._depth

    def _pop_head(self, n: int) -> List[Batch]:
        """Remove the ``n`` oldest rows; returns them as chunks."""
        out = []
        while n > 0:
            head = self._chunks[0]
            if head.n_rows <= n:
                out.append(self._chunks.popleft())
            else:
                out.append(head.take(slice(0, n)))
                self._chunks[0] = head.take(slice(n, None))
            n -= out[-1].n_rows
            self._depth -= out[-1].n_rows
        return out

    def offer(self, batch: Batch) -> OfferOutcome:
        """Enqueue what fits; apply the backpressure policy to the rest."""
        n = batch.n_rows
        room = self.capacity - self._depth
        keep = n if self.policy == "shed-oldest" else min(n, room)
        shed = max(0, n - room) if self.policy == "shed-oldest" else 0
        rejected = n - keep if self.policy == "reject" else 0
        diverted = None
        if self.policy == "degrade-to-baseline" and keep < n:
            diverted = batch.take(slice(keep, None))
        if keep:
            self._chunks.append(batch if keep == n else batch.take(slice(0, keep)))
            self._depth += keep
            self._max_depth = max(self._max_depth, min(self._depth, self.capacity))
            self._pop_head(shed)
        self._accepted += keep
        self._rejected += rejected
        self._shed += shed
        self._diverted += n - keep - rejected
        return OfferOutcome(
            accepted=keep, rejected=rejected, shed=shed, diverted=diverted
        )

    def drain(self, max_items: int = 0) -> List[Batch]:
        """Pop up to ``max_items`` pending rows (0 = everything), oldest
        first, as the chunks they were queued in (the last one may be
        a head slice of its chunk)."""
        if max_items <= 0:
            max_items = self._depth
        return self._pop_head(min(max_items, self._depth))

    def stats(self) -> QueueStats:
        return QueueStats(
            capacity=self.capacity,
            depth=self._depth,
            max_depth=self._max_depth,
            accepted=self._accepted,
            rejected=self._rejected,
            shed=self._shed,
            diverted=self._diverted,
        )
