"""Bounded ingestion queue with explicit, observable backpressure.

Overload must be a *graded state*, not unbounded memory growth.  The
queue holds at most ``capacity`` samples; what happens to sample
``capacity + 1`` is a declared policy:

``reject``
    New samples bounce (the producer is told), queued work survives.
``shed-oldest``
    New samples enqueue, the oldest queued samples are shed — freshest
    data wins, as a monitoring loop usually wants.
``degrade-to-baseline``
    Overflow samples are *diverted*: never queued, returned to the
    caller for a stateless PMC-free baseline answer.  The caller gets a
    bounded-latency estimate and per-node estimator state is untouched,
    so estimates resume cleanly once the burst passes.

Every outcome is counted in :class:`QueueStats`; nothing is dropped
silently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.serve.api import NodeSample

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
    """What one ``offer`` call did with each sample."""

    accepted: int
    rejected: int
    shed: int
    diverted: Tuple[NodeSample, ...]
    """Samples the caller must answer with the stateless baseline."""


class BoundedIngestQueue:
    """FIFO of pending samples that can never exceed ``capacity``."""

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
        self._pending: deque = deque()
        self._max_depth = 0
        self._accepted = 0
        self._rejected = 0
        self._shed = 0
        self._diverted = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def depth(self) -> int:
        return len(self._pending)

    def offer(self, samples: Sequence[NodeSample]) -> OfferOutcome:
        """Enqueue what fits; apply the backpressure policy to the rest."""
        accepted = rejected = shed = 0
        diverted: List[NodeSample] = []
        for sample in samples:
            if len(self._pending) < self.capacity:
                self._pending.append(sample)
                accepted += 1
            elif self.policy == "reject":
                rejected += 1
            elif self.policy == "shed-oldest":
                self._pending.popleft()
                self._pending.append(sample)
                accepted += 1
                shed += 1
            else:  # degrade-to-baseline
                diverted.append(sample)
            self._max_depth = max(self._max_depth, len(self._pending))
        self._accepted += accepted
        self._rejected += rejected
        self._shed += shed
        self._diverted += len(diverted)
        return OfferOutcome(
            accepted=accepted,
            rejected=rejected,
            shed=shed,
            diverted=tuple(diverted),
        )

    def drain(self, max_items: int = 0) -> List[NodeSample]:
        """Pop up to ``max_items`` pending samples (0 = everything)."""
        if max_items <= 0:
            max_items = len(self._pending)
        out = []
        while self._pending and len(out) < max_items:
            out.append(self._pending.popleft())
        return out

    def stats(self) -> QueueStats:
        return QueueStats(
            capacity=self.capacity,
            depth=len(self._pending),
            max_depth=self._max_depth,
            accepted=self._accepted,
            rejected=self._rejected,
            shed=self._shed,
            diverted=self._diverted,
        )
