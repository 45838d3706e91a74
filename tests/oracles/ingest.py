"""Per-sample ingestion oracle: validate, queue and pack one sample at a time.

Production ingestion is one column path: :func:`repro.serve.api.make_batch`
validates a tick's submissions and packs the survivors into a
:class:`~repro.serve.api.Batch` in one pass, and
:class:`repro.serve.queue.BoundedIngestQueue` holds those column chunks
and counts rows.  This module keeps the per-sample path that column
path replaced — a ``float()`` validator, a deque of
:class:`~repro.serve.api.NodeSample` objects and one numpy scalar store
per value — so tests can assert that production yields the same
columns, ``present`` masks, drop tallies, :class:`QueueStats` and
drained row order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serve.api import Batch, NodeSample
from repro.serve.queue import POLICIES, QueueStats

__all__ = [
    "SchemaValidator",
    "BoundedIngestQueue",
    "OfferOutcome",
    "make_batch",
    "row_sample",
]

#: What ``float()`` raises on a value it cannot turn into a float:
#: a non-number, an unparsable string, or an int past the float range.
_NOT_A_FLOAT = (TypeError, ValueError, OverflowError)


@dataclass
class SchemaValidator:
    """Drop structurally-invalid submissions, tallying why."""

    dropped: Dict[str, int] = field(default_factory=dict)

    def _drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

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


def make_batch(samples: Sequence[NodeSample], counters: Sequence[str]) -> Batch:
    """Pack validated samples into a :class:`Batch` over the model's
    counters, one numpy scalar store per value."""
    counters = tuple(counters)
    n, k = len(samples), len(counters)
    deltas = np.full((n, k), np.nan, dtype=np.float64)
    present = np.zeros((n, k), dtype=bool)
    interval_s = np.empty(n, dtype=np.float64)
    voltage_v = np.empty(n, dtype=np.float64)
    frequency_mhz = np.empty(n, dtype=np.float64)
    time_s = np.full(n, np.nan, dtype=np.float64)
    time_valid = np.zeros(n, dtype=bool)
    node_ids = []
    for i, sample in enumerate(samples):
        node_ids.append(sample.node_id)
        for j, counter in enumerate(counters):
            value = sample.counter_deltas.get(counter)
            if value is not None:
                present[i, j] = True
                deltas[i, j] = float(value)
        interval_s[i] = float(sample.interval_s)
        voltage_v[i] = float(sample.voltage_v)
        frequency_mhz[i] = float(sample.frequency_mhz)
        if sample.time_s is not None:
            time_s[i] = float(sample.time_s)
            time_valid[i] = True
    return Batch(
        counters=counters,
        node_ids=tuple(node_ids),
        deltas=deltas,
        present=present,
        interval_s=interval_s,
        voltage_v=voltage_v,
        frequency_mhz=frequency_mhz,
        time_s=time_s,
        time_valid=time_valid,
    )


def row_sample(batch: Batch, i: int) -> NodeSample:
    """Row *i* of a batch back as a :class:`NodeSample` — the identity
    tests feed the same rows to the kernel and to a reference."""
    deltas = {
        counter: float(batch.deltas[i, k])
        for k, counter in enumerate(batch.counters)
        if batch.present[i, k]
    }
    return NodeSample(
        node_id=batch.node_ids[i],
        counter_deltas=deltas,
        interval_s=float(batch.interval_s[i]),
        voltage_v=float(batch.voltage_v[i]),
        frequency_mhz=float(batch.frequency_mhz[i]),
        time_s=float(batch.time_s[i]) if batch.time_valid[i] else None,
    )


@dataclass(frozen=True)
class OfferOutcome:
    """What one ``offer`` call did with each sample."""

    accepted: int
    rejected: int
    shed: int
    diverted: Tuple[NodeSample, ...]


class BoundedIngestQueue:
    """FIFO of pending samples that can never exceed ``capacity``."""

    def __init__(self, capacity: int, *, policy: str = "reject") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if policy not in POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r}")
        self.capacity = int(capacity)
        self.policy = policy
        self._pending: deque = deque()
        self._max_depth = 0
        self._accepted = 0
        self._rejected = 0
        self._shed = 0
        self._diverted = 0

    def offer(self, samples: Sequence[NodeSample]) -> OfferOutcome:
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
