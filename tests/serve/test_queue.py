"""Backpressure semantics of the bounded ingestion queue.

The queue holds column chunks and counts rows; equality with the
per-sample queue it replaced is asserted in ``test_ingest_columns.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import POLICIES, BoundedIngestQueue, concat_batches, make_batch

from .conftest import COUNTERS, make_fleet_samples


def samples(n, tick=0):
    rng = np.random.default_rng(42 + tick)
    return make_batch(
        make_fleet_samples([f"n{i}" for i in range(n)], tick, rng), COUNTERS
    )


def drained(q, max_items=0):
    return concat_batches(q.drain(max_items), COUNTERS)


class TestBoundedIngestQueue:
    def test_validates_capacity_and_policy(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedIngestQueue(0)
        with pytest.raises(ValueError, match="policy"):
            BoundedIngestQueue(4, policy="drop-everything")
        assert set(POLICIES) == {
            "reject", "shed-oldest", "degrade-to-baseline",
        }

    def test_accepts_below_capacity(self):
        q = BoundedIngestQueue(10)
        outcome = q.offer(samples(6))
        assert outcome.accepted == 6
        assert outcome.rejected == outcome.shed == 0
        assert q.depth == 6

    @pytest.mark.parametrize("policy", POLICIES)
    def test_depth_never_exceeds_capacity(self, policy):
        q = BoundedIngestQueue(8, policy=policy)
        for tick in range(5):
            q.offer(samples(7, tick))
            assert q.depth <= q.capacity
        assert q.stats().max_depth <= q.capacity

    def test_reject_bounces_overflow_and_keeps_queued(self):
        q = BoundedIngestQueue(5, policy="reject")
        first = samples(5)
        q.offer(first)
        outcome = q.offer(samples(3, tick=1))
        assert outcome.rejected == 3
        assert outcome.accepted == 0
        # Queued work survives: the original five drain in order.
        assert drained(q).node_ids == first.node_ids

    def test_shed_oldest_keeps_freshest(self):
        q = BoundedIngestQueue(5, policy="shed-oldest")
        q.offer(samples(5))
        outcome = q.offer(samples(2, tick=1))
        assert outcome.accepted == 2
        assert outcome.shed == 2
        rows = drained(q)
        assert rows.n_rows == 5
        # The two newest samples made it in; the two oldest are gone.
        assert rows.time_s[-2:].tolist() == [1.0, 1.0]
        assert rows.node_ids == ("n2", "n3", "n4", "n0", "n1")

    def test_degrade_returns_diverted_samples(self):
        q = BoundedIngestQueue(5, policy="degrade-to-baseline")
        q.offer(samples(5))
        overflow = samples(4, tick=1)
        outcome = q.offer(overflow)
        assert outcome.accepted == 0
        assert outcome.diverted.node_ids == overflow.node_ids
        # Diverted samples are never queued.
        assert q.depth == 5
        assert q.stats().diverted == 4

    def test_drain_respects_max_items(self):
        q = BoundedIngestQueue(10)
        q.offer(samples(7))
        assert drained(q, 3).n_rows == 3
        assert q.depth == 4
        assert drained(q).n_rows == 4
        assert q.depth == 0

    def test_stats_account_every_outcome(self):
        q = BoundedIngestQueue(4, policy="reject")
        q.offer(samples(6))
        stats = q.stats()
        assert stats.accepted == 4
        assert stats.rejected == 2
        assert stats.capacity == 4
        assert stats.overloaded_fraction == pytest.approx(2 / 6)

    def test_overloaded_fraction_empty_queue(self):
        assert BoundedIngestQueue(4).stats().overloaded_fraction == 0.0
