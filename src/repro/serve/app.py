"""The fleet estimation service: middleware → queue → shards → fleet.

:class:`FleetService` wires the layers together the way a backend app
composes middleware, API handlers, state stores and background tasks:

* **middleware** (:mod:`repro.serve.middleware`) validates each
  submission and packs the survivors into one column
  :class:`~repro.serve.api.Batch` in a single pass, and audits
  duplicates, before anything queues;
* the **bounded queue** (:mod:`repro.serve.queue`) holds those column
  chunks and makes overload a graded policy decision instead of memory
  growth;
* ``process()`` drains the queue once per service **tick**, orders the
  rows by state shard with a stable argsort (arrival order holds within
  a shard), gathers each shard's sub-batch with
  :meth:`~repro.serve.api.Batch.take` and steps it through the
  vectorized :class:`~repro.serve.fleet.FleetEstimator` under that
  shard's :class:`~repro.serve.breaker.ShardBreaker` — a shard whose
  operations keep failing is answered from the stateless baseline
  while the rest of the fleet runs normally;
* a cadence-driven :class:`SnapshotWorker` persists dirty nodes into
  the sharded :class:`~repro.serve.state.FleetStateStore`, a bounded
  number of shard files per tick, so snapshotting never stalls serving;
* unknown nodes are restored **lazily** from the store on first
  sight — a corrupt shard surfaces as "those nodes start fresh from
  the baseline model", never as a service abort.

Determinism: everything (including quarantine probation) is keyed off
the service seed; there are no threads and no wall-clock reads, so a
replay with the same submissions reproduces the same decisions bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.model import FittedPowerModel
from repro.core.online import PowerEnvelope
from repro.acquisition.checkpoint import shard_key
from repro.seeding import DEFAULT_SEED
from repro.serve.api import Batch, concat_batches
from repro.serve.breaker import ShardBreaker
from repro.serve.fleet import BatchResult, FleetEstimator
from repro.serve.middleware import DuplicateAuditor, SchemaValidator
from repro.serve.queue import BoundedIngestQueue
from repro.serve.report import FleetReport, ShardReport
from repro.serve.state import FleetStateStore, fleet_fingerprint

__all__ = ["FleetService", "SnapshotWorker", "ProcessOutcome"]


@dataclass(frozen=True)
class ProcessOutcome:
    """What one service tick did."""

    results: Tuple[BatchResult, ...]
    stateless: Tuple[Tuple[str, float], ...]
    """(node id, power) pairs answered without estimator state
    (diverted overflow or an open shard breaker)."""
    processed_rows: int
    refused_shards: int


class SnapshotWorker:
    """Cadence-driven background snapshotter (no threads, no clocks).

    Invoked from ``process()`` every ``every_ticks`` ticks; writes at
    most ``max_shards_per_tick`` dirty shard files per invocation
    (0 = all), carrying the remainder to the next due tick so a huge
    fleet never stalls one tick on persistence.  The budget goes round
    robin, starting after the last shard tried, so under steady traffic
    every pending shard is written within ``n_shards`` invocations.
    """

    def __init__(
        self, *, every_ticks: int = 1, max_shards_per_tick: int = 0
    ) -> None:
        if every_ticks < 1:
            raise ValueError("every_ticks must be at least 1")
        if max_shards_per_tick < 0:
            raise ValueError("max_shards_per_tick must be non-negative")
        self.every_ticks = int(every_ticks)
        self.max_shards_per_tick = int(max_shards_per_tick)
        self.pending: Dict[int, Set[str]] = {}
        self.writes = 0
        self._next_shard = 0

    def due(self, tick: int) -> bool:
        return tick % self.every_ticks == 0

    def run(
        self,
        fleet: FleetEstimator,
        store: FleetStateStore,
        breakers: Sequence[ShardBreaker],
        shard_of: Callable[[str], int],
    ) -> int:
        """Persist dirty nodes, bounded per tick; returns shard writes.

        ``shard_of`` places a node id (the service's cached map)."""
        for node_id in fleet.take_dirty_nodes():
            self.pending.setdefault(shard_of(node_id), set()).add(node_id)
        n_shards = len(breakers)
        shards = sorted(
            self.pending, key=lambda s: (s - self._next_shard) % n_shards
        )
        if self.max_shards_per_tick:
            shards = shards[: self.max_shards_per_tick]
        written = 0
        for shard in shards:
            self._next_shard = shard + 1
            breaker = breakers[shard]
            if not breaker.allow():
                continue  # stays pending; retried after cooldown
            node_ids = self.pending[shard]
            try:
                items = {
                    node_id: fleet.node_state(node_id)
                    for node_id in sorted(node_ids)
                }
                written += store.store_many(items)
            except Exception:  # breaker trip is the handling; the refusal shows up in ShardReport
                breaker.record_failure()
                continue
            breaker.record_success()
            del self.pending[shard]
        self.writes += written
        return written


class FleetService:
    """Deterministic, fault-isolating estimation service for a fleet."""

    def __init__(
        self,
        model: FittedPowerModel,
        *,
        envelope: Optional[PowerEnvelope] = None,
        smoothing: float = 0.5,
        breaker_threshold: int = 3,
        recovery_threshold: int = 2,
        drift_window: int = 20,
        drift_tolerance: float = 0.5,
        n_shards: int = 8,
        queue_capacity: int = 1024,
        policy: str = "reject",
        snapshot_dir: Optional[str] = None,
        snapshot_every_ticks: int = 1,
        max_snapshot_shards_per_tick: int = 0,
        shard_breaker_threshold: int = 3,
        shard_breaker_cooldown: int = 5,
        quarantine_probation: int = 50,
        seed: int = DEFAULT_SEED,
        step_hook=None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = int(n_shards)
        self.fleet = FleetEstimator(
            model,
            smoothing=smoothing,
            envelope=envelope,
            breaker_threshold=breaker_threshold,
            recovery_threshold=recovery_threshold,
            drift_window=drift_window,
            drift_tolerance=drift_tolerance,
            seed=seed,
            quarantine_probation=quarantine_probation,
        )
        self.queue = BoundedIngestQueue(queue_capacity, policy=policy)
        self.validator = SchemaValidator()
        self.duplicates = DuplicateAuditor()
        self.breakers = [
            ShardBreaker(
                threshold=shard_breaker_threshold,
                cooldown_ticks=shard_breaker_cooldown,
            )
            for _ in range(self.n_shards)
        ]
        self.store: Optional[FleetStateStore] = None
        if snapshot_dir is not None:
            self.store = FleetStateStore(
                snapshot_dir,
                fleet_fingerprint(
                    model,
                    smoothing=smoothing,
                    breaker_threshold=breaker_threshold,
                    recovery_threshold=recovery_threshold,
                    drift_window=drift_window,
                    drift_tolerance=drift_tolerance,
                ),
                n_shards=self.n_shards,
            )
        self.snapshot_worker = SnapshotWorker(
            every_ticks=snapshot_every_ticks,
            max_shards_per_tick=max_snapshot_shards_per_tick,
        )
        self._step_hook = step_hook
        """Test/chaos hook called as ``hook(shard, batch)`` before each
        shard sub-batch steps; an exception it raises is handled like
        any shard-operation failure (breaker + stateless fallback)."""
        self._node_shard: Dict[str, int] = {}
        self._restore_attempted: Set[str] = set()
        self._ticks = 0
        self._stateless_served = 0
        self._discarded_states = 0
        self._restored_nodes = 0

    # ------------------------------------------------------------------
    @property
    def ticks(self) -> int:
        return self._ticks

    @property
    def restored_nodes(self) -> int:
        return self._restored_nodes

    @property
    def discarded_states(self) -> int:
        """Per-node snapshots rejected as malformed at restore."""
        return self._discarded_states

    def shard_of(self, node_id: str) -> int:
        shard = self._node_shard.get(node_id)
        if shard is None:
            shard = shard_key(node_id) % self.n_shards
            self._node_shard[node_id] = shard
        return shard

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def submit(
        self, submissions: Sequence[object]
    ) -> Tuple[Tuple[str, float], ...]:
        """Validate and enqueue submissions.

        Returns the stateless baseline answers for samples the
        ``degrade-to-baseline`` policy diverted (empty under other
        policies).  Malformed submissions are dropped and counted by
        the middleware; rejected/shed samples are counted by the queue.
        """
        batch = self.validator.pack(submissions, self.fleet.counters)
        self.duplicates.observe(batch.node_ids)
        outcome = self.queue.offer(batch)
        return self._stateless_answers(outcome.diverted)

    def _stateless_answers(
        self, batch: Optional[Batch]
    ) -> Tuple[Tuple[str, float], ...]:
        """PMC-free baseline estimates that touch no per-node state."""
        if batch is None or not batch.n_rows:
            return ()
        power_w = self.fleet.stateless_power(batch.voltage_v, batch.frequency_mhz)
        self._stateless_served += batch.n_rows
        return tuple(zip(batch.node_ids, power_w.tolist()))

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def _restore_missing(self, node_ids: Sequence[str]) -> None:
        """Lazily restore first-seen nodes from the state store."""
        if self.store is None:
            return
        fresh = set(node_ids).difference(self._restore_attempted)
        if not fresh:
            return
        for node_id in node_ids:  # first sight, in arrival order
            if node_id not in fresh:
                continue
            fresh.discard(node_id)
            self._restore_attempted.add(node_id)
            if self.fleet.has_node(node_id):
                continue
            state = self.store.load(node_id)
            if state is None:
                continue  # absent, or its shard was corrupt (discarded)
            try:
                self.fleet.load_node_state(node_id, state)
                self._restored_nodes += 1
            except ValueError:
                # Malformed per-node snapshot: discard it, the node
                # restarts from the baseline model.
                self._discarded_states += 1

    def process(self, max_rows: int = 0) -> ProcessOutcome:
        """One service tick: drain, shard, step, snapshot."""
        self._ticks += 1
        for breaker in self.breakers:
            breaker.tick()
        batch = concat_batches(self.queue.drain(max_rows), self.fleet.counters)
        results: List[BatchResult] = []
        stateless: List[Tuple[str, float]] = []
        refused = 0
        for shard, rows in self._shard_rows(batch.node_ids):
            shard_batch = batch.take(rows)
            breaker = self.breakers[shard]
            if not breaker.allow():
                stateless.extend(self._stateless_answers(shard_batch))
                refused += 1
                continue
            try:
                if self._step_hook is not None:
                    self._step_hook(shard, shard_batch)
                self._restore_missing(shard_batch.node_ids)
                results.append(self.fleet.step_batch(shard_batch))
            except Exception:  # breaker trip is the handling; nodes get a counted stateless answer
                breaker.record_failure()
                stateless.extend(self._stateless_answers(shard_batch))
                continue
            breaker.record_success()
        if self.snapshot_worker.due(self._ticks):
            self.snapshot()
        return ProcessOutcome(
            results=tuple(results),
            stateless=tuple(stateless),
            processed_rows=sum(r.n_rows for r in results),
            refused_shards=refused,
        )

    def _shard_rows(
        self, node_ids: Sequence[str]
    ) -> List[Tuple[int, np.ndarray]]:
        """``(shard, row indices)`` per shard, shards ascending and each
        shard's rows in arrival order."""
        if not node_ids:
            return []
        shard_of = self._node_shard.get
        shards = [shard_of(node_id) for node_id in node_ids]
        if None in shards:
            shards = [self.shard_of(node_id) for node_id in node_ids]
        keys = np.array(shards, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        cuts = np.flatnonzero(np.diff(keys[order])) + 1
        return [
            (int(keys[rows[0]]), rows) for rows in np.split(order, cuts)
        ]

    def snapshot(self) -> int:
        """Persist dirty nodes now, within the per-tick shard budget;
        returns shard writes."""
        if self.store is None:
            return 0
        return self.snapshot_worker.run(
            self.fleet, self.store, self.breakers, self.shard_of
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def report(self) -> FleetReport:
        """Roll up node health, shard breakers and queue pressure."""
        per_shard_nodes: Dict[int, List[str]] = {}
        for node_id in self.fleet.node_ids():
            per_shard_nodes.setdefault(self.shard_of(node_id), []).append(
                node_id
            )
        shards = []
        for shard in range(self.n_shards):
            counts = self.fleet.health_counts(per_shard_nodes.get(shard, []))
            breaker = self.breakers[shard]
            shards.append(
                ShardReport(
                    shard=shard,
                    n_nodes=counts["n_nodes"],
                    healthy=counts["healthy"],
                    degraded=counts["degraded"],
                    quarantined=counts["quarantined"],
                    breaker_state=breaker.state,
                    breaker_trips=breaker.trips,
                    refused_operations=breaker.refused,
                )
            )
        counts = self.fleet.health_counts()
        return FleetReport(
            n_nodes=counts["n_nodes"],
            healthy_nodes=counts["healthy"],
            degraded_nodes=counts["degraded"],
            quarantined_nodes=counts["quarantined"],
            stateless_served=self._stateless_served,
            dropped_malformed=self.validator.n_dropped,
            duplicate_rows=self.duplicates.n_duplicates,
            queue=self.queue.stats(),
            shards=tuple(shards),
            ticks=self._ticks,
            snapshot_writes=self.snapshot_worker.writes,
        )
