"""Fleet-scale resilient online power estimation service.

Layered like a backend app (DESIGN.md §15):

* :mod:`repro.serve.api` — wire types (:class:`NodeSample`,
  :class:`Batch`) and the one-pass column packer :func:`make_batch`;
* :mod:`repro.serve.middleware` — schema validation (through the
  packer) + duplicate audit;
* :mod:`repro.serve.queue` — bounded ingestion of column chunks with
  explicit backpressure policies;
* :mod:`repro.serve.fleet` — the online estimation kernel, vectorized
  over nodes; :class:`~repro.core.online.OnlineEstimator` is its
  one-node view and a serial oracle in the tests checks it;
* :mod:`repro.serve.state` — sharded atomic snapshot/restore;
* :mod:`repro.serve.breaker` — per-shard operation circuit breakers;
* :mod:`repro.serve.report` — shard and fleet health roll-ups;
* :mod:`repro.serve.app` — :class:`FleetService` tying it together.
"""

from repro.serve.api import Batch, NodeSample, concat_batches, make_batch
from repro.serve.app import FleetService, ProcessOutcome, SnapshotWorker
from repro.serve.breaker import BREAKER_STATES, ShardBreaker
from repro.serve.fleet import BatchResult, FleetEstimator
from repro.serve.middleware import DuplicateAuditor, SchemaValidator
from repro.serve.queue import (
    POLICIES,
    BoundedIngestQueue,
    OfferOutcome,
    QueueStats,
)
from repro.serve.report import FleetReport, ShardReport
from repro.serve.state import (
    SERVE_STATE_FORMAT,
    FleetStateStore,
    fleet_fingerprint,
)

__all__ = [
    "BREAKER_STATES",
    "POLICIES",
    "SERVE_STATE_FORMAT",
    "Batch",
    "BatchResult",
    "BoundedIngestQueue",
    "DuplicateAuditor",
    "FleetEstimator",
    "FleetReport",
    "FleetService",
    "FleetStateStore",
    "NodeSample",
    "OfferOutcome",
    "ProcessOutcome",
    "QueueStats",
    "SchemaValidator",
    "ShardBreaker",
    "ShardReport",
    "SnapshotWorker",
    "concat_batches",
    "fleet_fingerprint",
    "make_batch",
]
