"""Deterministic parallel execution layer.

Every fan-out loop in the reproduction — campaign cell acquisition,
Algorithm 1's per-step candidate fits, k-fold cross validation — is
embarrassingly parallel *and* seeded per work item, so parallel
execution must be (and is) bit-identical to serial execution.  This
package centralises how that fan-out happens:

* :class:`SerialExecutor`, :class:`ThreadExecutor`,
  :class:`ProcessExecutor` — one ``map`` contract, three backends,
  selected by name via :func:`resolve_executor` (``parallel="serial" |
  "thread" | "process"``, ``max_workers=N``) or the ``REPRO_PARALLEL``
  / ``REPRO_MAX_WORKERS`` environment variables;
* :class:`SharedArena` / :class:`ArrayHandle` — zero-copy
  shared-memory dispatch for the process backend: large arrays are
  published once and work items carry ~100-byte handles instead of
  pickled matrices, with :func:`split_batches` amortizing per-dispatch
  overhead (one batch per worker, flattened in pool order);
* :class:`TimingReport` / :class:`StageTimer` — per-stage wall-time
  accounting on a single monotonic clock, surfaced on
  ``CampaignReport`` and ``WorkflowResult``.

The determinism contract (DESIGN.md §11): results are ordered by work
item index, never by completion order; work items draw randomness only
from per-item keyed RNG streams (:func:`repro.seeding.derive_rng`);
side effects (checkpoints, progress) stay in the calling process.
Lint rule RL009 forbids direct ``concurrent.futures``/
``multiprocessing`` use anywhere else in the repository.
"""

from repro.parallel.arena import (
    ArrayHandle,
    SharedArena,
    release_arenas,
    split_batches,
)
from repro.parallel.executor import (
    MAX_WORKERS_ENV,
    PARALLEL_ENV,
    PARALLEL_KINDS,
    BaseExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_max_workers,
    resolve_executor,
    shutdown_pools,
)
from repro.parallel.timing import (
    MONOTONIC_CLOCK,
    StageTimer,
    StageTiming,
    TimingReport,
)

__all__ = [
    "PARALLEL_KINDS",
    "PARALLEL_ENV",
    "MAX_WORKERS_ENV",
    "ArrayHandle",
    "SharedArena",
    "release_arenas",
    "split_batches",
    "BaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "default_max_workers",
    "resolve_executor",
    "shutdown_pools",
    "MONOTONIC_CLOCK",
    "StageTiming",
    "StageTimer",
    "TimingReport",
]
