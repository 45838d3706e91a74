"""Sharded persistence of per-node estimator state.

:class:`FleetStateStore` stores per-node estimator snapshots
(:meth:`FleetEstimator.node_state`, which is also the single-node
:meth:`OnlineEstimator.state_dict`) keyed by node id, on top of the
generic :class:`~repro.acquisition.checkpoint.ShardedArchiveStore` —
the same atomic-write / corrupt-archive-discard discipline as the
campaign checkpoints, plus lazy per-shard reads.  A corrupt shard
loses only its own nodes (they restart from the baseline model);
restoring *k* nodes reads at most ``min(k, n_shards)`` shard files.

The store is fingerprinted by the model and estimator configuration
(:func:`fleet_fingerprint`): state written for a different model or a
different breaker/drift configuration is never adopted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

import numpy as np

from repro.acquisition.checkpoint import ShardedArchiveStore
from repro.core.model import FittedPowerModel
from repro.core.online import ONLINE_STATE_FORMAT

__all__ = ["SERVE_STATE_FORMAT", "FleetStateStore", "fleet_fingerprint"]

#: On-disk shard format of fleet state archives.  Independent of the
#: campaign checkpoint's ``CHECKPOINT_FORMAT`` and of the per-node
#: ``ONLINE_STATE_FORMAT`` carried inside each entry.
SERVE_STATE_FORMAT = 1


def fleet_fingerprint(model: FittedPowerModel, **config) -> str:
    """Identity of (model, estimator configuration) for store adoption.

    Two services share snapshots only if their coefficients, counter
    order and estimator thresholds all match bit for bit.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(ONLINE_STATE_FORMAT).encode())
    for counter in model.counters:
        h.update(counter.encode())
        h.update(b"\x00")
    for name, value in sorted(model.coefficients.items()):
        h.update(name.encode())
        h.update(np.float64(value).tobytes())
    for key in sorted(config):
        h.update(key.encode())
        h.update(repr(config[key]).encode())
    return h.hexdigest()


class FleetStateStore(ShardedArchiveStore):
    """Node id → estimator-state-dict archive, sharded and atomic.

    Entries are JSON documents inside the ``npz`` shard (state dicts
    are plain scalars/lists by contract); malformed JSON raises
    ``ValueError``, which the base store treats as a corrupt shard —
    discarded whole, logged, never half-trusted.
    """

    FORMAT = SERVE_STATE_FORMAT

    def _pack_shard(self, cells: Dict[str, object]) -> Dict[str, np.ndarray]:
        node_ids = list(cells)
        blobs = [json.dumps(cells[node_id]) for node_id in node_ids]
        return {
            "node_ids": np.array(node_ids, dtype=str),
            "states": np.array(blobs, dtype=str),
        }

    def _unpack_shard(self, data) -> Dict[str, object]:
        node_ids = [str(v) for v in data["node_ids"]]
        blobs = data["states"]
        if len(blobs) != len(node_ids):
            raise ValueError("shard node/state arrays disagree")
        out: Dict[str, object] = {}
        for node_id, blob in zip(node_ids, blobs):
            state = json.loads(str(blob))  # ValueError if corrupt
            if not isinstance(state, dict):
                raise ValueError("node state entry is not an object")
            out[node_id] = state
        return out
