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
SERVE_STATE_FORMAT = 2


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

    A shard is one JSON object, node id → state dict (state dicts are
    plain scalars/lists by contract), stored as its UTF-8 bytes in a
    ``uint8`` array: the bytes a shard takes grow with the states in
    it, not with its longest state.  Malformed JSON or UTF-8 raises
    ``ValueError``, which the base store treats as a corrupt shard —
    discarded whole, logged, never half-trusted.
    """

    FORMAT = SERVE_STATE_FORMAT

    def _pack_shard(self, cells: Dict[str, object]) -> Dict[str, np.ndarray]:
        blob = json.dumps(cells).encode()
        return {"states": np.frombuffer(blob, dtype=np.uint8)}

    def _unpack_shard(self, data) -> Dict[str, object]:
        cells = json.loads(data["states"].tobytes())  # ValueError if corrupt
        if not isinstance(cells, dict) or not all(
            isinstance(state, dict) for state in cells.values()
        ):
            raise ValueError("shard entries are not node-state objects")
        return cells
