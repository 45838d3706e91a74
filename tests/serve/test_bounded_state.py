"""Per-node serving state stays the same size, and every shard gets its
snapshot turn.

A node that misbehaves for hours must cost as much to snapshot as one
that misbehaved for a minute: its warnings are a ring of the last
``WARNINGS_KEPT`` messages plus an ``n_warnings`` count, so the state
dict, and the bytes a shard stores for it, are bounded.  The snapshot
worker's per-tick shard budget goes round robin, so under steady
traffic no shard waits more than ``n_shards`` ticks for its write.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.online import WARNINGS_KEPT
from repro.serve import FleetEstimator, FleetService, NodeSample, make_batch

from .conftest import COUNTERS, make_fleet_samples

#: Bytes of one node's state as JSON, whatever its history: the fixed
#: fields plus a full warning ring and drift window (≈1.6 KB here).
NODE_STATE_BOUND = 3000


def faulty_sample(node_id, tick, rng):
    """Interval ``tick`` of a node that fails in a rotating way: NaN
    and negative deltas, a dead voltage rail, a timestamp stepping
    back, an implausible spike, and clean intervals between."""
    sample = make_fleet_samples([node_id], tick, rng)[0]
    deltas = dict(sample.counter_deltas)
    kind = tick % 7
    voltage_v, time_s = sample.voltage_v, sample.time_s
    if kind == 0:
        deltas["instructions"] = float("nan")
    elif kind == 1:
        deltas["cache-misses"] = -1.0
    elif kind == 2:
        voltage_v = 0.0
    elif kind == 3:
        time_s = time_s - 1000.0
    elif kind == 4:
        deltas["branches"] = 1e15
    return NodeSample(
        node_id, deltas, sample.interval_s, voltage_v,
        sample.frequency_mhz, time_s,
    )


class TestBoundedNodeState:
    def test_state_size_is_bounded_and_every_warning_counted(
        self, model, envelope
    ):
        fleet = FleetEstimator(
            model, envelope=envelope, breaker_threshold=2, drift_window=5
        )
        rng = np.random.default_rng(5)
        emitted = []
        sizes = []
        for tick in range(600):
            fleet.step_batch(
                make_batch([faulty_sample("n", tick, rng)], COUNTERS)
            )
            # Each interval adds at most a few warnings, all still in
            # the ring and all stamped with this interval's number.
            stamp = f"interval {tick + 1}: "
            emitted += [
                w for w in fleet.drift_report("n").warnings
                if w.startswith(stamp)
            ]
            sizes.append(len(json.dumps(fleet.node_state("n"))))

        state = fleet.node_state("n")
        assert state["n_warnings"] == len(emitted) > 500
        assert fleet.drift_report("n").n_warnings == len(emitted)
        assert state["warnings"] == emitted[-WARNINGS_KEPT:]
        assert max(sizes) <= NODE_STATE_BOUND
        # Flat, not merely capped: past the full ring only the digits
        # of interval numbers and tallies grow (an unbounded list grew
        # by ≈50 bytes per interval here).
        assert max(sizes[-100:]) - max(sizes[100:200]) < 100

    def test_snapshot_bytes_per_node_are_bounded(
        self, model, envelope, tmp_path
    ):
        """Every faulty node's stored entry stays under the bound after
        hundreds of snapshot ticks, and a shard stores only its
        entries' bytes (no padding to the longest one)."""
        healthy = [f"ok-{i}" for i in range(6)]
        faulty = [f"bad-{i}" for i in range(6)]
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=2,
            queue_capacity=4096,
            snapshot_dir=str(tmp_path),
            seed=3,
        )
        rng = np.random.default_rng(9)
        for tick in range(300):
            service.submit(
                make_fleet_samples(healthy, tick, rng)
                + [faulty_sample(n, tick, rng) for n in faulty]
            )
            service.process()

        for node in faulty:
            assert service.fleet.node_state(node)["n_warnings"] > 150
            assert len(json.dumps(service.store.load(node))) <= NODE_STATE_BOUND
        for path in tmp_path.glob("shard_*.npz"):
            with np.load(path) as data:
                blob = data["states"]
            entries = json.loads(blob.tobytes())
            assert blob.nbytes == len(json.dumps(entries).encode())
            assert blob.nbytes <= NODE_STATE_BOUND * len(entries)


class TestSnapshotBudget:
    def test_every_shard_written_within_n_shards_ticks(
        self, model, envelope, tmp_path
    ):
        """Budget 1 shard per tick, every shard dirty on every tick:
        round robin writes each shard once in every ``n_shards``
        consecutive ticks (lowest-first would write only shard 0)."""
        n_shards = 8
        nodes = [f"node-{i:03d}" for i in range(64)]
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=n_shards,
            queue_capacity=4096,
            snapshot_dir=str(tmp_path),
            max_snapshot_shards_per_tick=1,
            seed=3,
        )
        assert {service.shard_of(n) for n in nodes} == set(range(n_shards))
        store = service.store
        written = []
        write_shard = store._write_shard
        store._write_shard = lambda shard: (
            written.append(shard), write_shard(shard)
        )
        rng = np.random.default_rng(2)
        n_ticks = 3 * n_shards
        for tick in range(n_ticks):
            service.submit(make_fleet_samples(nodes, tick, rng))
            service.process()
        assert len(written) == n_ticks
        for start in range(n_ticks - n_shards + 1):
            assert set(written[start:start + n_shards]) == set(range(n_shards))
        assert len(list(tmp_path.glob("shard_*.npz"))) == n_shards
