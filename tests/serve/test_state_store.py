"""Sharded state-store semantics: atomicity, lazy reads, blast radius.

The promise under test is the serve layer's restore contract: a
corrupt shard file loses only the nodes placed in that shard, restore
of *k* nodes reads at most the dirty shards, and nothing corrupt ever
escapes as an exception.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.serve.state as state_module
from repro.core.online import OnlineEstimator
from repro.serve import FleetStateStore, fleet_fingerprint

from .conftest import make_fleet_samples, synthetic_model


@pytest.fixture()
def model():
    return synthetic_model()


def node_states(model, node_ids, n_steps=4, seed=3):
    """Real estimator snapshots after a few streamed intervals."""
    rng = np.random.default_rng(seed)
    estimators = {nid: OnlineEstimator(model) for nid in node_ids}
    for tick in range(n_steps):
        for sample in make_fleet_samples(node_ids, tick, rng):
            estimators[sample.node_id].step(
                sample.counter_deltas,
                interval_s=sample.interval_s,
                voltage_v=sample.voltage_v,
                frequency_mhz=sample.frequency_mhz,
                time_s=sample.time_s,
            )
    return {nid: est.state_dict() for nid, est in estimators.items()}


class TestFleetStateStore:
    def test_roundtrip_restores_exact_state(self, model, tmp_path):
        fp = fleet_fingerprint(model, smoothing=0.3)
        store = FleetStateStore(tmp_path, fp, n_shards=4)
        states = node_states(model, [f"n{i}" for i in range(10)])
        store.store_many(states.items())

        fresh = FleetStateStore(tmp_path, fp, n_shards=4)
        for nid, state in states.items():
            assert fresh.load(nid) == state
        assert set(fresh.stored_keys()) == set(states)

    def test_restore_reads_at_most_dirty_shards(self, model, tmp_path):
        fp = fleet_fingerprint(model)
        store = FleetStateStore(tmp_path, fp, n_shards=8)
        states = node_states(model, [f"n{i}" for i in range(20)])
        store.store_many(states.items())

        reader = FleetStateStore(tmp_path, fp, n_shards=8)
        dirty = {reader.shard_of(nid) for nid in states}
        for nid in states:
            reader.load(nid)
        assert reader.shard_reads <= len(dirty)
        # Re-reading is free: shards are cached after first touch.
        before = reader.shard_reads
        for nid in states:
            reader.load(nid)
        assert reader.shard_reads == before

    def test_corrupt_shard_loses_only_its_own_nodes(self, model, tmp_path):
        fp = fleet_fingerprint(model)
        store = FleetStateStore(tmp_path, fp, n_shards=4)
        states = node_states(model, [f"n{i}" for i in range(16)])
        store.store_many(states.items())

        victim = sorted(tmp_path.glob("shard_*.npz"))[0]
        victim.write_bytes(b"this is not a zip archive")

        reader = FleetStateStore(tmp_path, fp, n_shards=4)
        lost = [n for n in states if reader.shard_of(n) == 0]
        kept = [n for n in states if reader.shard_of(n) != 0]
        assert lost, "fixture must place nodes in the corrupted shard"
        for nid in lost:
            assert reader.load(nid) is None
        for nid in kept:
            assert reader.load(nid) == states[nid]
        assert any(
            e["kind"] == "corrupt-shard-discarded" for e in reader.events()
        )

    def test_mismatched_fingerprint_resets_store(self, model, tmp_path):
        store = FleetStateStore(
            tmp_path, fleet_fingerprint(model, drift_window=30), n_shards=2
        )
        states = node_states(model, ["a", "b"])
        store.store_many(states.items())

        other = FleetStateStore(
            tmp_path, fleet_fingerprint(model, drift_window=60), n_shards=2
        )
        assert other.load("a") is None
        assert other.stored_keys() == []

    def test_store_many_writes_each_dirty_shard_once(self, model, tmp_path):
        store = FleetStateStore(
            tmp_path, fleet_fingerprint(model), n_shards=4
        )
        states = node_states(model, [f"n{i}" for i in range(12)])
        dirty = {store.shard_of(nid) for nid in states}
        assert store.store_many(states.items()) == len(dirty)

    def test_entries_spread_across_shard_files(self, model, tmp_path):
        store = FleetStateStore(tmp_path, fleet_fingerprint(model), n_shards=4)
        states = node_states(model, [f"n{i}" for i in range(32)])
        store.store_many(states.items())
        assert len(list(tmp_path.glob("shard_*.npz"))) > 1
        # Every node hashes to the shard file it was stored in.
        for nid in states:
            assert store.shard_path(store.shard_of(nid)).exists()

    def test_nonpositive_shard_count_rejected(self, model, tmp_path):
        with pytest.raises(ValueError):
            FleetStateStore(tmp_path, fleet_fingerprint(model), n_shards=0)

    def test_missing_shard_is_not_a_read(self, model, tmp_path):
        store = FleetStateStore(tmp_path, fleet_fingerprint(model), n_shards=8)
        assert store.load("n0") is None
        assert store.shard_reads == 0

    def test_shard_count_mismatch_resets_store(self, model, tmp_path):
        # Re-sharding changes every key → shard mapping; adopting the
        # old files would scatter nodes into the wrong archives.
        fp = fleet_fingerprint(model)
        store = FleetStateStore(tmp_path, fp, n_shards=4)
        store.store_many(node_states(model, [f"n{i}" for i in range(8)]))

        other = FleetStateStore(tmp_path, fp, n_shards=8)
        assert other.stored_keys() == []

    def test_corrupt_meta_resets_store(self, model, tmp_path):
        fp = fleet_fingerprint(model)
        store = FleetStateStore(tmp_path, fp, n_shards=4)
        store.store_many(node_states(model, ["a", "b", "c", "d"]))
        (tmp_path / FleetStateStore.META).write_text("{broken json")

        other = FleetStateStore(tmp_path, fp, n_shards=4)
        assert other.stored_keys() == []

    def test_matching_store_is_adopted_with_its_history(self, model, tmp_path):
        fp = fleet_fingerprint(model)
        store = FleetStateStore(tmp_path, fp, n_shards=4)
        states = node_states(model, ["a", "b", "c", "d"])
        store.store_many(states.items())
        store.shard_path(store.shard_of("a")).write_bytes(b"junk")

        mid = FleetStateStore(tmp_path, fp, n_shards=4)
        mid.stored_keys()  # triggers the corrupt-shard discard
        final = FleetStateStore(tmp_path, fp, n_shards=4)
        assert any(
            e["kind"] == "corrupt-shard-discarded" for e in final.events()
        )
        survivors = [n for n in states if final.shard_of(n) != final.shard_of("a")]
        for nid in survivors:
            assert final.load(nid) == states[nid]

    def test_format1_store_is_reset_not_adopted(
        self, model, tmp_path, monkeypatch
    ):
        """A directory written before format 2 is reset at open, before
        any shard is read: the meta's shard format is 1, and the
        fingerprint covers ``ONLINE_STATE_FORMAT``, so even format-2
        shards of format-1 node states are never adopted."""
        with monkeypatch.context() as patch:
            patch.setattr(state_module, "ONLINE_STATE_FORMAT", 1)
            old_fp = fleet_fingerprint(model)
        new_fp = fleet_fingerprint(model)
        assert old_fp != new_fp
        legacy = {
            nid: {**{k: v for k, v in st.items() if k != "n_warnings"},
                  "format": 1}
            for nid, st in node_states(model, ["a", "b", "c"]).items()
        }
        # Format-1 layout: padded UCS-4 strings, one JSON per node.
        (tmp_path / FleetStateStore.META).write_text(json.dumps(
            {"format": 1, "fingerprint": old_fp, "n_shards": 2, "events": []}
        ))
        np.savez_compressed(
            tmp_path / "shard_0000.npz",
            format=np.array(1),
            node_ids=np.array(list(legacy), dtype=str),
            states=np.array([json.dumps(v) for v in legacy.values()], dtype=str),
        )
        fresh = FleetStateStore(tmp_path, new_fp, n_shards=2)
        assert not list(tmp_path.glob("shard_*.npz"))
        assert fresh.stored_keys() == [] and fresh.events() == []

        # Format-2 shards holding format-1 states: the fingerprint differs.
        FleetStateStore(tmp_path, old_fp, n_shards=2).store_many(legacy)
        assert list(tmp_path.glob("shard_*.npz"))
        fresh = FleetStateStore(tmp_path, new_fp, n_shards=2)
        assert not list(tmp_path.glob("shard_*.npz"))
        assert fresh.load("a") is None and fresh.stored_keys() == []
