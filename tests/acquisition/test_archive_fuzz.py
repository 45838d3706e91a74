"""Damaged compressed archives are discarded, never raised.

Three loaders read ``atomic_savez`` archives and promise to discard a
corrupt one: the campaign cache (``experiments.data.full_dataset``), a
checkpoint cell (``CampaignCheckpoint.load``) and a fleet-state shard
(``ShardedArchiveStore._load_shard`` under ``FleetStateStore``).  Each
example truncates or bit-flips one archive.  The loader must then either
return the original content (the damage hit bytes the reader ignores)
or discard the file cleanly: removed and logged for a cell or shard,
regenerated and rewritten for the cache.  A bit flip inside the deflate
stream raises ``zlib.error``; a flipped compression method, version or
encryption flag raises ``NotImplementedError`` or ``RuntimeError``; a
mangled array header raises ``tokenize.TokenError``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acquisition.checkpoint import CampaignCheckpoint
from repro.acquisition.dataset import PowerDataset
from repro.experiments import data as expdata
from repro.serve import FleetStateStore
from tests.oracles.acquisition import PhaseProfile, profile_table, tables_equal

FP = "fingerprint"
FREQS = (1200,)
CELL = "cell0"

DATASET = PowerDataset(
    counters=np.arange(18.0).reshape(6, 3) * 1e6 + 1.0,
    power_w=np.linspace(50.0, 100.0, 6),
    voltage_v=np.full(6, 1.0),
    frequency_mhz=np.full(6, 1200),
    threads=np.arange(1, 7),
    workloads=("compute",) * 3 + ("md",) * 3,
    suites=("roco2",) * 3 + ("spec_omp2012",) * 3,
    phase_names=("main",) * 6,
    counter_names=("TOT_CYC", "TOT_INS", "L3_TCM"),
)
TABLE = profile_table([[
    PhaseProfile(
        workload="compute",
        suite="roco2",
        frequency_mhz=2400,
        threads=threads,
        run_index=0,
        phase_name="main",
        start_s=0.0,
        end_s=1.0,
        active_threads=threads,
        power_w=40.0 + threads,
        voltage_v=1.05,
        # Archives keep counters in name order.
        counter_rates_per_s={"TOT_CYC": 2e9, "TOT_INS": 1e9 * threads},
    )
    for threads in (1, 2, 4)
]])
STATES = {
    f"node-{i}": {"smoothed_w": 100.0 + i, "window": [1.5 * i] * 8, "breaker": "closed"}
    for i in range(4)
}


def _dataset_fields(ds):
    return (ds.counters.tolist(), ds.power_w.tolist(), ds.workloads, ds.counter_names)


def _load_cache(directory, blob):
    """The campaign cache: a damaged file is regenerated and rewritten."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(directory))
        mp.setattr(expdata, "run_campaign", lambda *args, **kwargs: DATASET)
        expdata.clear_memory_cache()
        path = expdata._cache_path(expdata.DEFAULT_SEED, FREQS)
        path.write_bytes(blob)
        try:
            loaded = expdata.full_dataset(frequencies_mhz=FREQS)
        finally:
            expdata.clear_memory_cache()
    assert _dataset_fields(loaded) == _dataset_fields(DATASET)
    assert _dataset_fields(PowerDataset.load_npz(path)) == _dataset_fields(DATASET)


def _load_cell(directory, blob):
    path = CampaignCheckpoint(directory, FP).cell_path(CELL)
    path.write_bytes(blob)
    checkpoint = CampaignCheckpoint(directory, FP)
    table = checkpoint.load(CELL)
    if table is not None:
        assert tables_equal(table, TABLE)
        return
    assert not path.exists()
    assert [e["kind"] for e in checkpoint.events()] == ["corrupt-cell-discarded"]


def _load_shard(directory, blob):
    path = FleetStateStore(directory, FP, n_shards=1).shard_path(0)
    path.write_bytes(blob)
    store = FleetStateStore(directory, FP, n_shards=1)
    states = {node: store.load(node) for node in STATES}
    if states == STATES:
        return
    assert states == dict.fromkeys(STATES)
    assert not path.exists()
    assert [e["kind"] for e in store.events()] == ["corrupt-shard-discarded"]


LOADERS = {"cache": _load_cache, "cell": _load_cell, "shard": _load_shard}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Intact archive bytes of each kind, and a working directory."""
    root = tmp_path_factory.mktemp("archives")
    DATASET.save_npz(root / "cache.npz")
    checkpoint = CampaignCheckpoint(root / "cell", FP)
    checkpoint.store(CELL, TABLE)
    store = FleetStateStore(root / "shard", FP, n_shards=1)
    store.store_many(STATES)
    blobs = {
        "cache": (root / "cache.npz").read_bytes(),
        "cell": checkpoint.cell_path(CELL).read_bytes(),
        "shard": store.shard_path(0).read_bytes(),
    }
    return root, blobs


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_archive_is_discarded_cleanly(archives, data):
    root, blobs = archives
    kind = data.draw(st.sampled_from(sorted(LOADERS)), label="kind")
    blob = bytearray(blobs[kind])
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="cut") :]
    else:
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7))
        for pos, bit in data.draw(st.lists(flips, min_size=1, max_size=3), label="flips"):
            blob[pos] ^= 1 << bit
    with tempfile.TemporaryDirectory(dir=root) as directory:
        LOADERS[kind](Path(directory), bytes(blob))
