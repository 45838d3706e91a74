"""Damaged JSON manifests reset their directory cleanly, never raise.

Two stores adopt a directory through a JSON file: the campaign
checkpoint (``manifest.json``: format, fingerprint, events) and the
sharded archive store under ``FleetStateStore`` (``shards.json``: the
same plus the shard count).  Each example replaces that file with
truncated, bit-flipped or arbitrary bytes, or with JSON of the wrong
shape, and opens the directory.  Opening must never raise.  It adopts
the directory, keeping the stored cell or shard, exactly when the file
decodes to an object with the store's format, fingerprint (and shard
count); otherwise it removes every stored archive and writes a fresh
file.  A second open then adopts what the first left.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acquisition.checkpoint import CHECKPOINT_FORMAT, CampaignCheckpoint
from repro.serve import FleetStateStore
from tests.oracles.acquisition import PhaseProfile, profile_table, tables_equal

FP = "fingerprint"
CELL = "cell0"
TABLE = profile_table(
    [
        [
            PhaseProfile(
                workload="compute", suite="roco2", frequency_mhz=2400, threads=1,
                run_index=0, phase_name="main", start_s=0.0, end_s=1.0,
                active_threads=1, power_w=41.0, voltage_v=1.05,
                counter_rates_per_s={"TOT_CYC": 2e9},
            )
        ]
    ]
)
STATES = {"node-0": {"smoothed_w": 100.0}, "node-1": {"smoothed_w": 101.0}}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _adoptable(path: Path, **fields) -> bool:
    """Whether the file decodes to an object carrying ``fields``."""
    try:
        meta = json.loads(path.read_text())
    except (ValueError, RecursionError):
        return False
    return isinstance(meta, dict) and all(meta.get(k) == v for k, v in fields.items())


def _open_checkpoint(directory: Path, blob: bytes) -> None:
    CampaignCheckpoint(directory, FP).store(CELL, TABLE)
    path = directory / CampaignCheckpoint.META
    path.write_bytes(blob)
    adopt = _adoptable(path, format=CHECKPOINT_FORMAT, fingerprint=FP)
    checkpoint = CampaignCheckpoint(directory, FP)
    assert checkpoint.has(CELL) == adopt
    if adopt:
        assert tables_equal(checkpoint.load(CELL), TABLE)
    assert all(isinstance(e, dict) for e in checkpoint.events())
    assert _adoptable(path, format=CHECKPOINT_FORMAT, fingerprint=FP)
    again = CampaignCheckpoint(directory, FP)
    assert again.has(CELL) == adopt
    assert again.events() == checkpoint.events()


def _open_shards(directory: Path, blob: bytes) -> None:
    FleetStateStore(directory, FP, n_shards=1).store_many(STATES)
    path = directory / FleetStateStore.META
    path.write_bytes(blob)
    fields = dict(format=FleetStateStore.FORMAT, fingerprint=FP, n_shards=1)
    adopt = _adoptable(path, **fields)
    store = FleetStateStore(directory, FP, n_shards=1)
    loaded = {node: store.load(node) for node in STATES}
    assert loaded == (STATES if adopt else dict.fromkeys(STATES))
    assert all(isinstance(e, dict) for e in store.events())
    assert _adoptable(path, **fields)
    again = FleetStateStore(directory, FP, n_shards=1)
    assert again.stored_keys() == (sorted(STATES) if adopt else [])


OPENERS = {"manifest": _open_checkpoint, "shards": _open_shards}


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """Each file's intact bytes, and a working directory."""
    root = tmp_path_factory.mktemp("manifests")
    CampaignCheckpoint(root / "manifest", FP)
    FleetStateStore(root / "shards", FP, n_shards=1)
    return root, {
        "manifest": (root / "manifest" / CampaignCheckpoint.META).read_bytes(),
        "shards": (root / "shards" / FleetStateStore.META).read_bytes(),
    }


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "flip", "bytes", "json", "fields", "deep"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        out = bytearray(blob)
        for pos, bit in draw(
            st.lists(
                st.tuples(st.integers(0, len(out) - 1), st.integers(0, 7)),
                min_size=1,
                max_size=3,
            )
        ):
            out[pos] ^= 1 << bit
        return bytes(out)
    if how == "bytes":
        return draw(st.binary(max_size=64))
    if how == "json":
        return json.dumps(draw(json_values)).encode()
    if how == "fields":
        # The right keys holding any JSON values (right ones included).
        meta = json.loads(blob)
        for key in list(meta):
            if draw(st.booleans()):
                meta[key] = draw(json_values | st.just(meta[key]))
        return json.dumps(meta).encode()
    # Nesting too deep to decode, or an integer past the digit limit.
    depth = draw(st.integers(2_000, 200_000))
    return draw(st.sampled_from([b"[" * depth, b'{"format": ' + b"1" * 5_000 + b"}"]))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_manifest_resets_or_adopts(intact, data):
    root, blobs = intact
    kind = data.draw(st.sampled_from(sorted(OPENERS)), label="kind")
    blob = data.draw(damaged(blobs[kind]), label="blob")
    with tempfile.TemporaryDirectory(dir=root) as directory:
        OPENERS[kind](Path(directory), blob)
