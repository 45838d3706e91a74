"""Byte-level pin of the Table-I campaign dataset.

The full paper campaign at the default seed is hashed column by column
and compared with a hard-coded SHA-256 digest.  Any change to the
simulated platform, the tracer, the plugins, phase extraction or the
merge that moves a single bit of the dataset fails here.  The build
bypasses both the on-disk ``.repro-cache`` and the in-process memo, so
a stale cache can never hide a change.

The digest is pinned together with ``DATA_VERSION``, the stamp in every
campaign cache key: a change that moves the digest must bump the
version in the same commit, or every existing cache keeps serving the
old campaign.  Re-record both halves of the pin together.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.experiments import data as expdata
from repro.seeding import DEFAULT_SEED

#: ``DATA_VERSION`` and the SHA-256 of its default-seed campaign (see
#: :func:`dataset_digest`).
TABLE1_DATA_VERSION = 8
TABLE1_DATASET_SHA256 = (
    "43ea05e00e5b94dbaea12c15a2f4d7ebe705cf944810a2ea8bafbc9a3705a673"
)


def dataset_digest(ds) -> str:
    """SHA-256 over the numeric columns, counter names and row metadata."""
    h = hashlib.sha256()
    for name in ("counters", "power_w", "voltage_v", "frequency_mhz", "threads"):
        arr = np.ascontiguousarray(getattr(ds, name))
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    for name in ("counter_names", "workloads", "suites", "phase_names"):
        h.update(f"{name}|".encode())
        h.update("\x1f".join(getattr(ds, name)).encode())
    return h.hexdigest()


def test_table1_dataset_is_byte_pinned(monkeypatch):
    monkeypatch.setattr(expdata, "_MEMORY_CACHE", {})
    ds = expdata.full_dataset(seed=DEFAULT_SEED, use_disk_cache=False)
    digest = dataset_digest(ds)
    assert (expdata.DATA_VERSION, digest) == (
        TABLE1_DATA_VERSION,
        TABLE1_DATASET_SHA256,
    ), (
        f"the Table-I campaign is now DATA_VERSION {expdata.DATA_VERSION} "
        f"with digest {digest}.  A change that moves the digest must bump "
        "DATA_VERSION in repro/experiments/data.py, or cached campaigns of "
        "the old physics keep being served; then re-record "
        "TABLE1_DATA_VERSION and TABLE1_DATASET_SHA256 together."
    )
