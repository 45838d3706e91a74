"""Shared measurement campaigns for the experiment suite.

The full campaign — all roco2 + SPEC workloads at the five DVFS states,
with full PMU multiplexing — is the expensive step every experiment
depends on.  It is built once per process and cached on disk
(``.repro-cache/`` under the repository or current directory), keyed by
the root seed and a data-version stamp that is bumped whenever the
simulated physics change, so stale caches can never leak across code
revisions.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.acquisition.campaign import run_campaign
from repro.acquisition.dataset import PowerDataset
from repro.core.selection import SelectionResult, select_events
from repro.hardware.dvfs import PAPER_FREQUENCIES_MHZ, SELECTION_FREQUENCY_MHZ
from repro.hardware.platform import Platform
from repro.io.atomic import CORRUPT_ARCHIVE_ERRORS
from repro.seeding import DEFAULT_SEED

__all__ = [
    "DATA_VERSION",
    "full_dataset",
    "selection_dataset",
    "selected_counters",
    "selection_result",
    "clear_memory_cache",
]

#: Bump when the simulated platform or workload definitions change in a
#: way that alters campaign output.  It is pinned together with the
#: Table-I dataset digest in tests/experiments/test_dataset_pin.py.
DATA_VERSION = 8

_MEMORY_CACHE: Dict[Tuple[int, Tuple[int, ...]], PowerDataset] = {}
_SELECTION_CACHE: Dict[Tuple[int, int, int], SelectionResult] = {}


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        path = Path(env)
    else:
        path = Path.cwd() / ".repro-cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cache_path(seed: int, frequencies: Tuple[int, ...]) -> Path:
    key = hashlib.blake2b(
        f"v{DATA_VERSION}|{seed}|{frequencies}".encode(), digest_size=8
    ).hexdigest()
    return _cache_dir() / f"campaign_{key}.npz"


def clear_memory_cache() -> None:
    """Drop the in-process caches (tests use this for isolation)."""
    _MEMORY_CACHE.clear()
    _SELECTION_CACHE.clear()


def full_dataset(
    *,
    seed: int = DEFAULT_SEED,
    frequencies_mhz: Tuple[int, ...] = PAPER_FREQUENCIES_MHZ,
    use_disk_cache: bool = True,
) -> PowerDataset:
    """The complete paper campaign: all workloads × all DVFS states."""
    key = (seed, tuple(frequencies_mhz))
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    path = _cache_path(seed, tuple(frequencies_mhz))
    ds: Optional[PowerDataset] = None
    if use_disk_cache and path.exists():
        try:
            ds = PowerDataset.load_npz(path)
        except CORRUPT_ARCHIVE_ERRORS:
            # Truncated / partially written / bit-rotten cache (e.g. a
            # crash before save_npz went atomic).  Drop it and
            # fall through to regeneration — a stale artifact must
            # never be fatal, only slow.
            try:
                path.unlink()
            except OSError:
                pass
    if ds is None:
        from repro.workloads.registry import all_workloads

        platform = Platform(seed=seed)
        ds = run_campaign(platform, all_workloads(), frequencies_mhz)
        if use_disk_cache:
            ds.save_npz(path)
    _MEMORY_CACHE[key] = ds
    return ds


def selection_dataset(
    *,
    seed: int = DEFAULT_SEED,
    frequency_mhz: int = SELECTION_FREQUENCY_MHZ,
) -> PowerDataset:
    """All workloads at the fixed selection frequency (Section IV-A)."""
    return full_dataset(seed=seed).filter(frequency_mhz=frequency_mhz)


def selection_result(
    *,
    seed: int = DEFAULT_SEED,
    n_events: int = 6,
) -> SelectionResult:
    """Algorithm 1 run on the selection dataset (memoized)."""
    key = (seed, SELECTION_FREQUENCY_MHZ, n_events)
    if key not in _SELECTION_CACHE:
        _SELECTION_CACHE[key] = select_events(
            selection_dataset(seed=seed), n_events
        )
    return _SELECTION_CACHE[key]


def selected_counters(*, seed: int = DEFAULT_SEED) -> Tuple[str, ...]:
    """The six counters used throughout the evaluation."""
    return selection_result(seed=seed, n_events=6).selected
