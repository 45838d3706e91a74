"""Incremental campaign checkpoints: crash-safe persistence of runs.

A multi-day campaign must never lose finished work to a crash, an OOM
kill, or a cluster drain.  The campaign loop therefore persists the
phase profiles of every completed cell (one run of one experiment) the
moment it finishes, and on restart loads them back instead of
re-executing — checkpoint/resume at run granularity.

Layout of a checkpoint directory::

    <dir>/manifest.json        # {"format": 1, "fingerprint": "...",
                               #  "events": [...]}
    <dir>/cell_<id>.npz        # one archive per completed cell

The manifest's ``events`` list records recovery actions (corrupt cells
discarded, files that vanished under a concurrent cleanup) so a
multi-process campaign leaves an audit trail instead of silently
swallowing races.

The fingerprint hashes everything that determines a cell's output
(platform seed and noise parameters, the campaign plan, the fault plan,
the retry budget), so a checkpoint from a different configuration can
never leak into a resumed campaign: on mismatch the directory is reset
and acquisition starts over.  All writes go through
:mod:`repro.io.atomic`; a process killed mid-write leaves either the
old complete cell file or none, and corrupt cells found during resume
are discarded and re-executed rather than trusted (the same recovery
discipline as the experiment data cache).

Cell archives store the profile scalars as parallel arrays plus an
``(n_profiles, n_counters)`` rate matrix with NaN marking counters a
profile does not carry — float64 end to end, so a resumed campaign is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.io.atomic import CORRUPT_ARCHIVE_ERRORS, atomic_savez, atomic_write_json
from repro.tracing.phases import PhaseProfile

__all__ = [
    "CHECKPOINT_FORMAT",
    "CampaignCheckpoint",
    "ShardedArchiveStore",
    "cell_id",
    "shard_key",
]

#: Bump when the cell archive layout changes; old checkpoints are
#: discarded, never misread.
CHECKPOINT_FORMAT = 1


def cell_id(
    workload: str,
    frequency_mhz: int,
    threads: int,
    run_index: int,
    events: Iterable[str],
) -> str:
    """Stable identifier of one campaign cell (checkpoint file key)."""
    raw = f"{workload}|{frequency_mhz}|{threads}|{run_index}|{','.join(events)}"
    return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()


class CampaignCheckpoint:
    """One checkpoint directory bound to one campaign fingerprint."""

    MANIFEST = "manifest.json"

    def __init__(self, directory: Union[str, Path], fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self._events: List[Dict[str, str]] = []
        self._manifest_ready = False
        self._initialise()

    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.directory / self.MANIFEST

    def _initialise(self) -> None:
        """Adopt a matching checkpoint or reset a stale/corrupt one."""
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = None
        path = self._manifest_path()
        if path.is_file():
            try:
                manifest = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError, UnicodeDecodeError):
                manifest = None
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != CHECKPOINT_FORMAT
            or manifest.get("fingerprint") != self.fingerprint
        ):
            # Order matters: reset first, write the new manifest after.
            # A crash between the two leaves an invalid manifest, so the
            # next start resets again instead of adopting stale cells.
            # Events logged during the reset are buffered and land in
            # the first manifest write below.
            self.reset()
            self._write_manifest()
        else:
            prior = manifest.get("events", [])
            if isinstance(prior, list):
                self._events = [e for e in prior if isinstance(e, dict)]
            self._manifest_ready = True

    def _write_manifest(self) -> None:
        atomic_write_json(
            self._manifest_path(),
            {
                "format": CHECKPOINT_FORMAT,
                "fingerprint": self.fingerprint,
                "events": self._events,
            },
        )
        self._manifest_ready = True

    def _log_event(self, kind: str, detail: str) -> None:
        """Record a recovery action in the manifest's audit trail."""
        self._events.append({"kind": kind, "detail": detail})
        if self._manifest_ready:
            self._write_manifest()

    def events(self) -> List[Dict[str, str]]:
        """The manifest's recovery audit trail (copy)."""
        return list(self._events)

    def reset(self) -> None:
        """Drop every stored cell (stale fingerprint / fresh start)."""
        for cell_path in self.directory.glob("cell_*.npz"):
            try:
                cell_path.unlink()
            except FileNotFoundError:
                # Already gone: a concurrent cleanup (another campaign
                # sharing the directory) unlinked it between the glob
                # and here.  Benign, but worth an audit line; any other
                # OSError (permissions, I/O) propagates.
                self._log_event(
                    "concurrent-cleanup",
                    f"{cell_path.name} vanished during reset",
                )

    # ------------------------------------------------------------------
    def cell_path(self, cid: str) -> Path:
        return self.directory / f"cell_{cid}.npz"

    def has(self, cid: str) -> bool:
        return self.cell_path(cid).is_file()

    def completed_cells(self) -> List[str]:
        """Ids of all cells currently stored."""
        return sorted(
            p.stem[len("cell_"):] for p in self.directory.glob("cell_*.npz")
        )

    # ------------------------------------------------------------------
    def store(self, cid: str, profiles: Sequence[PhaseProfile]) -> None:
        """Atomically persist one completed cell's profiles."""
        atomic_savez(
            self.cell_path(cid),
            format=np.array(CHECKPOINT_FORMAT),
            **_pack_profiles(profiles),
        )

    def load(self, cid: str) -> Optional[List[PhaseProfile]]:
        """Profiles of one stored cell, or ``None`` if absent/corrupt.

        A corrupt archive (truncated write from a previous non-atomic
        tool, bit rot, wrong format) is deleted so the campaign re-runs
        the cell instead of tripping over it again — recovery, not
        trust.
        """
        path = self.cell_path(cid)
        if not path.is_file():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["format"]) != CHECKPOINT_FORMAT:
                    raise ValueError("unknown checkpoint cell format")
                names = [str(c) for c in data["counter_names"]]
                rates = data["counter_rates_per_s"]
                return [
                    _unpack_profile(data, names, rates, i)
                    for i in range(rates.shape[0])
                ]
        except CORRUPT_ARCHIVE_ERRORS as exc:
            try:
                path.unlink()
                self._log_event(
                    "corrupt-cell-discarded",
                    f"{path.name}: {type(exc).__name__}: {exc}",
                )
            except FileNotFoundError:
                # A concurrent cleanup unlinked it first; other OSErrors
                # (permissions, I/O) propagate rather than being eaten.
                self._log_event(
                    "concurrent-cleanup",
                    f"{path.name} vanished during corrupt-cell discard",
                )
            return None


def _pack_profiles(profiles: Sequence[PhaseProfile]) -> Dict[str, np.ndarray]:
    """Profile scalars as parallel arrays plus the NaN-marked rate
    matrix — the cell archive layout."""
    names = sorted({c for p in profiles for c in p.counter_rates_per_s})
    rates = np.full((len(profiles), len(names)), np.nan)
    for i, p in enumerate(profiles):
        for j, name in enumerate(names):
            if name in p.counter_rates_per_s:
                rates[i, j] = p.counter_rates_per_s[name]
    return {
        "workload": np.array([p.workload for p in profiles]),
        "suite": np.array([p.suite for p in profiles]),
        "frequency_mhz": np.array(
            [p.frequency_mhz for p in profiles], dtype=np.int64
        ),
        "threads": np.array([p.threads for p in profiles], dtype=np.int64),
        "run_index": np.array([p.run_index for p in profiles], dtype=np.int64),
        "phase_name": np.array([p.phase_name for p in profiles]),
        "start_s": np.array([p.start_s for p in profiles]),
        "end_s": np.array([p.end_s for p in profiles]),
        "active_threads": np.array(
            [p.active_threads for p in profiles], dtype=np.int64
        ),
        "power_w": np.array([p.power_w for p in profiles]),
        "voltage_v": np.array([p.voltage_v for p in profiles]),
        "counter_names": np.array(names),
        "counter_rates_per_s": rates,
    }


def _unpack_profile(data, names: List[str], rates: np.ndarray, i: int) -> PhaseProfile:
    """One profile row out of a packed cell archive."""
    row = {
        name: float(rates[i, j])
        for j, name in enumerate(names)
        if not np.isnan(rates[i, j])
    }
    return PhaseProfile(
        workload=str(data["workload"][i]),
        suite=str(data["suite"][i]),
        frequency_mhz=int(data["frequency_mhz"][i]),
        threads=int(data["threads"][i]),
        run_index=int(data["run_index"][i]),
        phase_name=str(data["phase_name"][i]),
        start_s=float(data["start_s"][i]),
        end_s=float(data["end_s"][i]),
        active_threads=int(data["active_threads"][i]),
        power_w=float(data["power_w"][i]),
        voltage_v=float(data["voltage_v"][i]),
        counter_rates_per_s=row,
    )


def shard_key(key: str) -> int:
    """Stable integer hash of an arbitrary string key.

    Used for shard placement (e.g. of fleet node ids); the same key
    lands in the same shard on every run and every host.
    """
    return int(
        hashlib.blake2b(key.encode(), digest_size=8).hexdigest(), 16
    )


class ShardedArchiveStore:
    """Generic sharded, atomic, corruption-tolerant key → value store.

    The recovery discipline of :class:`CampaignCheckpoint` — atomic
    writes, corrupt archives discarded with an audit trail,
    fingerprint-guarded adoption — applied to many small entries packed
    into a fixed number of archives.  The machinery is value-agnostic;
    subclasses provide only the archive layout via :meth:`_pack_shard` /
    :meth:`_unpack_shard`.  The serving layer's per-node estimator
    state store (:class:`~repro.serve.state.FleetStateStore`) is the
    one subclass:

    * keys are hashed into ``n_shards`` archive files, so a store of
      millions of entries is N files, not millions of inodes;
    * each shard write goes through :func:`repro.io.atomic.atomic_savez`,
      so writers of *different* shards never corrupt each other and a
      kill mid-write leaves the old complete shard;
    * reads are lazy, one shard on first touch — restoring k entries
      reads at most ``min(k, N)`` shards (``shard_reads`` counts actual
      file reads; the resume tests assert on it);
    * a corrupt shard is discarded and logged, losing only its own
      entries — every other shard is untouched.

    One shard file is the unit of both atomicity and loss.
    """

    META = "shards.json"
    #: Archive-format stamp; subclasses bump their own independently.
    FORMAT: int = 1

    def __init__(
        self,
        directory: Union[str, Path],
        fingerprint: str,
        *,
        n_shards: int = 8,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.n_shards = int(n_shards)
        self._events: List[Dict[str, str]] = []
        self._meta_ready = False
        #: shard index → {key → value}, for shards read or written.
        self._shards: Dict[int, Dict[str, object]] = {}
        self.shard_reads = 0
        self.shard_writes = 0
        self._initialise()

    # -- subclass hooks -------------------------------------------------
    def _pack_shard(self, cells: Dict[str, object]) -> Dict[str, np.ndarray]:
        """One shard's entries as ``npz``-ready arrays."""
        raise NotImplementedError  # pragma: no cover

    def _unpack_shard(self, data) -> Dict[str, object]:
        """Entries out of one loaded ``npz`` archive.  Malformed
        content must raise one of ``CORRUPT_ARCHIVE_ERRORS`` so the
        shard is discarded, never half-trusted."""
        raise NotImplementedError  # pragma: no cover

    # ------------------------------------------------------------------
    def _meta_path(self) -> Path:
        return self.directory / self.META

    def _initialise(self) -> None:
        """Adopt a matching shard store or reset a stale/corrupt one."""
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = None
        path = self._meta_path()
        if path.is_file():
            try:
                meta = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError, UnicodeDecodeError):
                meta = None
        if (
            not isinstance(meta, dict)
            or meta.get("format") != self.FORMAT
            or meta.get("fingerprint") != self.fingerprint
            or meta.get("n_shards") != self.n_shards
        ):
            # Reset first, write the new meta after — a crash between
            # the two resets again rather than adopting stale shards.
            self.reset()
            self._write_meta()
        else:
            prior = meta.get("events", [])
            if isinstance(prior, list):
                self._events = [e for e in prior if isinstance(e, dict)]
            self._meta_ready = True

    def _write_meta(self) -> None:
        atomic_write_json(
            self._meta_path(),
            {
                "format": self.FORMAT,
                "fingerprint": self.fingerprint,
                "n_shards": self.n_shards,
                "events": self._events,
            },
        )
        self._meta_ready = True

    def _log_event(self, kind: str, detail: str) -> None:
        """Record a recovery action in the meta file's audit trail."""
        self._events.append({"kind": kind, "detail": detail})
        if self._meta_ready:
            self._write_meta()

    def events(self) -> List[Dict[str, str]]:
        """The shard store's recovery audit trail (copy)."""
        return list(self._events)

    def reset(self) -> None:
        """Drop every shard (stale fingerprint / fresh start)."""
        self._shards = {}
        for shard_path in self.directory.glob("shard_*.npz"):
            try:
                shard_path.unlink()
            except FileNotFoundError:
                self._log_event(
                    "concurrent-cleanup",
                    f"{shard_path.name} vanished during reset",
                )

    # ------------------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """Shard index a key hashes into."""
        return shard_key(key) % self.n_shards

    def shard_path(self, shard: int) -> Path:
        return self.directory / f"shard_{shard:04d}.npz"

    def _load_shard(self, shard: int) -> Dict[str, object]:
        """Entries of one shard, reading the file on first touch only."""
        cached = self._shards.get(shard)
        if cached is not None:
            return cached
        cells: Dict[str, object] = {}
        self._shards[shard] = cells
        path = self.shard_path(shard)
        if not path.is_file():
            return cells
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["format"]) != self.FORMAT:
                    raise ValueError("unknown shard format")
                self.shard_reads += 1
                cells.update(self._unpack_shard(data))
        except CORRUPT_ARCHIVE_ERRORS as exc:
            # One corrupt shard loses only its own entries; fleet nodes
            # restart from the baseline model.
            cells.clear()
            try:
                path.unlink()
                self._log_event(
                    "corrupt-shard-discarded",
                    f"{path.name}: {type(exc).__name__}: {exc}",
                )
            except FileNotFoundError:
                self._log_event(
                    "concurrent-cleanup",
                    f"{path.name} vanished during corrupt-shard discard",
                )
        return cells

    def _write_shard(self, shard: int) -> None:
        cells = self._shards.get(shard, {})
        atomic_savez(
            self.shard_path(shard),
            format=np.array(self.FORMAT),
            **self._pack_shard(cells),
        )
        self.shard_writes += 1

    # ------------------------------------------------------------------
    def stored_keys(self) -> List[str]:
        """All keys currently stored (reads every shard)."""
        out: List[str] = []
        for path in self.directory.glob("shard_*.npz"):
            shard = int(path.stem[len("shard_"):])
            out.extend(str(k) for k in self._load_shard(shard))
        return sorted(out)

    def store_many(self, items) -> int:
        """Persist a batch of entries, rewriting each dirty shard once.

        ``items`` is a mapping or an iterable of ``(key, value)``
        pairs.  The snapshot worker's entry point: N nodes land as
        ``min(N, n_shards)`` shard writes instead of N.  Returns the
        number of shard files written.
        """
        pairs = items.items() if isinstance(items, dict) else items
        by_shard: Dict[int, Dict[str, object]] = {}
        for key, value in pairs:
            by_shard.setdefault(self.shard_of(key), {})[key] = value
        for shard, entries in sorted(by_shard.items()):
            self._load_shard(shard).update(entries)
            self._write_shard(shard)
        return len(by_shard)

    def load(self, key: str) -> Optional[object]:
        """One stored entry, or ``None`` if absent — only this key's
        shard is read (and only on first touch)."""
        return self._load_shard(self.shard_of(key)).get(key)
