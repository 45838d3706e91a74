"""Incremental campaign checkpoints: crash-safe persistence of runs.

A multi-day campaign must never lose finished work to a crash, an OOM
kill, or a cluster drain.  The campaign loop therefore persists the
phase-table rows of every completed cell (one run of one experiment) the
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

Cell archives store a cell's rows of the phase table as parallel
arrays plus an ``(n_profiles, n_counters)`` rate matrix of the
counters the cell recorded, in name order, with NaN marking counters a
row does not carry — float64 end to end, so a resumed campaign is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.io.atomic import CORRUPT_ARCHIVE_ERRORS, atomic_savez, atomic_write_json
from repro.tracing.phases import PhaseTable

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

#: What reading a damaged JSON manifest can raise: ``ValueError`` for
#: bad UTF-8, bad JSON or an integer past the digit limit,
#: ``RecursionError`` for nesting too deep to decode, ``OSError`` for
#: the read.  Any of them resets the directory.
MANIFEST_ERRORS = (ValueError, RecursionError, OSError)


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


class _ArchiveDirectory:
    """A directory of :func:`~repro.io.atomic.atomic_savez` archives,
    adopted through a JSON file (``META``) that names its format and
    fingerprint.

    On open, a file that does not decode to an object carrying this
    store's :meth:`_meta` resets the directory: every ``PREFIX_*.npz``
    archive is removed, then a fresh file is written.  Its ``events``
    list is the audit trail of recovery actions (corrupt archives
    discarded, files that vanished under a concurrent cleanup).
    """

    META: str
    PREFIX: str
    FORMAT: int

    def __init__(self, directory: Union[str, Path], fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self._events: List[Dict[str, str]] = []
        self._meta_ready = False
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = None
        path = self.directory / self.META
        if path.is_file():
            try:
                meta = json.loads(path.read_text())
            except MANIFEST_ERRORS:
                meta = None
        if not isinstance(meta, dict) or any(
            meta.get(key) != value for key, value in self._meta().items()
        ):
            # Order matters: reset first, write the new file after.  A
            # crash between the two leaves an invalid file, so the next
            # start resets again instead of adopting stale archives.
            # Events logged during the reset are buffered and land in
            # the first write below.
            self.reset()
            self._write_meta()
        else:
            prior = meta.get("events", [])
            if isinstance(prior, list):
                self._events = [e for e in prior if isinstance(e, dict)]
            self._meta_ready = True

    def _meta(self) -> Dict[str, object]:
        """What the JSON file must carry for the directory to be adopted."""
        return {"format": self.FORMAT, "fingerprint": self.fingerprint}

    def _write_meta(self) -> None:
        atomic_write_json(
            self.directory / self.META, {**self._meta(), "events": self._events}
        )
        self._meta_ready = True

    def _log_event(self, kind: str, detail: str) -> None:
        """Record a recovery action in the audit trail."""
        self._events.append({"kind": kind, "detail": detail})
        if self._meta_ready:
            self._write_meta()

    def events(self) -> List[Dict[str, str]]:
        """The recovery audit trail (copy)."""
        return list(self._events)

    def reset(self) -> None:
        """Drop every stored archive (stale fingerprint / fresh start)."""
        for path in self.directory.glob(f"{self.PREFIX}_*.npz"):
            try:
                path.unlink()
            except FileNotFoundError:
                # Already gone: a concurrent cleanup (another process
                # sharing the directory) unlinked it between the glob
                # and here.  Benign, but worth an audit line; any other
                # OSError (permissions, I/O) propagates.
                self._log_event(
                    "concurrent-cleanup", f"{path.name} vanished during reset"
                )

    def _read(self, path: Path, unpack: Callable[[Any], object]) -> Optional[object]:
        """``unpack`` of the archive at ``path``, or ``None`` if absent
        or corrupt.

        A corrupt archive (truncated write from a previous non-atomic
        tool, bit rot, wrong format) is deleted, so its entries are
        recomputed instead of tripped over again — recovery, not
        trust.  ``unpack`` must raise one of ``CORRUPT_ARCHIVE_ERRORS``
        on malformed content.
        """
        if not path.is_file():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["format"]) != self.FORMAT:
                    raise ValueError(f"unknown {self.PREFIX} format")
                return unpack(data)
        except CORRUPT_ARCHIVE_ERRORS as exc:
            try:
                path.unlink()
                self._log_event(
                    f"corrupt-{self.PREFIX}-discarded",
                    f"{path.name}: {type(exc).__name__}: {exc}",
                )
            except FileNotFoundError:
                # A concurrent cleanup unlinked it first; other OSErrors
                # (permissions, I/O) propagate rather than being eaten.
                self._log_event(
                    "concurrent-cleanup",
                    f"{path.name} vanished during corrupt-{self.PREFIX} discard",
                )
            return None


class CampaignCheckpoint(_ArchiveDirectory):
    """One checkpoint directory bound to one campaign fingerprint."""

    META = "manifest.json"
    PREFIX = "cell"
    FORMAT = CHECKPOINT_FORMAT

    def cell_path(self, cid: str) -> Path:
        return self.directory / f"cell_{cid}.npz"

    def has(self, cid: str) -> bool:
        return self.cell_path(cid).is_file()

    def completed_cells(self) -> List[str]:
        """Ids of all cells currently stored."""
        return sorted(
            p.stem[len("cell_"):] for p in self.directory.glob("cell_*.npz")
        )

    def store(self, cid: str, table: PhaseTable) -> None:
        """Atomically persist one completed cell's phase table."""
        atomic_savez(
            self.cell_path(cid),
            format=np.array(CHECKPOINT_FORMAT),
            **_pack_table(table),
        )

    def load(self, cid: str) -> Optional[PhaseTable]:
        """Phase table of one stored cell, or ``None`` if absent or
        corrupt (then deleted, so the campaign re-runs the cell)."""
        return self._read(self.cell_path(cid), _unpack_table)


#: Archive key of each per-row column of a :class:`PhaseTable`: its
#: name, the string columns' in the singular.
_STRING_KEYS = {"workloads": "workload", "suites": "suite", "phase_names": "phase_name"}
_ARCHIVE_KEYS = {f.name: _STRING_KEYS.get(f.name, f.name) for f in fields(PhaseTable)[:-3]}


def _pack_table(table: PhaseTable) -> Dict[str, np.ndarray]:
    """A cell's rows as parallel arrays plus the NaN-marked rate matrix
    of the counters it recorded, in name order — the cell archive
    layout."""
    recorded = ~np.isnan(table.rates_per_s)
    names = sorted(
        name for name, seen in zip(table.counter_names, recorded.any(axis=0)) if seen
    )
    columns = [table.counter_names.index(name) for name in names]
    packed = {}
    for name, key in _ARCHIVE_KEYS.items():
        value = getattr(table, name)
        packed[key] = np.array(list(value)) if isinstance(value, tuple) else value
    # One NaN for "not recorded", whatever NaN the mean produced; C
    # order, as the archive has always stored it.
    rates = np.where(recorded[:, columns], table.rates_per_s[:, columns], np.nan)
    packed["counter_names"] = np.array(names)
    packed["counter_rates_per_s"] = np.ascontiguousarray(rates)
    return packed


def _unpack_table(data) -> PhaseTable:
    """The phase table of one cell archive; columns of unequal length
    raise ``ValueError``."""
    columns = {
        name: tuple(map(str, data[key])) if name in _STRING_KEYS else data[key]
        for name, key in _ARCHIVE_KEYS.items()
    }
    names = tuple(map(str, data["counter_names"]))
    rates = data["counter_rates_per_s"]
    n = len(rates)
    if rates.shape != (n, len(names)) or any(len(c) != n for c in columns.values()):
        raise ValueError("cell archive columns disagree in length")
    return PhaseTable(
        **columns, counter_names=names, rates_per_s=rates, run_offsets=(0, n)
    )


def shard_key(key: str) -> int:
    """Stable integer hash of an arbitrary string key.

    Used for shard placement (e.g. of fleet node ids); the same key
    lands in the same shard on every run and every host.
    """
    return int(
        hashlib.blake2b(key.encode(), digest_size=8).hexdigest(), 16
    )


class ShardedArchiveStore(_ArchiveDirectory):
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
    PREFIX = "shard"
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
        self.n_shards = int(n_shards)
        #: shard index → {key → value}, for shards read or written.
        self._shards: Dict[int, Dict[str, object]] = {}
        self.shard_reads = 0
        self.shard_writes = 0
        super().__init__(directory, fingerprint)

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
    def _meta(self) -> Dict[str, object]:
        return {**super()._meta(), "n_shards": self.n_shards}

    def reset(self) -> None:
        """Drop every shard (stale fingerprint / fresh start)."""
        self._shards = {}
        super().reset()

    def shard_of(self, key: str) -> int:
        """Shard index a key hashes into."""
        return shard_key(key) % self.n_shards

    def shard_path(self, shard: int) -> Path:
        return self.directory / f"shard_{shard:04d}.npz"

    def _load_shard(self, shard: int) -> Dict[str, object]:
        """Entries of one shard, reading the file on first touch only.
        A corrupt shard loses only its own entries; fleet nodes restart
        from the baseline model."""
        cells = self._shards.get(shard)
        if cells is None:
            cells = self._read(self.shard_path(shard), self._count_read) or {}
            self._shards[shard] = cells
        return cells

    def _count_read(self, data) -> Dict[str, object]:
        self.shard_reads += 1
        return self._unpack_shard(data)

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
