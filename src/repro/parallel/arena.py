"""Zero-copy shared-memory arena for process-backend fan-out.

The process backend's historical weakness was its payloads: every work
item pickled the full design matrix (or the whole dataset) into the
pool's call pipe, so CPU-bound selection and CV ran *slower* than
serial (the 0.11×/0.62× rows of ``BENCH_parallel.json`` before this
module existed).  The arena removes the payload: the parent publishes
each large array once into a ``multiprocessing.shared_memory`` segment
and dispatches tiny picklable :class:`ArrayHandle` records —
``(segment name, shape, dtype)`` — that workers resolve into read-only
numpy views of the very same pages.  No serialization, no copy; a work
item shrinks from megabytes to ~100 bytes.

Lifecycle contract (leak-proof by construction, DESIGN.md §16):

* The **parent owns every segment**.  Workers only ever attach; a
  crashed worker therefore cannot leak anything — the parent unlinks.
* :meth:`SharedArena.close` is idempotent and unlink-first: the
  ``/dev/shm`` entry disappears immediately, even while a live view
  still pins the mapping (the memory is reclaimed when the last view
  goes away — POSIX semantics).
* Every live arena is tracked in a module registry;
  :func:`release_arenas` closes them all and is invoked from
  ``shutdown_pools()`` and registered ``atexit`` — so segments are
  unlinked on normal exit, explicit pool teardown, worker crash
  (the fan-out raises, the ``finally``/context-manager closes) and
  injected faults alike.
* The ``resource_tracker`` backstop: pool workers share the parent's
  tracker process (both fork and spawn hand the tracker fd down), so a
  worker's attach-time registration dedupes against the parent's
  create-time one and the parent's unlink retires the name exactly
  once.  If the parent dies without unlinking, the tracker itself
  reclaims the segment — an orphaned ``/dev/shm`` entry cannot survive
  the process tree.

Batching rides along: :func:`split_batches` groups work items into one
contiguous slice per worker, so per-dispatch overhead is amortized and
a flatten of the returned batches reproduces pool order exactly —
the bit-identity reduce of the call sites is untouched.
"""

from __future__ import annotations

import atexit
import itertools
import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Sequence, Set, Tuple, TypeVar

import numpy as np

__all__ = [
    "ArrayHandle",
    "SharedArena",
    "attached_segments",
    "detach_all",
    "release_arenas",
    "split_batches",
]

#: Prefix of every segment this module creates — makes leaked segments
#: attributable (and the leak test's ``/dev/shm`` scan precise).
SEGMENT_PREFIX = "repro-arena"

_T = TypeVar("_T")


class _SafeSharedMemory(shared_memory.SharedMemory):
    """``SharedMemory`` whose ``close`` tolerates live exported views.

    A resolved handle hands out numpy views backed by the segment's
    buffer; closing the mapping while such a view is alive raises
    ``BufferError`` (from finalizers too, as noisy "Exception ignored"
    tracebacks at interpreter exit).  Suppressing it is safe: the view
    itself keeps the underlying mmap alive, and once the segment is
    unlinked nothing can leak — the pages are reclaimed when the last
    view drops.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            pass


# ---------------------------------------------------------------------------
# worker-side attachment cache
# ---------------------------------------------------------------------------

#: Segments this process has attached to (worker side, or a parent
#: resolving its own handles), keyed by segment name.
_ATTACHMENTS: Dict[str, shared_memory.SharedMemory] = {}

#: Resolved read-only views, keyed by (name, shape, dtype) — rebuilding
#: the ndarray per work item would be cheap but pointless.
_VIEW_MEMO: Dict[Tuple[str, Tuple[int, ...], str], np.ndarray] = {}

#: Attachment-cache bound: beyond this many distinct segments the
#: oldest are detached (long-lived workers serving many arenas).
_ATTACH_CAP = 64


def _attach(name: str) -> shared_memory.SharedMemory:
    seg = _ATTACHMENTS.get(name)
    if seg is None:
        seg = _SafeSharedMemory(name=name)
        _ATTACHMENTS[name] = seg
        while len(_ATTACHMENTS) > _ATTACH_CAP:
            old_name = next(iter(_ATTACHMENTS))
            old = _ATTACHMENTS.pop(old_name)
            for key in [k for k in _VIEW_MEMO if k[0] == old_name]:
                del _VIEW_MEMO[key]
            # Live views of the evicted segment stay valid: each view
            # owns the underlying mmap through its buffer chain.
            old.close()
    return seg


def attached_segments() -> Tuple[str, ...]:
    """Names of the segments this process currently has attached."""
    return tuple(_ATTACHMENTS)


def detach_all() -> None:
    """Drop every cached attachment (worker/test hygiene).

    Attachments whose views are still referenced stay mapped — closing
    them would invalidate live arrays — but are dropped from the cache.
    """
    _VIEW_MEMO.clear()
    for name in list(_ATTACHMENTS):
        _ATTACHMENTS.pop(name).close()


@dataclass(frozen=True)
class ArrayHandle:
    """Picklable reference to one published array.

    ``(segment name, shape, dtype)`` is the entire wire format — what a
    work item carries instead of the array itself.  ``name == ""``
    denotes a zero-byte array (no segment backs it).
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def resolve(self) -> np.ndarray:
        """Read-only view of the published array in this process.

        Attachments and views are memoized per process, so resolving
        the same handle across many work items maps the segment once.
        """
        if not self.name:
            empty = np.empty(self.shape, dtype=np.dtype(self.dtype))
            empty.flags.writeable = False
            return empty
        key = (self.name, self.shape, self.dtype)
        view = _VIEW_MEMO.get(key)
        if view is None:
            seg = _attach(self.name)
            dtype = np.dtype(self.dtype)
            count = int(np.prod(self.shape, dtype=np.int64))
            view = np.frombuffer(seg.buf, dtype=dtype, count=count)
            view = view.reshape(self.shape)
            view.flags.writeable = False
            _VIEW_MEMO[key] = view
        return view


# ---------------------------------------------------------------------------
# parent-side arena
# ---------------------------------------------------------------------------

#: Every not-yet-closed arena of this process; release_arenas() drains
#: it from shutdown_pools() and atexit.
_LIVE_ARENAS: Set["SharedArena"] = set()

_SEGMENT_COUNTER = itertools.count()


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    while True:
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEGMENT_COUNTER)}"
        try:
            return _SafeSharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:  # pragma: no cover - pid-reuse leftover
            continue


class SharedArena:
    """Owner of a set of shared-memory segments for one fan-out scope.

    Usage::

        with SharedArena() as arena:
            handle = arena.publish(big_array)
            executor.map(worker, [(handle, batch) for batch in batches])
        # segments unlinked here — normal exit or exception alike

    ``publish`` copies the array into a fresh segment once (identical
    bytes, C-contiguous) and returns its :class:`ArrayHandle`; repeat
    publications of the *same array object* are deduplicated.  The
    arena owns its segments until :meth:`close`, which unlinks them;
    close is idempotent and also triggered by :func:`release_arenas`
    (wired into ``shutdown_pools()`` and ``atexit``).
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._published: Dict[int, Tuple[ArrayHandle, np.ndarray]] = {}
        self._closed = False
        _LIVE_ARENAS.add(self)

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segment_names(self) -> Tuple[str, ...]:
        return tuple(self._segments)

    def publish(self, array: np.ndarray) -> ArrayHandle:
        """Copy one array into shared memory; return its handle."""
        if self._closed:
            raise RuntimeError("cannot publish into a closed arena")
        arr = np.asarray(array)
        cached = self._published.get(id(arr))
        if cached is not None:
            return cached[0]
        arr_c = np.ascontiguousarray(arr)
        if arr_c.nbytes == 0:
            handle = ArrayHandle("", arr_c.shape, arr_c.dtype.str)
        else:
            seg = _create_segment(arr_c.nbytes)
            dest = np.frombuffer(
                seg.buf, dtype=arr_c.dtype, count=arr_c.size
            ).reshape(arr_c.shape)
            np.copyto(dest, arr_c)
            del dest
            self._segments[seg.name] = seg
            handle = ArrayHandle(seg.name, arr_c.shape, arr_c.dtype.str)
        # Keep the source referenced so id() cannot be recycled while
        # the dedupe entry lives.
        self._published[id(arr)] = (handle, arr)
        return handle

    def close(self) -> None:
        """Unlink and release every segment (idempotent).

        Unlink runs first so the ``/dev/shm`` entry is gone even when a
        live view in this process still pins the mapping (the close
        then raises ``BufferError``, which is tolerated: the pages are
        reclaimed when the last view drops).
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_ARENAS.discard(self)
        segments = self._segments
        self._segments = {}
        self._published = {}
        for seg in segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            seg.close()

    # ------------------------------------------------------------------
    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def release_arenas() -> None:
    """Close every live arena of this process.

    Called from ``shutdown_pools()`` (so pool teardown cannot strand
    segments) and registered ``atexit`` as the final backstop.
    """
    for arena in list(_LIVE_ARENAS):
        arena.close()


atexit.register(release_arenas)


def _disown_inherited_arenas() -> None:
    """Forked children inherit ``_LIVE_ARENAS`` by reference, but arena
    ownership never crosses a fork: only the parent may unlink.  Forget
    the inherited registry (without closing) so a child that ever runs
    ``release_arenas()`` cannot tear the parent's segments out from
    under sibling workers."""
    _LIVE_ARENAS.clear()


os.register_at_fork(after_in_child=_disown_inherited_arenas)


# ---------------------------------------------------------------------------
# batched dispatch
# ---------------------------------------------------------------------------


def split_batches(items: Sequence[_T], n_batches: int) -> List[List[_T]]:
    """Contiguous near-equal batches, order preserved.

    The batching policy of every arena call site: one batch per worker
    slot (sizes differ by at most one, larger batches first), so a
    single dispatch round covers the fan-out and flattening the
    returned batch results in batch order reproduces the original item
    order — the parent-side reduce stays in pool order, bit-identical
    to per-item dispatch.
    """
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    items = list(items)
    n_batches = min(n_batches, len(items)) or 1
    size, extra = divmod(len(items), n_batches)
    batches: List[List[_T]] = []
    start = 0
    for i in range(n_batches):
        stop = start + size + (1 if i < extra else 0)
        batches.append(items[start:stop])
        start = stop
    return batches
