"""The shared-memory arena contract: zero-copy handles, zero leaks.

Leak assertions scan ``/dev/shm`` for the module's ``repro-arena-``
prefix, so every test here is precise about what it may strand: nothing.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.parallel import (
    ProcessExecutor,
    SharedArena,
    release_arenas,
    shutdown_pools,
    split_batches,
)
from repro.parallel.arena import (
    SEGMENT_PREFIX,
    ArrayHandle,
    attached_segments,
    detach_all,
)


def shm_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-*")


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test starts and ends with a clean ``/dev/shm``."""
    assert shm_segments() == []
    yield
    release_arenas()
    detach_all()
    assert shm_segments() == []


def echo_handle(args):
    """Worker: resolve a handle, return a verifiable digest."""
    handle, scale = args
    view = handle.resolve()
    return float(view.sum()) * scale


def resolve_flags(handle):
    view = handle.resolve()
    return (view.flags.writeable, view.flags.c_contiguous)


def crash_worker(args):
    os._exit(1)


def release_then_read(handle):
    """Worker: run the parent's release path, then read the segment.

    Fork hygiene means the worker's ``release_arenas()`` is a no-op —
    it inherited ``_LIVE_ARENAS`` by reference but ownership never
    crosses a fork, so the parent's segments must survive it.
    """
    release_arenas()
    return float(handle.resolve().sum())


# ---------------------------------------------------------------------------
class TestArrayHandle:
    def test_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(37, 5))
        with SharedArena() as arena:
            view = arena.publish(arr).resolve()
            assert view.dtype == arr.dtype
            assert view.shape == arr.shape
            assert np.array_equal(
                view.view(np.uint64), arr.view(np.uint64)
            )  # bit-level, not just value-level

    def test_resolved_view_is_read_only(self):
        with SharedArena() as arena:
            view = arena.publish(np.arange(6.0)).resolve()
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0

    def test_non_contiguous_and_int_arrays(self):
        base = np.arange(24, dtype=np.int64).reshape(4, 6)
        sliced = base[:, ::2]  # non-contiguous source
        with SharedArena() as arena:
            assert np.array_equal(arena.publish(sliced).resolve(), sliced)

    def test_empty_array_needs_no_segment(self):
        with SharedArena() as arena:
            handle = arena.publish(np.empty((0, 4)))
            assert handle.name == ""
            assert arena.segment_names == ()
            view = handle.resolve()
            assert view.shape == (0, 4)
            assert not view.flags.writeable

    def test_handle_pickles_small(self):
        import pickle

        with SharedArena() as arena:
            handle = arena.publish(np.zeros((10_000, 50)))
            assert len(pickle.dumps(handle)) < 200  # vs 4 MB of payload

    def test_resolution_is_memoized_per_process(self):
        with SharedArena() as arena:
            handle = arena.publish(np.arange(8.0))
            assert handle.resolve() is handle.resolve()
            assert attached_segments() == (handle.name,)


class TestSharedArena:
    def test_publish_dedupes_same_object(self):
        arr = np.arange(12.0)
        with SharedArena() as arena:
            assert arena.publish(arr) is arena.publish(arr)
            assert len(arena.segment_names) == 1

    def test_equal_but_distinct_arrays_get_distinct_segments(self):
        with SharedArena() as arena:
            h1 = arena.publish(np.arange(4.0))
            h2 = arena.publish(np.arange(4.0))
            assert h1.name != h2.name

    def test_close_unlinks_and_is_idempotent(self):
        arena = SharedArena()
        arena.publish(np.arange(16.0))
        assert len(shm_segments()) == 1
        arena.close()
        assert shm_segments() == []
        assert arena.closed
        arena.close()  # second close is a no-op

    def test_context_manager_closes_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedArena() as arena:
                arena.publish(np.arange(4.0))
                raise RuntimeError("boom")
        assert arena.closed
        assert shm_segments() == []

    def test_publish_after_close_rejected(self):
        arena = SharedArena()
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.publish(np.arange(3.0))

    def test_release_arenas_closes_every_live_arena(self):
        arenas = [SharedArena() for _ in range(3)]
        for a in arenas:
            a.publish(np.arange(8.0))
        assert len(shm_segments()) == 3
        release_arenas()
        assert all(a.closed for a in arenas)
        assert shm_segments() == []

    def test_shutdown_pools_releases_arenas(self):
        arena = SharedArena()
        arena.publish(np.arange(8.0))
        shutdown_pools()
        assert arena.closed
        assert shm_segments() == []

    def test_close_tolerates_live_views(self):
        # Unlink-first close: the /dev/shm entry goes away even while a
        # resolved view in this very process still pins the mapping.
        arena = SharedArena()
        view = arena.publish(np.arange(32.0)).resolve()
        arena.close()
        assert shm_segments() == []
        assert float(view.sum()) == float(np.arange(32.0).sum())


class TestProcessFanOut:
    def test_workers_resolve_handles(self):
        arr = np.arange(1000.0)
        with SharedArena() as arena:
            handle = arena.publish(arr)
            got = ProcessExecutor(2).map(
                echo_handle, [(handle, s) for s in (1.0, 2.0, 0.5)]
            )
        expected = float(arr.sum())
        assert got == [expected, expected * 2.0, expected * 0.5]
        shutdown_pools()

    def test_worker_views_are_read_only(self):
        with SharedArena() as arena:
            handle = arena.publish(np.arange(64.0))
            flags = ProcessExecutor(2).map(resolve_flags, [handle, handle])
        assert flags == [(False, True), (False, True)]
        shutdown_pools()

    def test_workers_cannot_release_parent_arenas(self):
        arr = np.arange(512.0)
        with SharedArena() as arena:
            handle = arena.publish(arr)
            got = ProcessExecutor(2).map(release_then_read, [handle, handle])
            # The workers ran release_arenas() — the parent's segment
            # must still be alive and readable afterwards.
            assert shm_segments() != []
            assert handle.resolve().sum() == arr.sum()
        assert got == [float(arr.sum())] * 2
        assert shm_segments() == []
        shutdown_pools()

    def test_worker_crash_leaves_no_segments(self):
        from concurrent.futures.process import BrokenProcessPool  # replint: ignore[RL009] -- asserting the exception type, no fan-out

        shutdown_pools()
        with pytest.raises(BrokenProcessPool):
            with SharedArena() as arena:
                handle = arena.publish(np.arange(256.0))
                ProcessExecutor(2).map(crash_worker, [(handle, i) for i in range(4)])
        assert arena.closed
        assert shm_segments() == []
        shutdown_pools()


class TestSplitBatches:
    def test_flatten_reproduces_item_order(self):
        items = list(range(23))
        batches = split_batches(items, 4)
        assert [x for b in batches for x in b] == items

    def test_sizes_near_equal_larger_first(self):
        assert [len(b) for b in split_batches(range(10), 4)] == [3, 3, 2, 2]

    def test_fewer_items_than_batches(self):
        assert split_batches([1, 2], 5) == [[1], [2]]

    def test_empty_items(self):
        assert split_batches([], 3) == [[]]

    def test_single_batch(self):
        assert split_batches([1, 2, 3], 1) == [[1, 2, 3]]

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError, match="n_batches"):
            split_batches([1], 0)


class TestLeakHygiene:
    """No orphaned segments, no resource_tracker noise — full process."""

    def test_exit_without_close_is_clean(self):
        # A never-closed arena with live views must not survive the
        # process (atexit unlinks) nor spew resource_tracker/BufferError
        # warnings on stderr.
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.parallel import ProcessExecutor, SharedArena
            from tests.parallel.test_arena import echo_handle

            arena = SharedArena()  # deliberately never closed
            handle = arena.publish(np.arange(512.0))
            view = handle.resolve()  # parent-side live view at exit
            got = ProcessExecutor(2).map(
                echo_handle, [(handle, 1.0), (handle, 2.0)]
            )
            assert got[1] == 2 * got[0]
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=os.getcwd(),
            env={**os.environ, "PYTHONPATH": f"src:{os.getcwd()}"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Error" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        assert shm_segments() == []

    def test_worker_crash_subprocess_is_clean(self):
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.parallel import ProcessExecutor, SharedArena
            from tests.parallel.test_arena import crash_worker

            try:
                with SharedArena() as arena:
                    handle = arena.publish(np.arange(64.0))
                    ProcessExecutor(2).map(crash_worker, [(handle, 0)])
            except Exception:
                pass
            assert arena.closed
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=os.getcwd(),
            env={**os.environ, "PYTHONPATH": f"src:{os.getcwd()}"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        assert shm_segments() == []
