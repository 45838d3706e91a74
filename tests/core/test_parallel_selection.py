"""Greedy selection is bit-identical on every execution backend.

Candidates within one greedy step are scored in parallel, but the
reduce walks candidate order — incumbents, ties and warnings cannot
depend on completion order.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import select_events


def _values_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        # Step 1 has mean_vif=nan (VIF undefined for one counter);
        # bit-identity still means "nan on every backend".
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b
    return a == b


def results_equal(a, b):
    if (a.criterion, a.warnings) != (b.criterion, b.warnings):
        return False
    if len(a.steps) != len(b.steps):
        return False
    for sa, sb in zip(a.steps, b.steps):
        da, db = dataclasses.asdict(sa), dataclasses.asdict(sb)
        if da.keys() != db.keys():
            return False
        if not all(_values_equal(da[k], db[k]) for k in da):
            return False
    return True


@pytest.fixture(scope="module")
def pool(selection_dataset):
    """A ~10-candidate subset keeps the O(steps × candidates) fan-out
    cheap while still exercising multi-candidate steps."""
    return tuple(selection_dataset.counter_names[:10])


class TestSelectionBitIdentity:
    def test_backends_agree_exactly(self, selection_dataset, pool):
        reference = select_events(
            selection_dataset, 3, candidates=pool, parallel="serial"
        )
        for backend in ("thread", "process"):
            result = select_events(
                selection_dataset, 3, candidates=pool,
                parallel=backend, max_workers=2,
            )
            assert results_equal(result, reference), backend

    def test_vif_constrained_backends_agree(self, selection_dataset, pool):
        # The VIF-skip path and any step warnings must also reduce
        # deterministically.
        reference = select_events(
            selection_dataset, 3, candidates=pool, max_vif=10.0,
            parallel="serial",
        )
        result = select_events(
            selection_dataset, 3, candidates=pool, max_vif=10.0,
            parallel="process", max_workers=2,
        )
        assert results_equal(result, reference)

    def test_matches_default_serial_entry_point(self, selection_dataset, pool):
        # No parallel argument at all (the pre-ISSUE-4 call shape) is
        # still the same algorithm.
        legacy = select_events(selection_dataset, 3, candidates=pool)
        threaded = select_events(
            selection_dataset, 3, candidates=pool,
            parallel="thread", max_workers=4,
        )
        assert threaded.selected == legacy.selected
        assert results_equal(threaded, legacy)


class TestArenaSelection:
    """Zero-copy shared-memory dispatch is invisible in the results.

    The full candidate pool clears the small-task guard, so these runs
    exercise the real process fan-out: shared Gram buffers on the fast
    path and a shared dataset with batched candidates on the slow path,
    each compared with the per-candidate serial and thread paths.
    """

    def shm_segments(self):
        import glob

        return glob.glob("/dev/shm/repro-arena-*")

    def test_fast_path_bit_identical_and_leak_free(self, selection_dataset):
        reference = select_events(
            selection_dataset, 2, fast=True, parallel="serial"
        )
        result = select_events(
            selection_dataset, 2, fast=True,
            parallel="process", max_workers=2,
        )
        assert results_equal(result, reference)
        assert self.shm_segments() == []

    def test_slow_path_bit_identical_and_leak_free(self, selection_dataset):
        reference = select_events(
            selection_dataset, 2, fast=False, parallel="serial"
        )
        result = select_events(
            selection_dataset, 2, fast=False,
            parallel="process", max_workers=2,
        )
        assert results_equal(result, reference)
        assert self.shm_segments() == []

    def test_arena_matches_thread_per_candidate_path(self, selection_dataset):
        reference = select_events(
            selection_dataset, 2, fast=False,
            parallel="thread", max_workers=2,
        )
        result = select_events(
            selection_dataset, 2, fast=False,
            parallel="process", max_workers=2,
        )
        assert results_equal(result, reference)
        assert self.shm_segments() == []
