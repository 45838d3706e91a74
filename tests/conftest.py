"""Shared fixtures for the test suite.

The expensive fixtures — the full paper campaign and the selection
dataset — are session-scoped and reuse the same on-disk cache as the
experiment runner, so a warm test run costs seconds.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.acquisition import run_campaign
from repro.experiments import data as expdata
from repro.hardware import Platform
from repro.workloads import get_workload


@pytest.fixture(scope="session")
def platform():
    """The default simulated Haswell-EP platform."""
    return Platform()


@pytest.fixture(scope="session")
def fault_seed() -> int:
    """Fault-stream seed, ``REPRO_FAULT_SEED`` (default 0).

    The CI ``chaos`` job re-runs every module that takes this fixture
    under several seeds (distinct fault streams over the same physics),
    so a test written against it must hold for *any* seed; only tests
    that pin a specific scenario hard-code one.
    """
    return int(os.environ.get("REPRO_FAULT_SEED", "0"))


@pytest.fixture(scope="session")
def full_dataset():
    """The full paper campaign (all workloads × 5 DVFS states)."""
    return expdata.full_dataset()


@pytest.fixture(scope="session")
def selection_dataset():
    """All workloads at the 2400 MHz selection frequency."""
    return expdata.selection_dataset()


@pytest.fixture(scope="session")
def selected_counters():
    """The six counters Algorithm 1 picks on the selection dataset."""
    return expdata.selected_counters()


@pytest.fixture(scope="session")
def small_dataset(platform):
    """A small, fast campaign for unit-level pipeline tests."""
    workloads = [
        get_workload("idle"),
        get_workload("compute"),
        get_workload("memory_read"),
        get_workload("md"),
    ]
    return run_campaign(
        platform, workloads, [1200, 2400], thread_counts=[1, 8, 24]
    )


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(12345)
