"""Parallel execution layer benchmark → ``BENCH_parallel.json``.

Records the serial vs 2- vs 4-worker wall time of the three fan-out
sites (campaign cells, greedy selection, k-fold CV) and asserts the
acceptance gates: the latency-bound campaign must reach ≥1.5× at 4
workers, and process-backend selection and CV must reach ≥2× at 4
workers through the shared-memory arena.

Every stage is measured **latency-bound**, the profile of a real
acquisition/evaluation run: a fixed dwell per work item (a simulated
run on real hardware blocks on the workload's wall time; a real
candidate evaluation blocks on the fit, which one CI core cannot
overlap).  The dwell makes overlap measurable on a single-core runner,
so what the process rows actually grade is the dispatch machinery —
payload size, batching, reduce — not the box's core count.

Plain pytest is enough (no pytest-benchmark fixture): CI runs this
file directly and uploads the JSON artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.acquisition import Campaign, CampaignPlan, PowerDataset
from repro.core import select_events
from repro.hardware import COUNTER_NAMES, FIXED_COUNTERS, Platform
from repro.io.atomic import atomic_write_json
from repro.parallel import MONOTONIC_CLOCK, ProcessExecutor, shutdown_pools
from repro.stats import cross_validate
from repro.stats.ols import fit_ols
from repro.stats.selection_criteria import CRITERIA
from repro.workloads import get_workload

from .conftest import report

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

DWELL_S = 0.05
PROG = tuple(c for c in COUNTER_NAMES if c not in FIXED_COUNTERS)[:8]
EVENTS = tuple(FIXED_COUNTERS) + PROG

#: Per-work-item dwell of the latency-bound selection/CV stages.
EVAL_DWELL_S = 0.02
FOLD_DWELL_S = 0.03

#: Synthetic wide selection problem: enough candidates that the
#: small-task guard grants 4 workers (>= 16 items each), with a payload
#: big enough that per-item pickling visibly costs what it cost before
#: the arena.
N_ROWS = 8000
N_CANDIDATES = 72


class DwellPlatform(Platform):
    """A platform whose runs take wall time, as real acquisition does.

    The simulator computes a run's samples in microseconds; real
    hardware blocks for the workload's duration.  A fixed dwell restores
    that latency-bound profile so overlap across cells is measurable.
    """

    def execute(self, *args, **kwargs):
        run = super().execute(*args, **kwargs)
        time.sleep(DWELL_S)
        return run


def _dwell_r2(result):
    """``r2`` with the wall-time profile of a real candidate fit."""
    time.sleep(EVAL_DWELL_S)
    return result.rsquared


# Registered at import time: forked pool workers inherit the registry,
# so the criterion resolves on both sides of the fan-out.
CRITERIA["bench_dwell_r2"] = _dwell_r2


def dwell_fit(y, x):
    """Fold fit with the wall-time profile of a real per-fold fit."""
    time.sleep(FOLD_DWELL_S)
    return fit_ols(y, x, cov_type="HC3")


def bench_plan():
    return CampaignPlan(
        workloads=tuple(
            get_workload(n)
            for n in ("compute", "idle", "memory_read", "memory_write")
        ),
        frequencies_mhz=(2400,),
        events=EVENTS,
        thread_counts_override=(8,),
    )


def wide_selection_dataset():
    """A wide synthetic selection problem (``N_CANDIDATES`` counters)."""
    rng = np.random.default_rng(20170529)
    counters = rng.lognormal(sigma=0.6, size=(N_ROWS, N_CANDIDATES)) * 1e-2
    voltage = rng.uniform(0.9, 1.1, N_ROWS)
    frequency = np.full(N_ROWS, 2400.0)
    v2f = voltage * voltage * frequency
    weights = np.abs(rng.normal(size=6)) + 0.5
    power = (
        40.0
        + (counters[:, :6] @ weights) * v2f / 2400.0
        + rng.normal(scale=0.5, size=N_ROWS)
    )
    n = N_ROWS
    return PowerDataset(
        counters=counters,
        power_w=np.abs(power) + 1.0,
        voltage_v=voltage,
        frequency_mhz=frequency,
        threads=np.full(n, 8, dtype=np.int64),
        workloads=("bench",) * n,
        suites=("bench",) * n,
        phase_names=("phase",) * n,
        counter_names=tuple(f"bench_ev_{i:02d}" for i in range(N_CANDIDATES)),
    )


def timed(fn):
    t0 = MONOTONIC_CLOCK()
    value = fn()
    return MONOTONIC_CLOCK() - t0, value


def _pool_probe(i):
    return i


def warm_pool(workers):
    """Spin the cached pool up outside the timed region."""
    ProcessExecutor(workers).map(_pool_probe, range(workers))


def run_campaign_with(backend, workers):
    campaign = Campaign(
        DwellPlatform(), bench_plan(), parallel=backend, max_workers=workers
    )
    elapsed, dataset = timed(campaign.run)
    return elapsed, dataset


def selection_results_equal(a, b):
    return (
        a.selected == b.selected
        and a.warnings == b.warnings
        and [s.criterion_value for s in a.steps]
        == [s.criterion_value for s in b.steps]
    )


def test_bench_parallel_layers():
    results = {
        "clock": "perf_counter",
        "dwell_s": DWELL_S,
        "eval_dwell_s": EVAL_DWELL_S,
        "fold_dwell_s": FOLD_DWELL_S,
    }

    # -- campaign cells (latency-bound, thread backend) -----------------
    serial_s, reference = run_campaign_with("serial", 1)
    thread2_s, ds2 = run_campaign_with("thread", 2)
    thread4_s, ds4 = run_campaign_with("thread", 4)
    # Determinism first, speed second.
    for ds in (ds2, ds4):
        assert np.array_equal(ds.counters, reference.counters, equal_nan=True)
        assert np.array_equal(ds.power_w, reference.power_w)
    n_cells = len(Campaign(DwellPlatform(), bench_plan()).cells())
    results["campaign"] = {
        "n_cells": n_cells,
        "backend": "thread",
        "serial_s": round(serial_s, 4),
        "workers2_s": round(thread2_s, 4),
        "workers4_s": round(thread4_s, 4),
        "speedup_2": round(serial_s / thread2_s, 2),
        "speedup_4": round(serial_s / thread4_s, 2),
    }

    # -- greedy selection (latency-bound, process backend + arena) ------
    wide = wide_selection_dataset()
    sel_kwargs = dict(criterion="bench_dwell_r2", fast=False)
    sel_serial_s, sel_ref = timed(
        lambda: select_events(wide, 2, parallel="serial", **sel_kwargs)
    )
    warm_pool(2)
    sel2_s, sel2 = timed(
        lambda: select_events(
            wide, 2, parallel="process", max_workers=2, **sel_kwargs
        )
    )
    warm_pool(4)
    sel4_s, sel4 = timed(
        lambda: select_events(
            wide, 2, parallel="process", max_workers=4, **sel_kwargs
        )
    )
    for other in (sel2, sel4):
        assert selection_results_equal(other, sel_ref)
    results["selection"] = {
        "n_candidates": N_CANDIDATES,
        "n_rows": N_ROWS,
        "n_events": 2,
        "backend": "process",
        "serial_s": round(sel_serial_s, 4),
        "workers2_s": round(sel2_s, 4),
        "workers4_s": round(sel4_s, 4),
        "speedup_2": round(sel_serial_s / sel2_s, 2),
        "speedup_4": round(sel_serial_s / sel4_s, 2),
    }

    # -- k-fold CV (latency-bound, process backend + arena) -------------
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20000, 8))
    y = 80 + x @ rng.normal(size=8) + rng.normal(size=20000)
    cv_kwargs = dict(n_splits=40, fit_fn=dwell_fit)
    cv_serial_s, cv_ref = timed(
        lambda: cross_validate(y, x, parallel="serial", **cv_kwargs)
    )
    warm_pool(2)
    cv2_s, cv2 = timed(
        lambda: cross_validate(
            y, x, parallel="process", max_workers=2, **cv_kwargs
        )
    )
    warm_pool(4)
    cv4_s, cv4 = timed(
        lambda: cross_validate(
            y, x, parallel="process", max_workers=4, **cv_kwargs
        )
    )
    assert cv2.folds == cv_ref.folds
    assert cv4.folds == cv_ref.folds
    results["crossval"] = {
        "n_samples": 20000,
        "n_splits": 40,
        "backend": "process",
        "serial_s": round(cv_serial_s, 4),
        "workers2_s": round(cv2_s, 4),
        "workers4_s": round(cv4_s, 4),
        "speedup_2": round(cv_serial_s / cv2_s, 2),
        "speedup_4": round(cv_serial_s / cv4_s, 2),
    }

    shutdown_pools()
    atomic_write_json(OUT_PATH, results)
    report("BENCH_parallel", json.dumps(results, indent=2))

    # Acceptance gates: the latency-bound campaign overlaps cells, and
    # the arena-backed process fan-outs clear 2x at 4 workers.
    assert results["campaign"]["speedup_4"] >= 1.5, results["campaign"]
    assert results["selection"]["speedup_4"] >= 2.0, results["selection"]
    assert results["crossval"]["speedup_4"] >= 2.0, results["crossval"]
