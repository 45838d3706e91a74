"""Property-style equivalence: fast-fit vs exact path on seeded chaos.

The fast-fit contract (DESIGN.md §12) is behavioural, not structural:
for *any* dataset — collinear, NaN-ridden, scale-skewed, duplicated,
constant, underdetermined — ``select_events`` and
``cv_out_of_fold_predictions`` must produce the identical selected
sequence and warnings as the exact path (every Gram-cache fit declined,
:func:`tests.oracles.exact_fit.exact_fits`), with fit statistics within
1e-9 relative tolerance.  These tests sweep ~50 seeded random datasets
with adversarial injections and assert exactly that, so any future
guard or kernel change that silently shifts a selection fails loudly
here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.dataset import PowerDataset
from repro.core.scenarios import cv_out_of_fold_predictions
from repro.core.selection import select_events
from repro.stats.vif import mean_vif
from tests.oracles.exact_fit import exact_fits

SEEDS = list(range(50))


def make_chaos_dataset(seed: int) -> PowerDataset:
    """One seeded random dataset with seed-dependent degradations."""
    rng = np.random.default_rng(1_000_003 + seed)
    n = int(rng.integers(12, 140))
    k = int(rng.integers(4, 14))
    names = tuple(f"C{i:02d}" for i in range(k))
    scales = 10.0 ** rng.uniform(-4.0, 4.0, size=k)
    counters = rng.lognormal(sigma=1.0, size=(n, k)) * scales

    # Seed-dependent adversarial injections.  Each targets one guard of
    # the fast kernel: pivots (duplicates), condition certificates
    # (near-collinear + extreme scale), finiteness (NaN), degenerate
    # columns (zero/constant).
    if k >= 5 and rng.random() < 0.4:
        counters[:, 1] = counters[:, 0]  # exact duplicate → ties
    if k >= 6 and rng.random() < 0.4:
        counters[:, 2] = counters[:, 3] * (
            1.0 + 1e-10 * rng.standard_normal(n)
        )  # near-collinear → tiny bordered pivot
    if rng.random() < 0.3:
        counters[:, k - 1] = 0.0  # zero column
    if rng.random() < 0.3:
        counters[:, k - 2] = 7.25  # constant column
    if rng.random() < 0.35:
        rows = rng.integers(0, n, size=max(1, n // 20))
        cols = rng.integers(0, k, size=rows.size)
        counters[rows, cols] = np.nan  # sensor dropouts
    if rng.random() < 0.3:
        counters[:, int(rng.integers(0, k))] *= 1e12  # extreme scale

    voltage_v = rng.uniform(0.85, 1.3, size=n)
    frequency_mhz = rng.choice([1200.0, 1800.0, 2400.0], size=n)
    power_w = np.abs(
        np.nan_to_num(counters[:, : min(3, k)]).sum(axis=1) * 1e-6
        + voltage_v**2 * frequency_mhz * rng.uniform(0.01, 0.03, size=n)
    ) + rng.uniform(1.0, 5.0, size=n)
    threads = rng.integers(1, 25, size=n)
    labels = tuple(f"w{i % 7}" for i in range(n))
    return PowerDataset(
        counters=counters,
        power_w=power_w,
        voltage_v=voltage_v,
        frequency_mhz=frequency_mhz,
        threads=threads,
        workloads=labels,
        suites=tuple("roco2" for _ in range(n)),
        phase_names=labels,
        counter_names=names,
    )


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - equivalence contract
        return ("err", (type(exc), str(exc)))


def run_both(dataset, **kwargs):
    """(outcome, payload) of select_events on the exact path, then in
    production."""
    with exact_fits():
        slow = _outcome(select_events, dataset, **kwargs)
    return slow, _outcome(select_events, dataset, **kwargs)


def assert_selection_equivalent(slow, fast, dataset):
    assert slow[0] == fast[0], (slow, fast)
    if slow[0] == "err":
        assert slow[1] == fast[1]
        return
    rs, rf = slow[1], fast[1]
    assert rs.selected == rf.selected
    assert rs.warnings == rf.warnings
    assert len(rs.steps) == len(rf.steps)
    for i, (a, b) in enumerate(zip(rs.steps, rf.steps)):
        assert a.counter == b.counter
        assert a.warnings == b.warnings
        np.testing.assert_allclose(
            a.criterion_value, b.criterion_value, rtol=1e-9
        )
        np.testing.assert_allclose(a.rsquared, b.rsquared, rtol=1e-9)
        np.testing.assert_allclose(
            a.rsquared_adj, b.rsquared_adj, rtol=1e-9
        )
        # The cache's memoized VIF is bitwise the direct computation
        # (NaN for the one-counter step compares equal here).
        direct = mean_vif(dataset.counter_matrix(list(rs.selected[: i + 1])))
        np.testing.assert_array_equal([a.mean_vif, b.mean_vif], [direct] * 2)


class TestSelectionEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_and_slow_identical(self, seed):
        ds = make_chaos_dataset(seed)
        rng = np.random.default_rng(seed)
        criterion = ("r2", "adj_r2", "aic", "bic")[seed % 4]
        n_events = int(
            rng.integers(2, min(6, len(ds.counter_names)) + 1)
        )
        kwargs = dict(n_events=n_events, criterion=criterion)
        if seed % 3 == 0:
            kwargs["max_vif"] = float(rng.uniform(2.0, 50.0))
        slow, fast = run_both(ds, **kwargs)
        assert_selection_equivalent(slow, fast, ds)


class TestCrossValidationEquivalence:
    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_fold_scores_match(self, seed):
        ds = make_chaos_dataset(seed)
        finite = [
            name
            for i, name in enumerate(ds.counter_names)
            if np.all(np.isfinite(ds.counters[:, i]))
        ][:4]
        if len(finite) < 2:
            pytest.skip("dataset degraded every candidate")
        kwargs = dict(n_splits=min(5, ds.n_samples))
        with exact_fits():
            slow = _outcome(cv_out_of_fold_predictions, ds, finite, **kwargs)
        fast = _outcome(cv_out_of_fold_predictions, ds, finite, **kwargs)
        assert_cv_equivalent(slow, fast)


def assert_cv_equivalent(slow, fast):
    assert slow[0] == fast[0], (slow, fast)
    if slow[0] == "err":
        assert slow[1] == fast[1]
        return
    (p_slow, mapes_slow, fits_slow), (p_fast, mapes_fast, fits_fast) = (
        slow[1],
        fast[1],
    )
    np.testing.assert_allclose(p_slow, p_fast, rtol=1e-9)
    np.testing.assert_allclose(mapes_slow, mapes_fast, rtol=1e-9)
    for a, b in zip(fits_slow, fits_fast):
        np.testing.assert_allclose(
            [a["r2"], a["adj_r2"]], [b["r2"], b["adj_r2"]], rtol=1e-9
        )


class TestRealDatasetEquivalence:
    """The paper's own selection data, including the VIF-guarded run."""

    def test_selection_dataset_all_criteria(self, selection_dataset):
        for criterion in ("r2", "adj_r2", "aic", "bic"):
            slow, fast = run_both(
                selection_dataset, n_events=6, criterion=criterion
            )
            assert_selection_equivalent(slow, fast, selection_dataset)

    def test_selection_dataset_vif_guarded(self, selection_dataset):
        slow, fast = run_both(selection_dataset, n_events=6, max_vif=5.0)
        assert_selection_equivalent(slow, fast, selection_dataset)

    def test_table2_cv_predictions(self, full_dataset, selected_counters):
        with exact_fits():
            slow = _outcome(
                cv_out_of_fold_predictions, full_dataset, selected_counters
            )
        fast = _outcome(
            cv_out_of_fold_predictions, full_dataset, selected_counters
        )
        assert_cv_equivalent(slow, fast)
