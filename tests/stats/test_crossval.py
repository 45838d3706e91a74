"""Unit tests for the cross-validation machinery."""

import numpy as np
import pytest

from repro.acquisition.dataset import PowerDataset
from repro.core.scenarios import cv_out_of_fold_predictions
from repro.stats import KFold


class TestKFold:
    def test_partitions_all_samples(self):
        n = 103
        seen = []
        for train, test in KFold(10, seed=1).split(n):
            seen.extend(test.tolist())
            # Train and test are disjoint and cover everything.
            assert set(train) | set(test) == set(range(n))
            assert not set(train) & set(test)
        assert sorted(seen) == list(range(n))

    def test_fold_sizes_balanced(self):
        sizes = [len(test) for _, test in KFold(10, seed=0).split(105)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 105

    def test_shuffle_depends_on_seed(self):
        a = [test.tolist() for _, test in KFold(5, seed=1).split(50)]
        b = [test.tolist() for _, test in KFold(5, seed=2).split(50)]
        assert a != b

    def test_same_seed_reproducible(self):
        a = [test.tolist() for _, test in KFold(5, seed=7).split(50)]
        b = [test.tolist() for _, test in KFold(5, seed=7).split(50)]
        assert a == b

    def test_no_shuffle_is_contiguous(self):
        folds = [test for _, test in KFold(5, shuffle=False).split(25)]
        assert folds[0].tolist() == [0, 1, 2, 3, 4]
        assert folds[-1].tolist() == [20, 21, 22, 23, 24]

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(10).split(5))

    def test_invalid_n_splits(self):
        with pytest.raises(ValueError):
            KFold(1)


def _dataset(rng, n=300, noise=0.5):
    """A clean linear Equation 1 dataset over two counters."""
    counters = rng.uniform(0.1, 2.0, size=(n, 2))
    voltage_v = rng.uniform(0.9, 1.2, size=n)
    frequency_mhz = rng.choice([1200.0, 2400.0], size=n)
    v2f = voltage_v**2 * frequency_mhz / 1000.0
    power_w = (
        40.0
        + (counters @ np.array([20.0, 12.0])) * v2f
        + 15.0 * v2f
        + rng.normal(scale=noise, size=n)
    )
    labels = tuple(f"w{i % 5}" for i in range(n))
    return PowerDataset(
        counters=counters,
        power_w=power_w,
        voltage_v=voltage_v,
        frequency_mhz=frequency_mhz,
        threads=np.full(n, 8),
        workloads=labels,
        suites=("roco2",) * n,
        phase_names=labels,
        counter_names=("A", "B"),
    )


class TestCrossValidate:
    """The Table II CV: ``cv_out_of_fold_predictions`` over KFold."""

    def test_good_model_scores_well(self, rng):
        ds = _dataset(rng)
        _, fold_mapes, fold_fits = cv_out_of_fold_predictions(
            ds, ("A", "B"), n_splits=5
        )
        assert len(fold_mapes) == 5
        assert np.mean([f["r2"] for f in fold_fits]) > 0.95
        assert np.mean(fold_mapes) < 2.0

    def test_deterministic_given_seed(self, rng):
        ds = _dataset(rng, n=100)
        for estimator in ("ols", "huber"):
            runs = [
                cv_out_of_fold_predictions(
                    ds, ("A", "B"), seed=seed, estimator=estimator
                )
                for seed in (3, 3, 4)
            ]
            assert np.array_equal(runs[0][0], runs[1][0])
            assert runs[0][1:] == runs[1][1:]
            assert runs[2][1] != runs[0][1]


class TestKFoldSeedGuard:
    def test_shuffle_without_seed_rejected(self):
        # The bugfix satellite: default_rng(None) would silently draw
        # OS entropy — irreproducible folds.
        with pytest.raises(ValueError, match="explicit seed"):
            KFold(5, shuffle=True, seed=None)

    def test_no_shuffle_without_seed_is_fine(self):
        folds = list(KFold(5, shuffle=False, seed=None).split(25))
        assert len(folds) == 5

    def test_default_seed_still_accepted(self):
        assert KFold(5).seed == 0
