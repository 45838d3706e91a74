"""Unit tests for the cross-validation machinery."""

import numpy as np
import pytest

from repro.stats import KFold, LeaveOneGroupOut, cross_validate


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


class TestLeaveOneGroupOut:
    def test_holds_out_each_group(self):
        groups = ["a", "a", "b", "b", "c"]
        held = []
        for train, test, g in LeaveOneGroupOut().split(groups):
            held.append(g)
            assert all(groups[i] == g for i in test)
            assert all(groups[i] != g for i in train)
        assert held == ["a", "b", "c"]

    def test_single_group_raises(self):
        with pytest.raises(ValueError):
            list(LeaveOneGroupOut().split(["x", "x"]))


class TestCrossValidate:
    def test_summary_shape(self, rng):
        x = rng.normal(size=(200, 3))
        y = 50 + x @ np.array([1.0, 2.0, 3.0]) + rng.normal(size=200)
        result = cross_validate(y, x, n_splits=10)
        assert len(result.folds) == 10
        rows = result.summary_rows()
        assert [r[0] for r in rows] == ["R2", "Adj.R2", "MAPE"]
        for _, mn, mx, mean in rows:
            assert mn <= mean <= mx

    def test_good_model_scores_well(self, rng):
        x = rng.normal(size=(300, 2))
        y = 100 + x @ np.array([5.0, -3.0]) + rng.normal(scale=0.5, size=300)
        result = cross_validate(y, x, n_splits=5)
        assert result.rsquared["mean"] > 0.95
        assert result.mape["mean"] < 2.0

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(100, 2))
        y = 10 + x[:, 0] + rng.normal(size=100)
        a = cross_validate(y, x, seed=3)
        b = cross_validate(y, x, seed=3)
        assert a.mape == b.mape

    def test_row_mismatch(self, rng):
        with pytest.raises(ValueError):
            cross_validate(rng.normal(size=10), rng.normal(size=(11, 2)))


class TestParallelCrossValidate:
    """Fold-level options reach every fold.

    The class name predates the single serial fold loop; it is kept so
    the test ids stay stable.
    """

    def test_on_zero_forwarded_to_folds(self, rng):
        x = rng.normal(size=(40, 2))
        y = np.abs(rng.normal(size=40)) + 1.0
        y[7] = 0.0
        with pytest.raises(ValueError, match="MAPE undefined"):
            cross_validate(y, x, n_splits=4)
        result = cross_validate(y, x, n_splits=4, on_zero="skip")
        assert len(result.folds) == 4


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
