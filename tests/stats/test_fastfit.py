"""Unit tests for the Gram-cache fast-fit kernels (DESIGN.md §12)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import mean_vif as slow_mean_vif
from repro.stats.fastfit import (
    DESIGN_CONDITION_MAX,
    FoldGramSolver,
    GramCache,
    _criterion_from_ssr,
)
from repro.stats.crossval import KFold
from repro.stats.linalg import CONDITION_FALLBACK_THRESHOLD, add_constant
from repro.stats.ols import fit_ols
from repro.stats.selection_criteria import criterion_value


def make_design(rng, n=60, k_cand=8):
    """Random candidate columns + V²f/V/constant structural block."""
    scales = 10.0 ** rng.uniform(-3, 3, size=k_cand)
    rates = rng.lognormal(sigma=0.8, size=(n, k_cand)) * scales
    v = rng.uniform(0.8, 1.2, size=n)
    f = rng.choice([1200.0, 2400.0], size=n)
    struct = np.column_stack([v * v * f, v, np.ones(n)])
    design = np.hstack([rates * (v * v * f)[:, None], struct])
    beta = rng.normal(size=design.shape[1])
    y = np.abs(design @ beta) + rng.uniform(1.0, 2.0, size=n)
    return y, design, rates


def slow_score(y, design, rates, base, cand, criterion):
    cols = list(base) + [cand] + list(range(rates.shape[1], design.shape[1]))
    res = fit_ols(y, design[:, cols], intercept=False, cov_type="HC3")
    return (
        criterion_value(criterion, res),
        res.rsquared,
        res.rsquared_adj,
    )


class TestCriterionFromSsr:
    def test_unknown_criterion_raises(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            _criterion_from_ssr("r3", 1.0, 2.0, 10, 3)

    def test_zero_ss_tot_matches_fit_ols_edge_case(self):
        score, r2, adj = _criterion_from_ssr("r2", 0.0, 0.0, 10, 3)
        assert (score, r2, adj) == (0.0, 0.0, 0.0)


class TestGramCacheScoring:
    @pytest.mark.parametrize("criterion", ["r2", "adj_r2", "aic", "bic"])
    def test_matches_full_refit(self, rng, criterion):
        y, design, rates = make_design(rng)
        cache = GramCache(y, design, rates)
        base = [2, 5]
        remaining = [0, 1, 3, 4, 6, 7]
        scores = cache.score_candidates(base, remaining, criterion)
        assert all(s is not None for s in scores)
        for cand, fast in zip(remaining, scores):
            slow = slow_score(y, design, rates, base, cand, criterion)
            np.testing.assert_allclose(fast, slow, rtol=1e-9)

    def test_first_step_empty_base(self, rng):
        y, design, rates = make_design(rng)
        cache = GramCache(y, design, rates)
        scores = cache.score_candidates([], list(range(8)), "r2")
        for cand, fast in zip(range(8), scores):
            slow = slow_score(y, design, rates, [], cand, "r2")
            np.testing.assert_allclose(fast, slow, rtol=1e-9)

    def test_nonfinite_candidate_declined(self, rng):
        y, design, rates = make_design(rng)
        design = design.copy()
        design[3, 1] = np.nan
        cache = GramCache(y, design, rates)
        scores = cache.score_candidates([0], [1, 2], "r2")
        assert scores[0] is None
        assert scores[1] is not None

    def test_zero_candidate_column_declined(self, rng):
        y, design, rates = make_design(rng)
        design = design.copy()
        design[:, 4] = 0.0
        cache = GramCache(y, design, rates)
        scores = cache.score_candidates([0], [4, 5], "r2")
        assert scores[0] is None

    def test_duplicate_of_selected_declined(self, rng):
        # An exact copy of a selected column has bordered pivot ~0:
        # the exact path owns rank-deficient trials.
        y, design, rates = make_design(rng)
        design = design.copy()
        design[:, 6] = design[:, 0]
        cache = GramCache(y, design, rates)
        scores = cache.score_candidates([0], [6], "r2")
        assert scores == [None]

    def test_duplicate_candidates_score_bitwise_identical(self, rng):
        # Exact ties must survive the batched kernels so the selection
        # reduce reports them exactly as the slow path does.
        y, design, rates = make_design(rng)
        design = design.copy()
        rates = rates.copy()
        design[:, 3] = design[:, 2]
        rates[:, 3] = rates[:, 2]
        cache = GramCache(y, design, rates)
        a, b = cache.score_candidates([0], [2, 3], "r2")
        assert a == b

    def test_underdetermined_step_declined(self, rng):
        y, design, rates = make_design(rng, n=4)
        cache = GramCache(y, design, rates)
        assert cache.score_candidates([0], [1], "r2") == [None]

    def test_nonfinite_endog_declines_everything(self, rng):
        y, design, rates = make_design(rng)
        y = y.copy()
        y[0] = np.inf
        cache = GramCache(y, design, rates)
        assert cache.score_candidates([0], [1, 2], "r2") == [None, None]

    def test_condition_margin_under_ridge_threshold(self):
        # A fast-scored fit must be one the slow path solves directly:
        # the certified condition ceiling sits a decade inside the
        # ridge-fallback threshold.
        assert DESIGN_CONDITION_MAX * 10 <= CONDITION_FALLBACK_THRESHOLD


class TestGramCacheVif:
    def test_bitwise_equal_to_slow_mean_vif(self, rng):
        y, design, rates = make_design(rng)
        cache = GramCache(y, design, rates)
        cols = [0, 2, 5, 7]
        assert cache.mean_vif(cols) == slow_mean_vif(rates[:, cols])

    def test_single_column_is_nan(self, rng):
        y, design, rates = make_design(rng)
        cache = GramCache(y, design, rates)
        assert np.isnan(cache.mean_vif([3]))

    def test_nonfinite_rates_raise_like_slow_path(self, rng):
        y, design, rates = make_design(rng)
        rates = rates.copy()
        rates[0, 1] = np.nan
        cache = GramCache(y, design, rates)
        with pytest.raises(Exception) as fast_err:
            cache.mean_vif([0, 1])
        with pytest.raises(Exception) as slow_err:
            slow_mean_vif(rates[:, [0, 1]])
        assert str(fast_err.value) == str(slow_err.value)

    def test_constant_columns_match_slow_path(self, rng):
        y, design, rates = make_design(rng)
        rates = rates.copy()
        rates[:, 2] = 3.5
        cache = GramCache(y, design, rates)
        cols = [0, 2, 4]
        assert cache.mean_vif(cols) == slow_mean_vif(rates[:, cols])


class TestFoldGramSolver:
    def test_matches_per_fold_refit(self, rng):
        y, design, rates = make_design(rng, n=80)
        x = design[:, [0, 3, 5]]
        solver = FoldGramSolver(y, add_constant(x))
        for train, test in KFold(5, shuffle=True, seed=0).split(y.size):
            fit = solver.solve_fold(train, test)
            assert fit is not None
            slow = fit_ols(y[train], x[train], cov_type="HC3")
            np.testing.assert_allclose(
                fit.rsquared, slow.rsquared, rtol=1e-9
            )
            np.testing.assert_allclose(
                fit.rsquared_adj, slow.rsquared_adj, rtol=1e-9
            )
            np.testing.assert_allclose(
                solver.predict(fit, test),
                slow.predict(x[test]),
                rtol=1e-9,
            )

    def test_declines_nonfinite_design(self, rng):
        y, design, rates = make_design(rng, n=40)
        x = add_constant(design[:, [0, 1]])
        x[5, 1] = np.nan
        solver = FoldGramSolver(y, x)
        train = np.arange(20)
        test = np.arange(20, 40)
        assert solver.solve_fold(train, test) is None

    def test_declines_underdetermined_fold(self, rng):
        y, design, rates = make_design(rng, n=40)
        x = add_constant(design[:, [0, 1]])
        solver = FoldGramSolver(y, x)
        assert solver.solve_fold(np.arange(2), np.arange(2, 40)) is None

    def test_declines_degenerate_train_gram(self, rng):
        # The held-in rows carry a zero column: diagonal guard.
        y, design, rates = make_design(rng, n=40)
        x = add_constant(design[:, [0, 1]])
        x[:20, 2] = 0.0
        solver = FoldGramSolver(y, x)
        train = np.arange(20)
        test = np.arange(20, 40)
        assert solver.solve_fold(train, test) is None

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="row mismatch"):
            FoldGramSolver(np.ones(5), np.ones((6, 2)))
