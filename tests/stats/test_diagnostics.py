"""Unit tests for regression diagnostics: heteroscedasticity, leverage
and the degenerate-input contract."""

import numpy as np
import pytest

from repro.stats import breusch_pagan, fit_ols
from repro.stats.diagnostics import leverage_scores
from repro.stats.errors import (
    DegenerateResidualsError,
    NonFiniteInputError,
    UnderdeterminedFitError,
)


def _fit_residuals(rng, heteroscedastic: bool, n=2000):
    x = rng.uniform(1.0, 10.0, size=(n, 2))
    scale = x[:, 0] if heteroscedastic else np.ones(n)
    y = 5 + 2 * x[:, 0] - x[:, 1] + rng.normal(size=n) * scale
    res = fit_ols(y, x)
    return res.residuals, x


class TestBreuschPagan:
    def test_detects_heteroscedasticity(self, rng):
        resid, x = _fit_residuals(rng, heteroscedastic=True)
        test = breusch_pagan(resid, x)
        assert test.rejects_homoscedasticity(0.01)

    def test_accepts_homoscedastic(self, rng):
        resid, x = _fit_residuals(rng, heteroscedastic=False)
        test = breusch_pagan(resid, x)
        assert test.pvalue > 0.01

    def test_statistic_nonnegative(self, rng):
        resid, x = _fit_residuals(rng, heteroscedastic=False, n=200)
        assert breusch_pagan(resid, x).statistic >= 0.0


class TestLeverage:
    def test_balanced_design_is_flat(self, rng):
        x = np.column_stack([np.ones(50), rng.normal(size=50)])
        h = leverage_scores(x)
        assert h.shape == (50,)
        assert np.all(h >= 0.0) and np.all(h <= 1.0)
        assert np.sum(h) == pytest.approx(2.0, rel=1e-8)  # trace = k

    def test_outlier_row_dominates(self, rng):
        x = np.column_stack([np.ones(30), rng.normal(size=30)])
        x[0, 1] = 100.0  # a lone extreme point pins the fit
        h = leverage_scores(x)
        assert np.argmax(h) == 0
        assert h.max() > 0.9

    def test_underdetermined_design_rejected(self, rng):
        with pytest.raises(UnderdeterminedFitError, match="n ≥ k"):
            leverage_scores(rng.normal(size=(3, 5)))


class TestDegenerateInputContract:
    """Diagnostics fail with the typed taxonomy, never silent NaN."""

    def test_constant_residuals_typed_error(self, rng):
        x = rng.normal(size=(50, 2))
        with pytest.raises(DegenerateResidualsError, match="constant"):
            breusch_pagan(np.zeros(50), x)

    def test_nan_residuals_typed_error(self, rng):
        r = rng.normal(size=50)
        r[7] = np.nan
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            breusch_pagan(r, rng.normal(size=(50, 2)))

    def test_too_few_residuals_typed_error(self, rng):
        with pytest.raises(UnderdeterminedFitError, match="at least"):
            breusch_pagan(
                np.array([0.1, -0.2, 0.3]), rng.normal(size=(3, 1))
            )

    def test_bp_rejects_nan_exog(self, rng):
        resid, x = _fit_residuals(rng, heteroscedastic=False, n=100)
        x = x.copy()
        x[3, 1] = np.inf
        with pytest.raises(NonFiniteInputError, match="exog"):
            breusch_pagan(resid, x)

    def test_bp_needs_residual_dof(self, rng):
        # n = k+2 used to produce a vacuous LM = 0; now it is an error.
        x = rng.normal(size=(4, 2))
        with pytest.raises(UnderdeterminedFitError):
            breusch_pagan(rng.normal(size=4), x)
