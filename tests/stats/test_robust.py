"""Huber IRLS robust regression: drop-in behavior, outlier resistance,
guarded-solver integration."""

import numpy as np
import pytest

from repro.core.features import design_matrix
from repro.stats import fit_ols, fit_robust, mape
from repro.stats.robust import HUBER_C, huber_weights


def _clean_data(rng, n=300, k=3, noise=0.3):
    x = rng.normal(size=(n, k))
    beta = np.array([1.5, -2.0, 0.7][:k])
    y = 2.0 + x @ beta + rng.normal(scale=noise, size=n)
    return x, y, beta


def _contaminate(rng, y, fraction=0.05, magnitude=40.0):
    """Inject gross positive outliers into a fraction of the rows."""
    n_bad = max(int(round(fraction * y.shape[0])), 1)
    idx = rng.choice(y.shape[0], size=n_bad, replace=False)
    y = y.copy()
    y[idx] += magnitude
    return y, idx


class TestHuberWeights:
    def test_core_weight_is_one(self):
        r = np.array([0.0, 0.5, -0.5])
        assert np.allclose(huber_weights(r, scale=1.0), 1.0)

    def test_tail_weight_decays(self):
        w = huber_weights(np.array([10.0]), scale=1.0)
        assert w[0] == pytest.approx(HUBER_C / 10.0)

    def test_zero_scale_gives_unit_weights(self):
        assert np.allclose(huber_weights(np.array([3.0, -9.0]), 0.0), 1.0)


class TestDropIn:
    def test_matches_ols_on_clean_data(self, rng):
        x, y, beta = _clean_data(rng, noise=0.05)
        robust = fit_robust(y, x)
        ols = fit_ols(y, x)
        assert np.allclose(robust.params, ols.params, atol=0.02)
        assert robust.rsquared == pytest.approx(ols.rsquared, abs=0.01)

    def test_result_shape_is_olsresult(self, rng):
        x, y, _ = _clean_data(rng)
        res = fit_robust(y, x, exog_names=["a", "b", "c"])
        assert res.exog_names == ("const", "a", "b", "c")
        assert res.params.shape == (4,)
        assert res.bse.shape == (4,)
        assert res.fitted_values.shape == y.shape
        assert np.allclose(res.fitted_values + res.residuals, y)
        pred = res.predict(x)
        assert np.allclose(pred, res.fitted_values)

    def test_diagnostics_record_irls(self, rng):
        x, y, _ = _clean_data(rng)
        res = fit_robust(y, x)
        assert res.diagnostics is not None
        assert res.diagnostics.method == "huber-irls"
        assert res.diagnostics.converged
        assert res.diagnostics.n_iter >= 1
        assert res.diagnostics.fallback == "none"

    def test_deterministic(self, rng):
        x, y, _ = _clean_data(rng)
        a = fit_robust(y, x)
        b = fit_robust(y, x)
        assert np.array_equal(a.params, b.params)
        assert a.rsquared == b.rsquared


class TestOutlierResistance:
    def test_outliers_move_huber_less_than_ols(self, rng):
        x, y, beta = _clean_data(rng, noise=0.2)
        y_bad, _ = _contaminate(rng, y, fraction=0.05)
        robust = fit_robust(y_bad, x)
        ols = fit_ols(y_bad, x)
        err_robust = np.abs(robust.params[1:] - beta).max()
        err_ols = np.abs(ols.params[1:] - beta).max()
        assert err_robust <= err_ols

    def test_five_percent_outliers_huber_beats_ols_mape(self, rng):
        """The PR acceptance regression: with 5% injected outliers the
        robust fit must achieve strictly lower clean-holdout MAPE."""
        x, y, _ = _clean_data(rng, n=400, noise=0.2)
        # Keep a clean holdout; contaminate only the training half.
        x_train, x_test = x[:300], x[300:]
        y_train, y_test = y[:300], y[300:]
        y_train_bad, _ = _contaminate(rng, y_train, fraction=0.05)
        # Shift the target up so MAPE's denominator stays well away
        # from zero (power readings are strictly positive, too).
        offset = 50.0
        robust = fit_robust(y_train_bad + offset, x_train)
        ols = fit_ols(y_train_bad + offset, x_train)
        mape_robust = mape(y_test + offset, robust.predict(x_test))
        mape_ols = mape(y_test + offset, ols.predict(x_test))
        assert mape_robust < mape_ols

    def test_huber_beats_ols_on_campaign_with_sensor_glitches(
        self, full_dataset, selected_counters
    ):
        """5 % of the paper campaign's power readings glitch by +150 W:
        the Huber fit must predict the clean rows better than OLS."""
        x = design_matrix(full_dataset, selected_counters)
        y_clean = full_dataset.power_w
        y_bad, idx = _contaminate(
            np.random.default_rng(99), y_clean, fraction=0.05, magnitude=150.0
        )
        clean = np.ones(y_clean.size, dtype=bool)
        clean[idx] = False
        robust = fit_robust(y_bad, x, intercept=False)
        ols = fit_ols(y_bad, x, intercept=False)
        assert robust.diagnostics.converged
        assert mape(y_clean[clean], robust.predict(x)[clean]) < mape(
            y_clean[clean], ols.predict(x)[clean]
        )

    def test_rsquared_on_original_scale(self, rng):
        """The reported R² must describe the unweighted data, not the
        IRLS-reweighted system (which would flatter the fit)."""
        x, y, _ = _clean_data(rng, noise=0.2)
        y_bad, _ = _contaminate(rng, y, fraction=0.1)
        res = fit_robust(y_bad, x)
        resid = y_bad - res.fitted_values
        ss_res = float(resid @ resid)
        centered = y_bad - y_bad.mean()
        ss_tot = float(centered @ centered)
        assert res.rsquared == pytest.approx(1.0 - ss_res / ss_tot)


class TestDegradedDesigns:
    def test_collinear_design_takes_guarded_fallback(self, rng):
        x = rng.normal(size=(100, 2))
        x = np.hstack([x, x[:, :1] * 2.0])
        y = x[:, 0] + rng.normal(size=100) * 0.1
        res = fit_robust(y, x)
        assert np.isfinite(res.params).all()
        assert res.diagnostics.fallback in ("ridge", "pinv")
        assert any("rank" in w or "ill-conditioned" in w
                   for w in res.diagnostics.warnings)

    def test_underdetermined_raises_typed(self, rng):
        with pytest.raises(ValueError, match="underdetermined"):
            fit_robust(rng.normal(size=3), rng.normal(size=(3, 5)))

    def test_nonfinite_raises_typed(self, rng):
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        y[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_robust(y, x)

    def test_exact_interpolation_terminates(self, rng):
        """More than half the residuals exactly zero → MAD scale 0;
        the loop must stop converged, not divide by zero."""
        x = rng.normal(size=(50, 2))
        y = x @ np.array([1.0, -1.0])
        res = fit_robust(y, x, intercept=False)
        assert res.diagnostics.converged
        assert np.allclose(res.params, [1.0, -1.0], atol=1e-8)


class TestParameterValidation:
    def test_rejects_nonpositive_c(self, rng):
        x, y, _ = _clean_data(rng)
        with pytest.raises(ValueError, match="positive"):
            fit_robust(y, x, c=0.0)

    def test_rejects_zero_max_iter(self, rng):
        x, y, _ = _clean_data(rng)
        with pytest.raises(ValueError, match="max_iter"):
            fit_robust(y, x, max_iter=0)
