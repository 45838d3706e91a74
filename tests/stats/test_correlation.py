"""Unit tests for the Pearson correlation (Equation 2)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats import correlation_matrix, pearson, pearson_with_target


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -3 * x + 5) == pytest.approx(-1.0)

    def test_matches_scipy(self, rng):
        x = rng.normal(size=500)
        y = 0.4 * x + rng.normal(size=500)
        expected, _ = scipy_stats.pearsonr(x, y)
        assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_returns_zero(self):
        # scipy returns nan here; we define 0 (no detectable relation).
        assert pearson(np.full(10, 3.0), np.arange(10.0)) == 0.0

    def test_symmetric(self, rng):
        x, y = rng.normal(size=100), rng.normal(size=100)
        assert pearson(x, y) == pytest.approx(pearson(y, x))

    def test_invariant_to_affine_transform(self, rng):
        x, y = rng.normal(size=100), rng.normal(size=100)
        assert pearson(3 * x + 7, y) == pytest.approx(pearson(x, y))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson(np.arange(5.0), np.arange(6.0))

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0]), np.array([2.0]))


class TestMatrixAndTarget:
    def test_correlation_matrix_properties(self, rng):
        x = rng.normal(size=(200, 4))
        m = correlation_matrix(x)
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(m, m.T)
        assert np.all(np.abs(m) <= 1.0 + 1e-12)

    def test_pearson_with_target_names(self, rng):
        x = rng.normal(size=(100, 2))
        y = x[:, 0]
        out = pearson_with_target(x, y, names=["hit", "miss"])
        assert out["hit"] == pytest.approx(1.0)
        assert abs(out["miss"]) < 0.5

    def test_pearson_with_target_name_mismatch(self, rng):
        with pytest.raises(ValueError):
            pearson_with_target(rng.normal(size=(10, 2)), rng.normal(size=10), names=["a"])
