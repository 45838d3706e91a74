"""Unit tests for the error metrics."""

import numpy as np
import pytest

from repro.stats import bias, mape, r2_score


class TestMape:
    def test_exact_prediction_is_zero(self):
        a = np.array([100.0, 200.0])
        assert mape(a, a) == 0.0

    def test_known_value(self):
        actual = np.array([100.0, 200.0])
        predicted = np.array([110.0, 180.0])  # 10 % and 10 %
        assert mape(actual, predicted) == pytest.approx(10.0)

    def test_asymmetric_in_arguments(self):
        a = np.array([100.0])
        p = np.array([150.0])
        assert mape(a, p) != mape(p, a)

    def test_zero_actual_raises(self):
        with pytest.raises(ValueError, match="zero"):
            mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mape(np.ones(3), np.ones(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mape(np.array([]), np.array([]))


class TestOtherMetrics:
    def test_bias_sign_convention(self):
        actual = np.array([100.0, 100.0])
        over = np.array([110.0, 120.0])
        # Positive bias = overestimation (Fig. 5a reading).
        assert bias(actual, over) == pytest.approx(15.0)
        assert bias(actual, actual - 5) == pytest.approx(-5.0)


class TestR2Score:
    def test_perfect(self, rng):
        a = rng.normal(size=50)
        assert r2_score(a, a) == pytest.approx(1.0)

    def test_mean_prediction_is_zero(self, rng):
        a = rng.normal(size=500)
        assert r2_score(a, np.full(500, a.mean())) == pytest.approx(0.0, abs=1e-12)

    def test_worse_than_mean_is_negative(self, rng):
        a = rng.normal(size=100)
        assert r2_score(a, -a * 3) < 0.0

    def test_constant_actual_returns_zero(self):
        assert r2_score(np.full(10, 5.0), np.arange(10.0)) == 0.0


class TestOnZero:
    def test_default_raises_on_zero_actual(self):
        with pytest.raises(ValueError, match="MAPE undefined"):
            mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
