"""Property-based tests (hypothesis) for the statistics substrate.

These pin down the algebraic invariants the rest of the pipeline leans
on: OLS optimality and invariances, VIF bounds, correlation bounds, and
metric identities.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stats import (
    correlation_matrix,
    fit_ols,
    mape,
    mean_vif,
    pearson,
    r2_score,
    vifs_from_correlation,
)

# Well-conditioned float strategies.
_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_positive = st.floats(min_value=1.0, max_value=1e3, allow_nan=False)


def _design(n_rows=st.integers(12, 40), n_cols=st.integers(1, 3)):
    return n_rows.flatmap(
        lambda n: n_cols.flatmap(
            lambda k: hnp.arrays(
                np.float64, (n, k), elements=_finite
            )
        )
    )


@st.composite
def design_and_target(draw):
    x = draw(_design())
    y = draw(
        hnp.arrays(np.float64, (x.shape[0],), elements=_finite)
    )
    # Skip degenerate designs (constant target breaks centered R²
    # interpretation; collinear designs are tested separately).
    assume(np.ptp(y) > 1e-6)
    assume(all(np.ptp(x[:, j]) > 1e-6 for j in range(x.shape[1])))
    return x, y


class TestOLSProperties:
    @given(design_and_target())
    @settings(max_examples=60, deadline=None)
    def test_r2_in_unit_interval_and_adj_below(self, data):
        x, y = data
        res = fit_ols(y, x)
        assert -1e-9 <= res.rsquared <= 1.0 + 1e-9
        assert res.rsquared_adj <= res.rsquared + 1e-9

    @given(design_and_target())
    @settings(max_examples=60, deadline=None)
    def test_residuals_orthogonal_to_fitted(self, data):
        """OLS optimality: residuals ⟂ column space of the design."""
        x, y = data
        res = fit_ols(y, x)
        scale = max(np.abs(y).max(), 1.0) * max(np.abs(x).max(), 1.0)
        assert abs(float(res.residuals @ res.fitted_values)) <= 1e-6 * scale**2 * len(y)

    @given(design_and_target(), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_coefficient_equivariance_under_target_scaling(self, data, c):
        x, y = data
        # Scale-equivariance of the *unique* OLS solution: skip
        # rank-deficient designs where the minimum-norm solution has
        # weaker guarantees.
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        norms = np.linalg.norm(design, axis=0)
        sv = np.linalg.svd(design / norms, compute_uv=False)
        assume(sv[-1] > 1e-6)
        res1 = fit_ols(y, x)
        res2 = fit_ols(c * y, x)
        scale = max(np.abs(res1.params).max(), 1.0)
        assert np.allclose(
            res2.params, c * res1.params, rtol=1e-4, atol=1e-4 * scale
        )
        assert res2.rsquared == pytest.approx(res1.rsquared, abs=1e-6)

    @given(design_and_target())
    @settings(max_examples=40, deadline=None)
    def test_adding_regressor_never_lowers_r2(self, data):
        x, y = data
        extra = np.linspace(0.0, 1.0, x.shape[0])[:, None] ** 2
        r2_small = fit_ols(y, x).rsquared
        r2_big = fit_ols(y, np.hstack([x, extra])).rsquared
        assert r2_big >= r2_small - 1e-9


class TestVIFProperties:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(15, 40), st.integers(2, 4)),
            elements=_finite,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_vif_at_least_one(self, x):
        assume(all(np.ptp(x[:, j]) > 1e-6 for j in range(x.shape[1])))
        vifs = vifs_from_correlation(correlation_matrix(x))
        assert np.all(vifs >= 1.0 - 1e-9)
        assert mean_vif(x) >= 1.0 - 1e-9

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(15, 40), st.integers(2, 4)),
            elements=_finite,
        ),
        st.floats(0.5, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_vif_invariant_to_column_scaling(self, x, c):
        assume(all(np.ptp(x[:, j]) > 1e-6 for j in range(x.shape[1])))
        scaled = x.copy()
        scaled[:, 0] *= c
        v1 = mean_vif(x)
        v2 = mean_vif(scaled)
        assume(v1 < 1e9)  # skip near-singular cases
        assert v2 == pytest.approx(v1, rel=1e-4)


class TestCorrelationProperties:
    @given(
        hnp.arrays(np.float64, st.integers(3, 60), elements=_finite),
        hnp.arrays(np.float64, st.integers(3, 60), elements=_finite),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_symmetric(self, x, y):
        n = min(len(x), len(y))
        assume(n >= 2)
        x, y = x[:n], y[:n]
        r = pearson(x, y)
        assert -1.0 <= r <= 1.0
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)

    @given(hnp.arrays(np.float64, st.integers(3, 60), elements=_finite))
    @settings(max_examples=60, deadline=None)
    def test_self_correlation(self, x):
        assume(np.ptp(x) > 1e-6)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-9)


class TestMetricProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 50), elements=_positive),
        hnp.arrays(np.float64, st.integers(1, 50), elements=_positive),
    )
    @settings(max_examples=80, deadline=None)
    def test_mape_nonnegative_and_zero_iff_equal(self, a, p):
        n = min(len(a), len(p))
        a, p = a[:n], p[:n]
        assert mape(a, p) >= 0.0
        assert mape(a, a) == 0.0

    @given(
        hnp.arrays(np.float64, st.integers(2, 50), elements=_positive),
        st.floats(1.01, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_mape_scales_with_relative_error(self, a, factor):
        """Predicting factor×actual gives exactly (factor-1)×100 %."""
        assert mape(a, factor * a) == pytest.approx(
            (factor - 1.0) * 100.0, rel=1e-9
        )

    @given(
        hnp.arrays(np.float64, st.integers(2, 50), elements=_positive),
    )
    @settings(max_examples=60, deadline=None)
    def test_r2_score_of_exact_prediction(self, a):
        assume(np.ptp(a) > 1e-9)
        assert r2_score(a, a) == pytest.approx(1.0)
