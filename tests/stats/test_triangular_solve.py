"""``triangular_solve`` against LAPACK.

The fast-fit kernels and the VIF solve their Cholesky systems through
:func:`repro.stats.linalg.triangular_solve`, a numpy substitution loop.
scipy's ``solve_triangular`` (LAPACK ``trtrs``) is the oracle: the two
agree to rounding, not bit for bit, since LAPACK blocks and fuses its
multiply-adds differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_triangular

from repro.stats.linalg import triangular_solve, try_cholesky

_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def factor_and_rhs(draw):
    """The Cholesky factor of a unit-diagonal Gram of k ≤ 16 columns
    (the systems the fast-fit kernels solve) and a vector or matrix
    right-hand side."""
    k = draw(st.integers(1, 16))
    a = draw(hnp.arrays(np.float64, (k, k), elements=_unit))
    gram = a @ a.T + 0.1 * np.eye(k)
    scale = np.sqrt(np.diagonal(gram))
    factor = try_cholesky(gram / np.outer(scale, scale))
    shape = draw(st.sampled_from([(k,), (k, 1), (k, 7)]))
    rhs = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        )
    )
    return factor, rhs


class TestAgainstLapack:
    @given(factor_and_rhs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_solve_triangular(self, case, trans):
        factor, rhs = case
        before = rhs.copy()
        got = triangular_solve(factor, rhs, trans=trans)
        want = solve_triangular(factor, rhs, lower=True, trans=1 if trans else 0)
        assert got.shape == want.shape
        assert np.array_equal(rhs, before)
        scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale

    @given(factor_and_rhs(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_identical_columns_give_identical_solutions(self, case, trans):
        factor, rhs = case
        col = rhs.reshape(rhs.shape[0], -1)[:, 0]
        other = np.roll(col, 1) + 1.0
        stacked = np.column_stack([col, other, col, col])
        got = triangular_solve(factor, stacked, trans=trans)
        assert np.array_equal(got[:, 0], got[:, 2])
        assert np.array_equal(got[:, 0], got[:, 3])

    @pytest.mark.parametrize("trans", [False, True])
    def test_every_order_up_to_16(self, trans):
        rng = np.random.default_rng(16)
        for k in range(1, 17):
            a = rng.uniform(-1.0, 1.0, (k, k))
            factor = try_cholesky(a @ a.T + 0.1 * np.eye(k))
            for rhs in (rng.normal(size=k), rng.normal(size=(k, 5))):
                got = triangular_solve(factor, rhs, trans=trans)
                want = solve_triangular(
                    factor, rhs, lower=True, trans=1 if trans else 0
                )
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-12 * np.max(np.abs(want))
                )


class TestShapes:
    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError):
            triangular_solve(np.eye(3), np.ones(4))

    def test_rejects_non_square_factor(self):
        with pytest.raises(ValueError):
            triangular_solve(np.ones((3, 2)), np.ones(3))
