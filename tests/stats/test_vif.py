"""Unit tests for the variance inflation factor."""

import numpy as np
import pytest

from repro.stats import correlation_matrix, mean_vif, vifs_from_correlation
from repro.stats.vif import VIF_PROBLEM_THRESHOLD


def per_column_vifs(x):
    return vifs_from_correlation(correlation_matrix(x))


class TestVIF:
    def test_independent_columns_vif_near_one(self, rng):
        x = rng.normal(size=(2000, 4))
        assert mean_vif(x) == pytest.approx(1.0, abs=0.02)

    def test_known_correlation_vif(self, rng):
        """For two regressors with correlation rho, VIF = 1/(1-rho²)."""
        rho = 0.9
        n = 200_000
        a = rng.normal(size=n)
        b = rho * a + np.sqrt(1 - rho**2) * rng.normal(size=n)
        x = np.column_stack([a, b])
        expected = 1.0 / (1.0 - rho**2)
        assert mean_vif(x) == pytest.approx(expected, rel=0.02)

    def test_perfect_collinearity_is_huge(self, rng):
        a = rng.normal(size=100)
        x = np.column_stack([a, 2.0 * a, rng.normal(size=100)])
        assert mean_vif(x) > 1e6

    def test_linear_combination_collinearity(self, rng):
        """A column equal to the sum of two others inflates all three —
        the CA_SNP mechanism of Section IV-A."""
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        x = np.column_stack([a, b, a + b + rng.normal(scale=0.01, size=500)])
        assert mean_vif(x) > VIF_PROBLEM_THRESHOLD

    def test_single_column_vif_is_one(self):
        assert vifs_from_correlation(np.eye(1)).tolist() == [1.0]

    def test_constant_column_vif_is_one(self, rng):
        """A constant column counts as VIF 1 and inflates nobody."""
        const = np.full(50, 3.0)
        x = rng.normal(size=(50, 2))
        assert mean_vif(np.column_stack([const, x[:, 0]])) == 1.0
        with_const = mean_vif(np.column_stack([const, x]))
        assert with_const == pytest.approx((2.0 * mean_vif(x) + 1.0) / 3.0)


class TestMeanVIF:
    def test_single_column_is_nan(self, rng):
        # The paper prints "n/a" for the first selection step.
        assert np.isnan(mean_vif(rng.normal(size=(50, 1))))

    def test_mean_of_per_column_vifs(self, rng):
        x = rng.normal(size=(500, 3))
        assert mean_vif(x) == pytest.approx(np.mean(per_column_vifs(x)))

    def test_grows_with_added_collinear_column(self, rng):
        a = rng.normal(size=(300, 3))
        base = mean_vif(a)
        extended = np.hstack(
            [a, (a[:, :1] + a[:, 1:2] + rng.normal(scale=0.05, size=(300, 1)))]
        )
        assert mean_vif(extended) > base


class TestInfinityConvention:
    """Perfect collinearity reports exactly inf — cleanly, with no
    ZeroDivisionError and no runtime warning spam."""

    def test_perfect_collinearity_is_exactly_inf(self, rng):
        a = rng.normal(size=100)
        x = np.column_stack([a, 2.0 * a, rng.normal(size=100)])
        vifs = per_column_vifs(x)
        assert np.isinf(vifs[0]) and np.isinf(vifs[1])
        assert mean_vif(x) == np.inf

    def test_vif_table_carries_inf(self, rng):
        """Per-column VIFs keyed by name mark only the collinear pair."""
        a = rng.normal(size=100)
        x = np.column_stack([a, 2.0 * a, rng.normal(size=100)])
        table = dict(zip(["a", "a2", "c"], per_column_vifs(x).tolist()))
        assert np.isinf(table["a"]) and np.isinf(table["a2"])
        assert np.isfinite(table["c"])

    def test_no_warnings_emitted(self, rng):
        import warnings as _warnings

        a = rng.normal(size=100)
        x = np.column_stack([a, a])
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert np.isinf(mean_vif(x))

    def test_mean_vif_is_inf_with_degenerate_column(self, rng):
        a = rng.normal(size=200)
        x = np.column_stack([a, -a, rng.normal(size=200)])
        assert np.isinf(mean_vif(x))

    def test_inf_exceeds_threshold(self, rng):
        a = rng.normal(size=50)
        x = np.column_stack([a, 3.0 * a])
        assert mean_vif(x) > VIF_PROBLEM_THRESHOLD


class TestSelectionVifRegression:
    """Pin the reproduced Table I / Table IV mean-VIF trajectories.

    The correlation-matrix VIF rewrite (shared pseudo-inverse in
    ``vifs_from_correlation``) and the fast-fit memoized VIF kernel
    must keep reproducing exactly the per-step mean VIFs the repository
    has always printed for the paper's two selection tables.  The pins
    are this repository's reproduced values (the simulated platform
    does not replay the paper's hardware numbers bit-for-bit), in the
    Table I / Table IV shape: (counter, mean VIF), first step n/a.
    """

    TABLE1_STEPS = [
        ("CA_SNP", None),
        ("FUL_ICY", 1.0055209783155437),
        ("MEM_WCY", 1.7156861255604632),
        ("RES_STL", 1.8743863305250252),
        ("L3_TCR", 4.932297388319301),
        ("STL_ICY", 4.87400328991149),
    ]
    TABLE4_STEPS = [
        ("SR_INS", None),
        ("PRF_DM", 1.0034522509746124),
        ("FUL_ICY", 2.3785839089915646),
        ("CA_CLN", 4.27473922148161),
        ("STL_ICY", 4.278299172406247),
        ("BR_MSP", 4.570522372097128),
    ]

    @staticmethod
    def assert_trajectory(result, expected):
        assert [s.counter for s in result.steps] == [c for c, _ in expected]
        for step, (_, vif) in zip(result.steps, expected):
            if vif is None:
                assert np.isnan(step.mean_vif)
            else:
                assert step.mean_vif == pytest.approx(vif, rel=1e-9)

    def test_table1_all_workloads(self, selection_dataset):
        from repro.core.selection import select_events

        self.assert_trajectory(
            select_events(selection_dataset, 6), self.TABLE1_STEPS
        )

    def test_table4_synthetic_only(self, selection_dataset):
        from repro.core.selection import select_events

        synth = selection_dataset.filter(suite="roco2")
        self.assert_trajectory(
            select_events(synth, 6), self.TABLE4_STEPS
        )
