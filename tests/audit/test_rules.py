"""Adversarial fixtures: each one trips exactly its intended rule.

Every fixture is built to violate one methodological condition while
staying innocuous under every other rule, so the assertions can demand
``ruleset == {intended}`` — a rule that over-fires breaks another
rule's test, and a rule that under-fires breaks its own.
"""

from types import SimpleNamespace

import numpy as np

from repro.audit import AuditContext, run_audit
from repro.stats.ols import fit_ols


def rule_ids(report):
    return {f.rule_id for f in report.findings}


def audit_one(ctx):
    return run_audit([ctx])


# ---------------------------------------------------------------------------
# the clean twin: a well-behaved fit trips nothing


class TestCleanFit:
    def test_clean_fit_audits_pass(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1.0, 10.0, size=(200, 3))
        y = 5.0 + x @ np.array([2.0, -1.0, 0.5]) + rng.normal(size=200)
        ols = fit_ols(y, x, cov_type="HC3")
        ctx = AuditContext(
            artifact="model",
            ols=ols,
            exog=x,
            cov_type="HC3",
            r2=ols.rsquared,
            mape_pct=3.0,
            n_samples=200,
            n_params=4,
        )
        report = audit_one(ctx)
        assert report.findings == ()
        assert report.verdict == "pass"
        assert report.gate_passed(strict=True)
        assert report.artifacts == ("model",)


# ---------------------------------------------------------------------------
# one fixture per rule


class TestAU002HeteroscedasticityCovMismatch:
    @staticmethod
    def _heteroscedastic_fit(cov_type):
        rng = np.random.default_rng(11)
        x = rng.uniform(1.0, 10.0, size=(300, 2))
        y = (
            5.0
            + 2.0 * x[:, 0]
            - x[:, 1]
            + rng.normal(size=300) * x[:, 0] ** 2
        )
        return fit_ols(y, x, cov_type=cov_type), x

    def test_nonrobust_cov_on_heteroscedastic_fit_trips(self):
        ols, x = self._heteroscedastic_fit("nonrobust")
        ctx = AuditContext(
            artifact="model", ols=ols, exog=x, cov_type="nonrobust"
        )
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU002"}
        assert report.verdict == "major"

    def test_hc3_prices_the_heteroscedasticity_in(self):
        ols, x = self._heteroscedastic_fit("HC3")
        ctx = AuditContext(artifact="model", ols=ols, exog=x, cov_type="HC3")
        assert "AU002" not in rule_ids(audit_one(ctx))


class TestAU003FoldAdequacy:
    def test_three_fold_cv_on_twelve_rows_trips(self):
        ctx = AuditContext(
            artifact="cv", kind="cv", n_samples=12, n_splits=3, n_params=4
        )
        # 12 rows for 4 parameters also (correctly) trips the
        # obs-per-param rule; the fold rule must be the major one.
        report = audit_one(ctx)
        assert "AU003" in rule_ids(report)
        assert rule_ids(report) <= {"AU003", "AU004"}
        au003 = [f.severity for f in report.findings if f.rule_id == "AU003"]
        assert "major" in au003  # underdetermined training folds
        assert report.verdict == "major"

    def test_small_held_out_folds_rate_minor(self):
        ctx = AuditContext(
            artifact="cv", kind="cv", n_samples=36, n_splits=12, n_params=2
        )
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU003"}
        assert report.verdict == "minor"

    def test_paper_scale_cv_is_silent(self):
        ctx = AuditContext(
            artifact="cv", kind="cv", n_samples=645, n_splits=10, n_params=10
        )
        assert audit_one(ctx).findings == ()


class TestAU004ObsPerParam:
    def test_two_obs_per_param_rates_major(self):
        ctx = AuditContext(artifact="model", n_samples=10, n_params=5)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU004"}
        assert report.verdict == "major"

    def test_five_obs_per_param_rates_minor(self):
        ctx = AuditContext(artifact="model", n_samples=25, n_params=5)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU004"}
        assert report.verdict == "minor"

    def test_ample_sample_is_silent(self):
        ctx = AuditContext(artifact="model", n_samples=500, n_params=5)
        assert audit_one(ctx).findings == ()


class TestAU005Leverage:
    def test_pinned_row_trips_major(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        x[0] = [500.0, -500.0]  # one row dominates the design
        report = audit_one(AuditContext(artifact="model", exog=x))
        assert rule_ids(report) == {"AU005"}
        assert report.verdict == "major"

    def test_balanced_design_is_silent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        assert audit_one(AuditContext(artifact="model", exog=x)).findings == ()


class TestAU006VifEscalation:
    @staticmethod
    def _selection(final_vif):
        return SimpleNamespace(
            steps=(
                SimpleNamespace(mean_vif=float("nan")),
                SimpleNamespace(mean_vif=final_vif),
            )
        )

    def test_exact_collinearity_rates_fail(self):
        ctx = AuditContext(
            artifact="selection", selection=self._selection(float("inf"))
        )
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU006"}
        assert report.verdict == "fail"

    def test_threshold_breach_rates_major(self):
        ctx = AuditContext(
            artifact="selection", selection=self._selection(42.0)
        )
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU006"}
        assert report.verdict == "major"

    def test_stable_selection_is_silent(self):
        ctx = AuditContext(
            artifact="selection", selection=self._selection(4.2)
        )
        assert audit_one(ctx).findings == ()


class TestAU007MissingCI:
    def test_all_zero_standard_errors_trip(self):
        ols = SimpleNamespace(
            residuals=np.array([]),
            params=np.array([1.0, 2.0]),
            bse=np.zeros(2),
            rsquared=0.9,
            nobs=100,
        )
        report = audit_one(AuditContext(artifact="model", ols=ols))
        assert rule_ids(report) == {"AU007"}

    def test_usable_errors_are_silent(self):
        ols = SimpleNamespace(
            residuals=np.array([]),
            params=np.array([1.0, 2.0]),
            bse=np.array([0.1, 0.2]),
            rsquared=0.9,
            nobs=100,
        )
        assert audit_one(AuditContext(artifact="model", ols=ols)).findings == ()


class TestAU008R2MapeDisagreement:
    def test_high_r2_high_mape_trips(self):
        ctx = AuditContext(artifact="scenario:x", r2=0.97, mape_pct=35.0)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU008"}
        assert report.verdict == "minor"

    def test_low_mape_low_r2_trips(self):
        ctx = AuditContext(artifact="scenario:x", r2=0.1, mape_pct=2.0)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU008"}

    def test_consistent_metrics_are_silent(self):
        ctx = AuditContext(artifact="scenario:x", r2=0.95, mape_pct=6.0)
        assert audit_one(ctx).findings == ()

    def test_scenario1_profile_is_tolerated(self):
        # The paper's scenario 1 (4 random training workloads) yields
        # a negative pooled R² with ~15% MAPE; neither disagreement
        # direction may flag it.
        ctx = AuditContext(artifact="scenario:1", r2=-0.7, mape_pct=14.9)
        assert audit_one(ctx).findings == ()


class TestAU009SuspiciousPerfection:
    def test_machine_precision_r2_rates_fail(self):
        ctx = AuditContext(artifact="model", r2=1.0)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU009"}
        assert report.verdict == "fail"

    def test_out_of_range_r2_rates_fail(self):
        ctx = AuditContext(artifact="model", r2=1.3)
        assert audit_one(ctx).verdict == "fail"

    def test_suspiciously_high_r2_rates_major(self):
        ctx = AuditContext(artifact="model", r2=0.9995)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU009"}
        assert report.verdict == "major"

    def test_paper_r2_is_silent(self):
        ctx = AuditContext(artifact="model", r2=0.954)
        assert audit_one(ctx).findings == ()


class TestAU010DegradedProvenance:
    def test_quarantined_cells_rate_major(self):
        campaign = SimpleNamespace(
            quarantined=(("cell", "why"),),
            dropped_counters=(),
            degraded_phases=0,
            retries=0,
            merge_issues=(),
        )
        report = audit_one(AuditContext(artifact="campaign", campaign=campaign))
        assert rule_ids(report) == {"AU010"}
        assert report.verdict == "major"

    def test_recovered_faults_rate_minor(self):
        campaign = SimpleNamespace(
            quarantined=(),
            dropped_counters=(),
            degraded_phases=0,
            retries=3,
            merge_issues=("phase mismatch",),
        )
        report = audit_one(AuditContext(artifact="campaign", campaign=campaign))
        assert rule_ids(report) == {"AU010"}
        assert report.verdict == "minor"

    def test_workflow_warnings_rate_minor(self):
        ctx = AuditContext(
            artifact="workflow",
            kind="workflow",
            warnings=("clamping cross-validation to 8 folds",),
        )
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU010"}
        assert report.verdict == "minor"

    def test_clean_campaign_is_silent(self):
        campaign = SimpleNamespace(
            quarantined=(),
            dropped_counters=(),
            degraded_phases=0,
            retries=0,
            merge_issues=(),
        )
        ctx = AuditContext(artifact="campaign", campaign=campaign)
        assert audit_one(ctx).findings == ()


class TestAU011FastfitFallbackRate:
    WARNING = "fastfit: {}/{} fold(s) fell back to the exact fit path"

    def test_majority_decline_trips(self):
        ctx = AuditContext(
            artifact="workflow",
            kind="workflow",
            warnings=(self.WARNING.format(7, 10),),
        )
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU011"}
        assert report.verdict == "minor"

    def test_occasional_decline_is_silent(self):
        ctx = AuditContext(
            artifact="workflow",
            kind="workflow",
            warnings=(self.WARNING.format(2, 10),),
        )
        assert rule_ids(audit_one(ctx)) == set()

    def test_fastfit_note_is_not_double_counted_as_provenance(self):
        # AU010 grades the other note and leaves the fastfit one to AU011.
        ctx = AuditContext(
            artifact="workflow",
            kind="workflow",
            warnings=(
                self.WARNING.format(7, 10),
                "clamping cross-validation to 8 folds",
            ),
        )
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU010", "AU011"}
        assert [f.rule_id for f in report.findings].count("AU010") == 1


# ---------------------------------------------------------------------------
class TestAU013FleetDegradation:
    """Fleet-service health grading over a ``FleetReport``-shaped
    roll-up.  Health counts alone drive the rule, so a bare namespace
    stands in for the real report."""

    @staticmethod
    def _fleet(n_nodes=100, healthy=100, degraded=0, quarantined=0):
        return SimpleNamespace(
            n_nodes=n_nodes,
            healthy_nodes=healthy,
            degraded_nodes=degraded,
            quarantined_nodes=quarantined,
        )

    def test_healthy_fleet_is_silent(self):
        ctx = AuditContext(artifact="fleet", kind="fleet", fleet=self._fleet())
        report = audit_one(ctx)
        assert report.findings == ()
        assert report.verdict == "pass"

    def test_moderate_degradation_rates_minor(self):
        fleet = self._fleet(healthy=92, degraded=5, quarantined=3)
        ctx = AuditContext(artifact="fleet", kind="fleet", fleet=fleet)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU013"}
        assert report.verdict == "minor"

    def test_heavy_degradation_rates_major(self):
        fleet = self._fleet(healthy=70, degraded=20, quarantined=10)
        ctx = AuditContext(artifact="fleet", kind="fleet", fleet=fleet)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU013"}
        assert report.verdict == "major"

    def test_no_healthy_node_fails(self):
        fleet = self._fleet(healthy=0, degraded=60, quarantined=40)
        ctx = AuditContext(artifact="fleet", kind="fleet", fleet=fleet)
        report = audit_one(ctx)
        assert rule_ids(report) == {"AU013"}
        assert report.verdict == "fail"

    def test_fraction_at_threshold_is_silent(self):
        # Exactly 5% degraded: the minor grade requires *exceeding*
        # the threshold.
        fleet = self._fleet(healthy=95, degraded=5, quarantined=0)
        ctx = AuditContext(artifact="fleet", kind="fleet", fleet=fleet)
        assert audit_one(ctx).findings == ()

    def test_empty_fleet_is_silent(self):
        fleet = self._fleet(n_nodes=0, healthy=0)
        ctx = AuditContext(artifact="fleet", kind="fleet", fleet=fleet)
        assert audit_one(ctx).findings == ()
