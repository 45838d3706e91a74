"""The repraudit rule catalogue (AU001–AU011, AU013).

Each rule encodes one methodological validity condition the paper's
reporting implicitly relies on.  Thresholds come from
:class:`~repro.audit.config.AuditConfig` and are calibrated so the
repository's own reference workflows (Tables I–IV) audit ``pass``;
they flag regressions of rigor, not the baseline.

Rules are duck-typed over :class:`~repro.audit.framework.AuditContext`
fields and stay silent on artifacts that do not carry the fields they
check.  Diagnostics that cannot run on an artifact (degenerate
residuals, too few rows) are themselves evidence and are graded, not
swallowed.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional

import numpy as np

from repro.audit.config import AuditConfig
from repro.audit.framework import (
    SEVERITY_FAIL,
    SEVERITY_MAJOR,
    SEVERITY_MINOR,
    AuditContext,
    AuditFinding,
    AuditRule,
)
from repro.stats.errors import (
    DegenerateResidualsError,
    EstimationError,
)

__all__ = ["all_rules", "rules_by_id"]


def _finite(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value)


class ResidualNormalityRule(AuditRule):
    """AU001 — small-sample inference needs near-normal residuals.

    On large samples the CLT covers non-normal errors, so the rule only
    fires below ``normality_small_n`` observations, where a rejected
    Jarque–Bera test means the quoted t/p statistics are not to be
    trusted.
    """

    id = "AU001"
    name = "residual-normality"
    description = (
        "Jarque–Bera rejects residual normality on a sample too small "
        "for asymptotic inference"
    )

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        if ctx.ols is None:
            return []
        resid = np.asarray(ctx.ols.residuals, dtype=np.float64)
        if resid.size == 0:  # restored models do not persist residuals
            return []
        if resid.size >= config.normality_small_n:
            return []
        from repro.stats.diagnostics import jarque_bera

        try:
            test = jarque_bera(resid)
        except DegenerateResidualsError:
            return []  # a collapsed fit is AU009's finding, not ours
        except EstimationError as exc:
            return [
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    f"residual normality untestable: {exc}",
                )
            ]
        if not test.rejects_normality(config.alpha):
            return []
        return [
            self.finding(
                ctx,
                SEVERITY_MINOR,
                f"Jarque–Bera rejects residual normality "
                f"(p={test.pvalue:.3g}) on only n={test.n} observations; "
                "t/p statistics are unreliable below "
                f"n={config.normality_small_n}",
            )
        ]


class HeteroscedasticityCovRule(AuditRule):
    """AU002 — heteroscedastic residuals demand a robust covariance.

    The paper adopts HC3 exactly because Breusch–Pagan rejects
    homoscedasticity on power residuals; quoting nonrobust standard
    errors on such a fit invalidates every downstream interval.
    """

    id = "AU002"
    name = "heteroscedasticity-cov-mismatch"
    description = (
        "Breusch–Pagan rejects homoscedasticity but the fit quotes a "
        "nonrobust covariance"
    )

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        if ctx.ols is None or ctx.exog is None:
            return []
        cov = (ctx.cov_type or getattr(ctx.ols, "cov_type", "")).lower()
        if cov != "nonrobust":
            return []  # HC0–HC3 already price the heteroscedasticity in
        from repro.stats.diagnostics import breusch_pagan

        try:
            test = breusch_pagan(
                np.asarray(ctx.ols.residuals, dtype=np.float64), ctx.exog
            )
        except DegenerateResidualsError:
            return []
        except EstimationError as exc:
            return [
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    "nonrobust covariance quoted but heteroscedasticity "
                    f"is untestable: {exc}",
                )
            ]
        if not test.rejects_homoscedasticity(config.alpha):
            return []
        return [
            self.finding(
                ctx,
                SEVERITY_MAJOR,
                f"Breusch–Pagan rejects homoscedasticity "
                f"(LM={test.statistic:.1f}, p={test.pvalue:.3g}) yet the "
                "fit quotes nonrobust standard errors; use HC3",
            )
        ]


class FoldAdequacyRule(AuditRule):
    """AU003 — cross-validation folds must be large enough to mean
    anything: every training fold needs rows to estimate the parameters
    and every held-out fold needs rows for its error statistic."""

    id = "AU003"
    name = "cv-fold-adequacy"
    description = "fold count is inadequate for the sample size"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        if ctx.n_splits is None or ctx.n_samples is None:
            return []
        findings: List[AuditFinding] = []
        n, k_folds = ctx.n_samples, ctx.n_splits
        train_rows = n - math.ceil(n / k_folds)
        if ctx.n_params is not None and ctx.n_params > 0:
            needed = config.min_train_per_param * ctx.n_params
            if train_rows < needed:
                findings.append(
                    self.finding(
                        ctx,
                        SEVERITY_MAJOR,
                        f"{k_folds}-fold CV on n={n} leaves ~{train_rows} "
                        f"training rows for {ctx.n_params} parameters "
                        f"(need ≥ {needed:.0f}); fold fits are "
                        "underdetermined in practice",
                    )
                )
        test_rows = n // k_folds
        if test_rows < config.min_fold_rows:
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    f"{k_folds}-fold CV on n={n} holds out only "
                    f"~{test_rows} rows per fold (< "
                    f"{config.min_fold_rows}); per-fold error statistics "
                    "are noise",
                )
            )
        return findings


class SampleAdequacyRule(AuditRule):
    """AU004 — an R² quoted on too few observations per parameter is
    mostly a property of the parameter count, not the model."""

    id = "AU004"
    name = "obs-per-param"
    description = "too few observations per fitted parameter"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        n = ctx.n_samples
        k = ctx.n_params
        if (n is None or k is None) and ctx.ols is not None:
            n = int(getattr(ctx.ols, "nobs", 0)) or n
            params = getattr(ctx.ols, "params", None)
            if params is not None:
                k = int(np.asarray(params).size)
        if not n or not k:
            return []
        ratio = n / k
        if ratio < config.hard_obs_per_param:
            severity = SEVERITY_MAJOR
        elif ratio < config.min_obs_per_param:
            severity = SEVERITY_MINOR
        else:
            return []
        return [
            self.finding(
                ctx,
                severity,
                f"only {ratio:.1f} observations per parameter "
                f"(n={n}, k={k}); quoted fit quality is not "
                "generalizable below "
                f"{config.min_obs_per_param:.0f} obs/param",
            )
        ]


class LeverageRule(AuditRule):
    """AU005 — rows with hat-diagonal near 1 pin the fit to themselves;
    the R² earned on them is self-fulfilling."""

    id = "AU005"
    name = "high-leverage"
    description = "design rows with dominating leverage"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        if ctx.exog is None:
            return []
        from repro.stats.diagnostics import leverage_scores

        try:
            h = leverage_scores(ctx.exog)
        except EstimationError as exc:
            return [
                self.finding(
                    ctx, SEVERITY_MINOR, f"leverage untestable: {exc}"
                )
            ]
        h_max = float(h.max())
        if h_max <= config.leverage_minor:
            return []
        n_high = int(np.count_nonzero(h > config.leverage_minor))
        severity = (
            SEVERITY_MAJOR if h_max > config.leverage_major else SEVERITY_MINOR
        )
        return [
            self.finding(
                ctx,
                severity,
                f"max leverage h={h_max:.3f} ({n_high} row(s) above "
                f"{config.leverage_minor}); the fit is pinned to these "
                "rows and R² overstates what was learned",
            )
        ]


class VifEscalationRule(AuditRule):
    """AU006 — a selection that ends above the paper's VIF threshold
    (or on an outright collinear design) produced coefficients whose
    individual interpretation is void."""

    id = "AU006"
    name = "vif-escalation"
    description = "final selected counter set exceeds the VIF threshold"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        if ctx.selection is None:
            return []
        steps = getattr(ctx.selection, "steps", ())
        if not steps:
            return []
        final = steps[-1]
        v = float(getattr(final, "mean_vif", float("nan")))
        if math.isnan(v):
            return []  # single-counter models have no VIF
        if math.isinf(v):
            return [
                self.finding(
                    ctx,
                    SEVERITY_FAIL,
                    "final counter set is exactly collinear "
                    "(mean VIF = inf); at least one selected counter is a "
                    "linear combination of the others",
                )
            ]
        if v <= config.vif_threshold:
            return []
        return [
            self.finding(
                ctx,
                SEVERITY_MAJOR,
                f"final mean VIF {v:.1f} exceeds the threshold "
                f"{config.vif_threshold:.0f}; per-counter α coefficients "
                "are not individually interpretable",
            )
        ]


class MissingCIRule(AuditRule):
    """AU007 — a point estimate without a usable interval is a bare
    number; degenerate standard errors (all-zero or non-finite) mean no
    uncertainty was actually quantified."""

    id = "AU007"
    name = "missing-ci"
    description = "point estimates reported without usable intervals"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        if ctx.has_ci is False:
            return [
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    "artifact reports bare point estimates with no "
                    "interval estimates attached",
                )
            ]
        if ctx.ols is None:
            return []
        bse = np.asarray(getattr(ctx.ols, "bse", ()), dtype=np.float64)
        if bse.size == 0:
            return []
        if not np.all(np.isfinite(bse)):
            return [
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    "coefficient standard errors are non-finite; "
                    "confidence intervals cannot be formed",
                )
            ]
        if np.all(bse == 0.0):  # degenerate-SE detection needs exact zeros
            return [
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    "all coefficient standard errors are exactly zero; "
                    "the quoted estimates carry no uncertainty "
                    "quantification",
                )
            ]
        return []


class R2MapeDisagreementRule(AuditRule):
    """AU008 — R² and MAPE answer different questions; when they tell
    opposite stories the headline number is cherry-picked."""

    id = "AU008"
    name = "r2-mape-disagreement"
    description = "R² and MAPE tell contradictory stories"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        if not _finite(ctx.r2) or not _finite(ctx.mape_pct):
            return []
        r2, mape_pct = float(ctx.r2), float(ctx.mape_pct)
        if (
            r2 >= config.r2_mape_high_r2
            and mape_pct >= config.r2_mape_high_mape_pct
        ):
            return [
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    f"R²={r2:.3f} suggests an excellent fit but "
                    f"MAPE={mape_pct:.1f}% contradicts it; the variance "
                    "explained is dominated by scale, not accuracy",
                )
            ]
        if (
            mape_pct <= config.r2_mape_low_mape_pct
            and r2 <= config.r2_mape_low_r2
        ):
            return [
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    f"MAPE={mape_pct:.1f}% looks accurate but "
                    f"R²={r2:.3f} shows almost no variance explained; "
                    "the target barely varies and the relative error "
                    "flatters the model",
                )
            ]
        return []


class SuspiciousPerfectionRule(AuditRule):
    """AU009 — fits too good to be true usually are: leakage,
    duplicated rows, or an identity between target and regressors.
    Numerically perfect or impossible fits grade ``fail`` and block
    strict persistence."""

    id = "AU009"
    name = "suspicious-perfection"
    description = "fit quality is implausibly perfect"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        r2 = ctx.r2
        if r2 is None and ctx.ols is not None:
            r2 = float(getattr(ctx.ols, "rsquared", float("nan")))
        if r2 is None:
            return []
        r2 = float(r2)
        if ctx.ols is not None:
            params = np.asarray(ctx.ols.params, dtype=np.float64)
            if not np.all(np.isfinite(params)):
                return [
                    self.finding(
                        ctx,
                        SEVERITY_FAIL,
                        "fitted coefficients are non-finite; the model "
                        "is unusable",
                    )
                ]
        if not math.isfinite(r2) or r2 > 1.0 + 1e-12:
            return [
                self.finding(
                    ctx,
                    SEVERITY_FAIL,
                    f"R²={r2} is outside [0, 1]; the fit statistics are "
                    "numerically invalid",
                )
            ]
        if r2 >= 1.0 - 1e-12:
            return [
                self.finding(
                    ctx,
                    SEVERITY_FAIL,
                    "R²=1 to machine precision: the target is an exact "
                    "linear function of the regressors (leakage or "
                    "identity), not a measured relationship",
                )
            ]
        if r2 >= config.r2_suspicious:
            return [
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    f"R²={r2:.6f} exceeds the plausibility bound "
                    f"{config.r2_suspicious}; check for duplicated rows "
                    "or target leakage before quoting it",
                )
            ]
        return []


class DegradedProvenanceRule(AuditRule):
    """AU010 — results built from degraded data must say so.  The rule
    surfaces campaign faults, quarantines, dropped counters, workflow
    degradation warnings and online drift next to the numbers they
    taint."""

    id = "AU010"
    name = "degraded-provenance"
    description = "artifact was built from degraded data"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        findings: List[AuditFinding] = []
        findings.extend(self._campaign_findings(ctx))
        findings.extend(self._drift_findings(ctx, config))
        for w in ctx.warnings:
            if w.startswith("fastfit:"):
                continue  # AU011's signal, not a data-provenance note
            findings.append(
                self.finding(
                    ctx, SEVERITY_MINOR, f"degraded-data provenance: {w}"
                )
            )
        return findings

    def _campaign_findings(self, ctx: AuditContext) -> List[AuditFinding]:
        rep = ctx.campaign
        if rep is None:
            return []
        findings: List[AuditFinding] = []
        quarantined = getattr(rep, "quarantined", ())
        dropped = getattr(rep, "dropped_counters", ())
        degraded = int(getattr(rep, "degraded_phases", 0))
        if quarantined:
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    f"{len(quarantined)} campaign cell(s) quarantined; "
                    "the dataset under-represents part of the "
                    "workload × frequency grid",
                )
            )
        if dropped:
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    f"counters dropped for insufficient coverage: "
                    f"{', '.join(dropped)}; the candidate pool the model "
                    "chose from was incomplete",
                )
            )
        if degraded:
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    f"{degraded} merged phase(s) dropped for incomplete "
                    "counter coverage",
                )
            )
        retries = int(getattr(rep, "retries", 0))
        merge_issues = getattr(rep, "merge_issues", ())
        if retries or merge_issues:
            parts = []
            if retries:
                parts.append(f"{retries} retried attempt(s)")
            if merge_issues:
                parts.append(f"{len(merge_issues)} merge issue(s)")
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    "campaign recovered from faults ("
                    + ", ".join(parts)
                    + "); results are reproducible but the acquisition "
                    "was not clean",
                )
            )
        return findings

    def _drift_findings(
        self, ctx: AuditContext, config: AuditConfig
    ) -> List[AuditFinding]:
        rep = ctx.drift
        if rep is None:
            return []
        findings: List[AuditFinding] = []
        if getattr(rep, "breaker_open", False) or getattr(
            rep, "drift_detected", False
        ):
            what = []
            if getattr(rep, "drift_detected", False):
                frac = float(getattr(rep, "drift_fraction", 0.0))
                what.append(f"drift detected ({frac:.0%} implausible)")
            if getattr(rep, "breaker_open", False):
                what.append("circuit breaker open at session end")
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    "; ".join(what)
                    + " — the fitted model no longer describes the "
                    "observed platform",
                )
            )
        degraded_fraction = float(getattr(rep, "degraded_fraction", 0.0))
        if (
            not findings
            and degraded_fraction > config.drift_degraded_fraction
        ):
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    f"{degraded_fraction:.0%} of online estimates came "
                    "from the baseline fallback, not the model",
                )
            )
        return findings


#: Shape of the fold-fallback provenance note emitted by
#: ``cross_validate`` and surfaced through workflow warnings.
_FASTFIT_NOTE = re.compile(
    r"fastfit: (\d+)/(\d+) fold\(s\) fell back to the exact fit path"
)


class FastfitFallbackRule(AuditRule):
    """AU011 — the Gram fast path declines folds whose training design
    is degraded or ill-conditioned, so a mostly-declined CV run is a
    data-quality anomaly wearing a performance costume."""

    id = "AU011"
    name = "fastfit-fallback-rate"
    description = "anomalous fraction of CV folds declined the fast path"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        findings: List[AuditFinding] = []
        for w in ctx.warnings:
            m = _FASTFIT_NOTE.search(w)
            if not m:
                continue
            declined, total = int(m.group(1)), int(m.group(2))
            if total == 0:
                continue
            fraction = declined / total
            if fraction > config.fastfit_fallback_fraction:
                findings.append(
                    self.finding(
                        ctx,
                        SEVERITY_MINOR,
                        f"{declined}/{total} CV folds "
                        f"({fraction:.0%}) were declined by the Gram "
                        "fast path; the per-fold training designs are "
                        "borderline degenerate",
                    )
                )
        return findings


class FleetDegradationRule(AuditRule):
    """AU013 — a fleet service quietly answering a growing share of its
    nodes from quarantine or the baseline fallback is drifting away
    from the model it claims to serve; the degradation must be graded
    next to the estimates, never silently absorbed."""

    id = "AU013"
    name = "fleet-degradation"
    description = "too many fleet nodes quarantined or degraded"

    def check(self, ctx: AuditContext, config: AuditConfig) -> List[AuditFinding]:
        fleet = ctx.fleet
        if fleet is None:
            return []
        findings: List[AuditFinding] = []
        n_nodes = int(getattr(fleet, "n_nodes", 0))
        if n_nodes == 0:
            return findings
        healthy = int(getattr(fleet, "healthy_nodes", 0))
        quarantined = int(getattr(fleet, "quarantined_nodes", 0))
        degraded = int(getattr(fleet, "degraded_nodes", 0))
        if healthy == 0:
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_FAIL,
                    f"no healthy node left in a {n_nodes}-node fleet "
                    f"({quarantined} quarantined, {degraded} degraded) — "
                    "the service is effectively serving the baseline "
                    "model everywhere",
                )
            )
            return findings
        fraction = (quarantined + degraded) / n_nodes
        if fraction > config.fleet_degraded_major_fraction:
            severity = SEVERITY_MAJOR
        elif fraction > config.fleet_degraded_minor_fraction:
            severity = SEVERITY_MINOR
        else:
            return findings
        findings.append(
            self.finding(
                ctx,
                severity,
                f"{quarantined + degraded}/{n_nodes} node(s) "
                f"({fraction:.0%}) are quarantined or serving the "
                "baseline fallback — estimates for those nodes no "
                "longer reflect live counters; investigate drift before "
                "trusting fleet-level power numbers",
            )
        )
        return findings


def all_rules() -> List[AuditRule]:
    """Fresh instances of the full catalogue, in id order."""
    return [
        ResidualNormalityRule(),
        HeteroscedasticityCovRule(),
        FoldAdequacyRule(),
        SampleAdequacyRule(),
        LeverageRule(),
        VifEscalationRule(),
        MissingCIRule(),
        R2MapeDisagreementRule(),
        SuspiciousPerfectionRule(),
        DegradedProvenanceRule(),
        FastfitFallbackRule(),
        FleetDegradationRule(),
    ]


def rules_by_id() -> dict:
    return {r.id: r for r in all_rules()}
