"""The repraudit rule catalogue (AU002–AU011, AU013).

Each rule encodes one methodological validity condition the paper's
reporting implicitly relies on.  Thresholds are module constants next
to the rule that reads them, fixed so the repository's own reference
workflows (Tables I–IV) audit ``pass``; they flag regressions of
rigor, not the baseline.

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
from repro.stats.vif import VIF_PROBLEM_THRESHOLD

__all__ = ["all_rules"]


def _finite(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value)


#: Significance level of the Breusch–Pagan test.
ALPHA = 0.05


class HeteroscedasticityCovRule(AuditRule):
    """AU002 — heteroscedastic residuals demand a robust covariance.

    The paper adopts HC3 exactly because Breusch–Pagan rejects
    homoscedasticity on power residuals; quoting nonrobust standard
    errors on such a fit invalidates every downstream interval.
    """

    id = "AU002"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
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
        if not test.rejects_homoscedasticity(ALPHA):
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


#: Fewest held-out rows per CV fold before the fold statistics are too
#: noisy to quote.
MIN_FOLD_ROWS = 5
#: Fewest training rows per model parameter a CV fold may fit on.
MIN_TRAIN_PER_PARAM = 3.0


class FoldAdequacyRule(AuditRule):
    """AU003 — cross-validation folds must be large enough to mean
    anything: every training fold needs rows to estimate the parameters
    and every held-out fold needs rows for its error statistic."""

    id = "AU003"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
        if ctx.n_splits is None or ctx.n_samples is None:
            return []
        findings: List[AuditFinding] = []
        n, k_folds = ctx.n_samples, ctx.n_splits
        train_rows = n - math.ceil(n / k_folds)
        if ctx.n_params is not None and ctx.n_params > 0:
            needed = MIN_TRAIN_PER_PARAM * ctx.n_params
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
        if test_rows < MIN_FOLD_ROWS:
            findings.append(
                self.finding(
                    ctx,
                    SEVERITY_MINOR,
                    f"{k_folds}-fold CV on n={n} holds out only "
                    f"~{test_rows} rows per fold (< "
                    f"{MIN_FOLD_ROWS}); per-fold error statistics "
                    "are noise",
                )
            )
        return findings


#: n/k below this rates a quoted R² ``minor`` (rule-of-thumb adequacy);
#: below ``HARD_OBS_PER_PARAM`` it rates ``major``.
MIN_OBS_PER_PARAM = 10.0
HARD_OBS_PER_PARAM = 3.0


class SampleAdequacyRule(AuditRule):
    """AU004 — an R² quoted on too few observations per parameter is
    mostly a property of the parameter count, not the model."""

    id = "AU004"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
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
        if ratio < HARD_OBS_PER_PARAM:
            severity = SEVERITY_MAJOR
        elif ratio < MIN_OBS_PER_PARAM:
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
                f"{MIN_OBS_PER_PARAM:.0f} obs/param",
            )
        ]


#: Hat-diagonal above this: one row dominates its own prediction.
LEVERAGE_MINOR = 0.5
#: Hat-diagonal above this: the fit is pinned to the row; its residual
#: is structurally ~0 and R² is partly self-fulfilling.
LEVERAGE_MAJOR = 0.98


class LeverageRule(AuditRule):
    """AU005 — rows with hat-diagonal near 1 pin the fit to themselves;
    the R² earned on them is self-fulfilling."""

    id = "AU005"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
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
        if h_max <= LEVERAGE_MINOR:
            return []
        n_high = int(np.count_nonzero(h > LEVERAGE_MINOR))
        severity = (
            SEVERITY_MAJOR if h_max > LEVERAGE_MAJOR else SEVERITY_MINOR
        )
        return [
            self.finding(
                ctx,
                severity,
                f"max leverage h={h_max:.3f} ({n_high} row(s) above "
                f"{LEVERAGE_MINOR}); the fit is pinned to these "
                "rows and R² overstates what was learned",
            )
        ]


class VifEscalationRule(AuditRule):
    """AU006 — a selection that ends above the paper's VIF threshold
    (or on an outright collinear design) produced coefficients whose
    individual interpretation is void."""

    id = "AU006"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
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
        if v <= VIF_PROBLEM_THRESHOLD:
            return []
        return [
            self.finding(
                ctx,
                SEVERITY_MAJOR,
                f"final mean VIF {v:.1f} exceeds the threshold "
                f"{VIF_PROBLEM_THRESHOLD:.0f}; per-counter α coefficients "
                "are not individually interpretable",
            )
        ]


class MissingCIRule(AuditRule):
    """AU007 — a point estimate without a usable interval is a bare
    number; all-zero standard errors (a perfect fit, or a model file
    written without them) mean no uncertainty was actually quantified.
    Non-finite ones never get here: ``fit_ols`` and ``model_from_dict``
    reject them first."""

    id = "AU007"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
        if ctx.ols is None:
            return []
        bse = np.asarray(getattr(ctx.ols, "bse", ()), dtype=np.float64)
        if bse.size == 0:
            return []
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


#: R² ≥ ``HIGH_R2`` with MAPE ≥ ``HIGH_MAPE_PCT`` disagree: the variance
#: explained and the relative error tell different stories.
HIGH_R2 = 0.95
HIGH_MAPE_PCT = 20.0
#: MAPE ≤ ``LOW_MAPE_PCT`` with R² ≤ ``LOW_R2`` is the mirror-image
#: disagreement (tiny relative error, no variance explained).
LOW_R2 = 0.5
LOW_MAPE_PCT = 5.0


class R2MapeDisagreementRule(AuditRule):
    """AU008 — R² and MAPE answer different questions; when they tell
    opposite stories the headline number is cherry-picked."""

    id = "AU008"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
        if not _finite(ctx.r2) or not _finite(ctx.mape_pct):
            return []
        r2, mape_pct = float(ctx.r2), float(ctx.mape_pct)
        if (
            r2 >= HIGH_R2
            and mape_pct >= HIGH_MAPE_PCT
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
            mape_pct <= LOW_MAPE_PCT
            and r2 <= LOW_R2
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


#: R² at/above this is flagged as too good: duplicated rows, leakage or
#: an identity fit are the usual culprits.
R2_SUSPICIOUS = 0.999


class SuspiciousPerfectionRule(AuditRule):
    """AU009 — fits too good to be true usually are: leakage,
    duplicated rows, or an identity between target and regressors.
    Numerically perfect or impossible fits grade ``fail`` and block
    strict persistence."""

    id = "AU009"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
        r2 = ctx.r2
        if r2 is None and ctx.ols is not None:
            r2 = float(getattr(ctx.ols, "rsquared", float("nan")))
        if r2 is None:
            return []
        r2 = float(r2)
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
        if r2 >= R2_SUSPICIOUS:
            return [
                self.finding(
                    ctx,
                    SEVERITY_MAJOR,
                    f"R²={r2:.6f} exceeds the plausibility bound "
                    f"{R2_SUSPICIOUS}; check for duplicated rows "
                    "or target leakage before quoting it",
                )
            ]
        return []


class DegradedProvenanceRule(AuditRule):
    """AU010 — results built from degraded data must say so.  The rule
    surfaces campaign faults, quarantines, dropped counters and workflow
    degradation warnings next to the numbers they taint."""

    id = "AU010"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
        findings = self._campaign_findings(ctx)
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


#: Shape of the fold-fallback provenance note emitted by
#: ``cv_out_of_fold_predictions`` and surfaced through workflow warnings.
_FASTFIT_NOTE = re.compile(
    r"fastfit: (\d+)/(\d+) fold\(s\) fell back to the exact fit path"
)
#: Fast-path decline rate above this is an anomaly worth surfacing: the
#: Gram kernels decline degraded or ill-conditioned fits, so a mostly
#: declined run is a data-quality signal, not a perf detail.
FASTFIT_FALLBACK_FRACTION = 0.5


class FastfitFallbackRule(AuditRule):
    """AU011 — the Gram fast path declines folds whose training design
    is degraded or ill-conditioned, so a mostly-declined CV run is a
    data-quality anomaly wearing a performance costume."""

    id = "AU011"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
        findings: List[AuditFinding] = []
        for w in ctx.warnings:
            m = _FASTFIT_NOTE.search(w)
            if not m:
                continue
            declined, total = int(m.group(1)), int(m.group(2))
            if total == 0:
                continue
            fraction = declined / total
            if fraction > FASTFIT_FALLBACK_FRACTION:
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


#: Fleet services with more than this fraction of nodes quarantined or
#: degraded grade minor; above the major fraction they grade major, and
#: a fleet with no healthy node at all fails outright.
FLEET_DEGRADED_MINOR_FRACTION = 0.05
FLEET_DEGRADED_MAJOR_FRACTION = 0.20


class FleetDegradationRule(AuditRule):
    """AU013 — a fleet service quietly answering a growing share of its
    nodes from quarantine or the baseline fallback is drifting away
    from the model it claims to serve; the degradation must be graded
    next to the estimates, never silently absorbed."""

    id = "AU013"

    def check(self, ctx: AuditContext) -> List[AuditFinding]:
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
        if fraction > FLEET_DEGRADED_MAJOR_FRACTION:
            severity = SEVERITY_MAJOR
        elif fraction > FLEET_DEGRADED_MINOR_FRACTION:
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
