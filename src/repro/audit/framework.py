"""Core abstractions of the ``repraudit`` statistical-rigor pass.

This pass audits *fitted artifacts*: the OLS fits, selection tables,
cross-validation summaries, campaign reports and fleet roll-ups the
pipeline produces at scale.  The paper's headline claims — per-scenario
R², MAPE, VIF trajectories, cross-validated errors — are statistical
artifacts, and nothing about a number being computed makes it
methodologically valid.  Each validity condition is encoded as an
:class:`AuditRule`; rules emit :class:`AuditFinding` objects graded on
the Statistical Rigor QA verdict scale (``pass``/``minor``/``major``/
``fail``), and an :class:`AuditReport` folds the findings of one
audited result set into a single verdict that gates reporting and
persistence.

Rules receive an :class:`AuditContext` — a uniform, duck-typed view of
whatever artifact is under audit — and check only the fields they
understand, so one catalogue serves models, CV runs, scenario results,
campaigns and fleets alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "AuditFinding",
    "AuditReport",
    "AuditRule",
    "AuditContext",
    "AuditGateError",
    "VERDICTS",
    "severity_rank",
    "worst_severity",
]

SEVERITY_PASS = "pass"
SEVERITY_MINOR = "minor"
SEVERITY_MAJOR = "major"
SEVERITY_FAIL = "fail"

#: Verdict scale, least to most severe.  ``pass`` is the verdict of an
#: empty finding set; individual findings carry the other three.
VERDICTS = (SEVERITY_PASS, SEVERITY_MINOR, SEVERITY_MAJOR, SEVERITY_FAIL)

_RANK: Dict[str, int] = {s: i for i, s in enumerate(VERDICTS)}


def severity_rank(severity: str) -> int:
    """Position of a severity on the scale (``pass``=0 … ``fail``=3)."""
    try:
        return _RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {VERDICTS}"
        ) from None


def worst_severity(severities: Sequence[str]) -> str:
    """The report-level verdict: worst severity present, else ``pass``."""
    worst = SEVERITY_PASS
    for s in severities:
        if severity_rank(s) > severity_rank(worst):
            worst = s
    return worst


class AuditGateError(RuntimeError):
    """A ``fail``-verdict artifact hit a strict audit gate.

    Raised by consumers that refuse to proceed on failed audits — most
    prominently strict-mode model persistence
    (:func:`repro.core.persistence.save_model`).
    """


@dataclass(frozen=True, order=True)
class AuditFinding:
    """One diagnostic: a rigor rule violated by a fitted artifact."""

    artifact: str
    """Which audited artifact tripped the rule (e.g. ``model``,
    ``scenario:3:cv-all``, ``campaign``)."""
    rule_id: str
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in (SEVERITY_MINOR, SEVERITY_MAJOR, SEVERITY_FAIL):
            raise ValueError(
                f"finding severity must be minor/major/fail, got "
                f"{self.severity!r}"
            )

    def format(self) -> str:
        return (
            f"{self.artifact}: {self.rule_id} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "artifact": self.artifact,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class AuditReport:
    """Verdict-graded account of one audit pass.

    ``verdict`` is the worst finding severity (``pass`` for an empty
    finding set) — the single value reporting and persistence gate on.
    """

    findings: Tuple[AuditFinding, ...]
    artifacts: Tuple[str, ...] = ()
    """Labels of every artifact the pass examined (also the ones that
    produced no findings — an empty report over zero artifacts is
    vacuous, not a pass)."""
    rules_run: Tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        return worst_severity([f.severity for f in self.findings])

    @property
    def clean(self) -> bool:
        return not self.findings

    def worst_at_least(self, severity: str) -> bool:
        """True when the verdict reaches the given severity."""
        return severity_rank(self.verdict) >= severity_rank(severity)

    def gate_passed(self, *, strict: bool = False) -> bool:
        """The exit-code gate: strict rejects any non-``pass`` verdict,
        the default rejects ``major``/``fail``."""
        if strict:
            return self.verdict == SEVERITY_PASS
        return not self.worst_at_least(SEVERITY_MAJOR)


@dataclass
class AuditContext:
    """Duck-typed view of one audited artifact.

    Every field is optional; a rule checks only the fields it
    understands and stays silent on artifacts that do not carry them.
    The builders in :mod:`repro.audit.engine` populate contexts from
    the concrete result types (``FittedPowerModel``, ``WorkflowResult``,
    ``CampaignReport``, ``FleetReport``) without this module ever
    importing them — the audit layer must not depend on the layers it
    audits.
    """

    artifact: str
    kind: str = "model"
    """``model`` / ``cv`` / ``scenario`` / ``selection`` / ``campaign``
    / ``fleet`` / ``workflow``."""

    # --- regression-fit view -------------------------------------------
    ols: Optional[object] = None
    """An ``OLSResult``-shaped object (params/bse/residuals/rsquared)."""
    exog: Optional[object] = None
    """Design matrix the fit ran on (needed for BP/leverage checks)."""
    cov_type: Optional[str] = None
    r2: Optional[float] = None
    mape_pct: Optional[float] = None

    # --- cross-validation view -----------------------------------------
    n_samples: Optional[int] = None
    n_params: Optional[int] = None
    n_splits: Optional[int] = None

    # --- pipeline-artifact view ----------------------------------------
    selection: Optional[object] = None
    """A ``SelectionResult``-shaped object (steps with mean_vif)."""
    campaign: Optional[object] = None
    """A ``CampaignReport``-shaped object."""
    fleet: Optional[object] = None
    """A ``FleetReport``-shaped object (serving-layer health roll-up)."""
    warnings: Tuple[str, ...] = ()
    """Degraded-data provenance notes attached to the artifact."""


class AuditRule:
    """Base class: subclasses set ``id`` and implement :meth:`check`."""

    id: str = ""

    def check(self, ctx: AuditContext) -> List[AuditFinding]:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self, ctx: AuditContext, severity: str, message: str
    ) -> AuditFinding:
        return AuditFinding(
            artifact=ctx.artifact,
            rule_id=self.id,
            severity=severity,
            message=message,
        )
