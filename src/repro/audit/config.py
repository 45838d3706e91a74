"""``[tool.repro.audit]`` configuration loaded from ``pyproject.toml``.

All thresholds default to values calibrated against the repository's
own reference workflows (the Table I–IV pipelines audit ``pass`` out
of the box); the pyproject section only needs to list deviations.

Example::

    [tool.repro.audit]
    disable = ["AU001"]
    persistence-mode = "strict"
    r2-suspicious = 0.9995
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Set

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - 3.9/3.10 fallback
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None  # degrade to defaults

__all__ = ["AuditConfig", "PERSISTENCE_MODES"]

#: How :func:`repro.core.persistence.save_model` treats a ``fail``
#: verdict: ignore it, warn about it, or refuse to persist.
PERSISTENCE_MODES = ("off", "warn", "strict")


@dataclass
class AuditConfig:
    """Resolved repraudit configuration."""

    enable: Optional[Set[str]] = None
    """If set, only these rule ids run."""
    disable: Set[str] = field(default_factory=set)

    alpha: float = 0.05
    """Significance level for the assumption tests (BP, JB)."""
    normality_small_n: int = 40
    """Below this sample size, non-normal residuals undermine t/p
    inference (the CLT has not kicked in); at or above it the rule
    stays quiet — HC3 inference is asymptotic anyway."""
    min_fold_rows: int = 5
    """Fewest held-out rows per CV fold before the fold statistics are
    too noisy to quote."""
    min_train_per_param: float = 3.0
    """Fewest training rows per model parameter a CV fold may fit on."""
    min_obs_per_param: float = 10.0
    """n/k below this rates a quoted R² ``minor`` (rule-of-thumb
    adequacy); below ``hard_obs_per_param`` it rates ``major``."""
    hard_obs_per_param: float = 3.0
    leverage_minor: float = 0.5
    """Hat-diagonal above this: one row dominates its own prediction."""
    leverage_major: float = 0.98
    """Hat-diagonal above this: the fit is pinned to the row; its
    residual is structurally ~0 and R² is partly self-fulfilling."""
    vif_threshold: float = 10.0
    """Mean-VIF escalation bound (Kutner/Hair, quoted in the paper)."""
    r2_suspicious: float = 0.999
    """R² at/above this is flagged as too good — duplicated rows,
    leakage, or an identity fit are the usual culprits."""
    r2_mape_high_r2: float = 0.95
    r2_mape_high_mape_pct: float = 20.0
    """R² ≥ ``r2_mape_high_r2`` with MAPE ≥ this disagree: the variance
    explained and the relative error tell different stories."""
    r2_mape_low_r2: float = 0.5
    r2_mape_low_mape_pct: float = 5.0
    """MAPE ≤ this with R² ≤ ``r2_mape_low_r2`` is the mirror-image
    disagreement (tiny relative error, no variance explained)."""
    fastfit_fallback_fraction: float = 0.5
    """Fast-path decline rate above this is an anomaly worth surfacing:
    the Gram kernels decline degraded or ill-conditioned fits, so a
    mostly-declined run is a data-quality signal, not a perf detail."""
    drift_degraded_fraction: float = 0.25
    """Online sessions serving more than this fraction of estimates
    from the baseline fallback are degraded."""
    fleet_degraded_minor_fraction: float = 0.05
    """Fleet services with more than this fraction of nodes quarantined
    or degraded grade minor (AU013)."""
    fleet_degraded_major_fraction: float = 0.20
    """Quarantined/degraded node fraction above this grades major; a
    fleet with no healthy node at all fails outright."""

    persistence_mode: str = "warn"
    """Default :func:`save_model` gate (``off``/``warn``/``strict``)."""

    # ------------------------------------------------------------------
    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.disable:
            return False
        if self.enable is not None:
            return rule_id in self.enable
        return True

    # ------------------------------------------------------------------
    @classmethod
    def from_pyproject(cls, pyproject: Optional[Path]) -> "AuditConfig":
        """Load ``[tool.repro.audit]`` (missing file/section → defaults)."""
        cfg = cls()
        if pyproject is None or not pyproject.is_file() or _toml is None:
            return cfg
        with pyproject.open("rb") as fh:
            data = _toml.load(fh)
        section = data.get("tool", {}).get("repro", {}).get("audit", {})
        if not isinstance(section, dict):
            return cfg
        if "enable" in section:
            cfg.enable = {str(r).upper() for r in section["enable"]}
        if "disable" in section:
            cfg.disable = {str(r).upper() for r in section["disable"]}
        for toml_key, attr, cast in (
            ("alpha", "alpha", float),
            ("normality-small-n", "normality_small_n", int),
            ("min-fold-rows", "min_fold_rows", int),
            ("min-train-per-param", "min_train_per_param", float),
            ("min-obs-per-param", "min_obs_per_param", float),
            ("hard-obs-per-param", "hard_obs_per_param", float),
            ("leverage-minor", "leverage_minor", float),
            ("leverage-major", "leverage_major", float),
            ("vif-threshold", "vif_threshold", float),
            ("r2-suspicious", "r2_suspicious", float),
            ("r2-mape-high-r2", "r2_mape_high_r2", float),
            ("r2-mape-high-mape-pct", "r2_mape_high_mape_pct", float),
            ("r2-mape-low-r2", "r2_mape_low_r2", float),
            ("r2-mape-low-mape-pct", "r2_mape_low_mape_pct", float),
            ("fastfit-fallback-fraction", "fastfit_fallback_fraction", float),
            ("drift-degraded-fraction", "drift_degraded_fraction", float),
            (
                "fleet-degraded-minor-fraction",
                "fleet_degraded_minor_fraction",
                float,
            ),
            (
                "fleet-degraded-major-fraction",
                "fleet_degraded_major_fraction",
                float,
            ),
        ):
            if toml_key in section:
                setattr(cfg, attr, cast(section[toml_key]))
        if "persistence-mode" in section:
            mode = str(section["persistence-mode"])
            if mode not in PERSISTENCE_MODES:
                raise ValueError(
                    f"persistence-mode must be one of {PERSISTENCE_MODES}, "
                    f"got {mode!r}"
                )
            cfg.persistence_mode = mode
        return cfg

    @classmethod
    def load(cls, start: Optional[Path] = None) -> "AuditConfig":
        """Config from the nearest pyproject at/above ``start`` (cwd)."""
        start = (start or Path.cwd()).resolve()
        for directory in (start, *start.parents):
            pyproject = directory / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls()
