"""Statistics substrate for the power-modeling reproduction.

This subpackage replaces the external dependencies the paper relied on
(``statsmodels`` for OLS with heteroscedasticity-consistent standard
errors, ``scipy.stats.pearsonr`` usage patterns, and scikit-learn style
cross validation) with self-contained, numpy-based implementations.

The public surface is intentionally small and mirrors the statistical
vocabulary of the paper:

* :func:`~repro.stats.ols.fit_ols` / :class:`~repro.stats.ols.OLSResult`
  — ordinary least squares with :math:`R^2`, adjusted :math:`R^2`, and
  HC0–HC3 covariance estimators (the paper uses HC3).
* :func:`~repro.stats.vif.mean_vif` — multicollinearity quantification.
* :func:`~repro.stats.correlation.pearson` — the PCC of Section V.
* :class:`~repro.stats.crossval.KFold` — the folds of the 10-fold CV of
  Section IV-B.
* :mod:`~repro.stats.metrics` — MAPE, out-of-sample :math:`R^2`, bias.
* :mod:`~repro.stats.diagnostics` — the Breusch–Pagan test used to
  justify the HCSE estimator, and leverage scores.
"""

from repro.stats.correlation import (
    correlation_matrix,
    pearson,
    pearson_with_target,
)
from repro.stats.crossval import KFold
from repro.stats.diagnostics import (
    HeteroscedasticityTest,
    breusch_pagan,
    leverage_scores,
)
from repro.stats.fastfit import FoldGramSolver, GramCache
from repro.stats.errors import (
    DegenerateResidualsError,
    EstimationError,
    NonFiniteInputError,
    RobustFitError,
    UnderdeterminedFitError,
)
from repro.stats.linalg import (
    CONDITION_FALLBACK_THRESHOLD,
    FitDiagnostics,
    GuardedSolution,
    add_constant,
    guarded_lstsq,
    safe_pinv,
)
from repro.stats.metrics import bias, mape, r2_score
from repro.stats.ols import OLSResult, fit_ols
from repro.stats.robust import HUBER_C, fit_robust, huber_weights
from repro.stats.selection_criteria import (
    CRITERIA,
    aic,
    bic,
    criterion_value,
)
from repro.stats.vif import mean_vif, vifs_from_correlation

__all__ = [
    "OLSResult",
    "fit_ols",
    "fit_robust",
    "huber_weights",
    "HUBER_C",
    "FitDiagnostics",
    "GuardedSolution",
    "guarded_lstsq",
    "CONDITION_FALLBACK_THRESHOLD",
    "EstimationError",
    "NonFiniteInputError",
    "UnderdeterminedFitError",
    "DegenerateResidualsError",
    "RobustFitError",
    "mean_vif",
    "vifs_from_correlation",
    "GramCache",
    "FoldGramSolver",
    "pearson",
    "pearson_with_target",
    "correlation_matrix",
    "KFold",
    "mape",
    "r2_score",
    "bias",
    "breusch_pagan",
    "HeteroscedasticityTest",
    "leverage_scores",
    "add_constant",
    "safe_pinv",
    "aic",
    "bic",
    "criterion_value",
    "CRITERIA",
]
