"""Ordinary least squares with heteroscedasticity-consistent errors.

This module stands in for ``statsmodels.api.OLS`` which the paper used
for model formulation (Section III-C).  It provides:

* coefficient estimates via a rank-revealing least-squares solve,
* :math:`R^2` and adjusted :math:`R^2` (Table I / Fig. 2),
* the HC0–HC3 family of heteroscedasticity-consistent covariance
  estimators — the paper selects **HC3** following Long & Ervin (2000),
* t statistics, two-sided p values and confidence intervals derived
  from the chosen covariance.

Only dense numpy arrays are supported; that is all the pipeline needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.stats.errors import (
    NonFiniteInputError,
    UnderdeterminedFitError,
)
from repro.stats.linalg import (
    FitDiagnostics,
    add_constant,
    as_2d,
    guarded_lstsq,
    safe_pinv,
)

__all__ = ["OLSResult", "fit_ols"]

_HC_KINDS = ("HC0", "HC1", "HC2", "HC3", "nonrobust")


@dataclass(frozen=True)
class OLSResult:
    """Immutable result of an OLS fit.

    Attributes mirror the ``statsmodels`` result object closely enough
    that the modeling code reads like the paper's description.
    """

    params: np.ndarray
    """Coefficient vector, intercept first when ``intercept=True``."""

    bse: np.ndarray
    """Standard errors of the coefficients under ``cov_type``."""

    cov_params: np.ndarray
    """Coefficient covariance matrix under ``cov_type``."""

    rsquared: float
    rsquared_adj: float
    nobs: int
    df_model: int
    df_resid: int
    cov_type: str
    fitted_values: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    exog_names: Tuple[str, ...] = ()
    has_intercept: bool = True
    diagnostics: Optional[FitDiagnostics] = field(default=None, repr=False)
    """Numerical provenance of the fit (conditioning, rank, fallback);
    always populated by :func:`fit_ols` / ``fit_robust``."""

    # ------------------------------------------------------------------
    # Inference helpers
    # ------------------------------------------------------------------
    @property
    def tvalues(self) -> np.ndarray:
        """t statistics of the coefficients (coef / robust SE)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.bse > 0, self.params / self.bse, np.inf)

    @property
    def pvalues(self) -> np.ndarray:
        """Two-sided p values from a Student-t with ``df_resid`` dof."""
        from scipy import stats as _scipy_stats

        dof = max(self.df_resid, 1)
        return 2.0 * _scipy_stats.t.sf(np.abs(self.tvalues), dof)

    def conf_int(self, alpha: float = 0.05) -> np.ndarray:
        """Confidence intervals ``(k, 2)`` at level ``1 - alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        from scipy import stats as _scipy_stats

        dof = max(self.df_resid, 1)
        q = _scipy_stats.t.ppf(1.0 - alpha / 2.0, dof)
        half = q * self.bse
        return np.column_stack([self.params - half, self.params + half])

    def predict(self, exog: np.ndarray) -> np.ndarray:
        """Predict the dependent variable for new regressors.

        ``exog`` must have the same columns used at fit time,
        *excluding* the intercept column — it is re-added automatically
        when the model was fit with one.
        """
        x = as_2d(exog)
        if self.has_intercept:
            x = add_constant(x)
        if x.shape[1] != self.params.shape[0]:
            raise ValueError(
                f"exog has {x.shape[1]} columns (incl. intercept) but the "
                f"model was fit with {self.params.shape[0]}"
            )
        return x @ self.params

    def summary(self) -> str:
        """Plain-text coefficient table in the spirit of statsmodels."""
        names = self.exog_names or tuple(
            f"x{i}" for i in range(self.params.shape[0])
        )
        ci = self.conf_int()
        lines = [
            f"OLS ({self.cov_type})  nobs={self.nobs}  "
            f"R2={self.rsquared:.4f}  Adj.R2={self.rsquared_adj:.4f}",
            f"{'term':<18}{'coef':>14}{'std err':>12}{'t':>10}"
            f"{'P>|t|':>10}{'[0.025':>12}{'0.975]':>12}",
        ]
        for i, name in enumerate(names):
            lines.append(
                f"{name:<18}{self.params[i]:>14.6g}{self.bse[i]:>12.4g}"
                f"{self.tvalues[i]:>10.3f}{self.pvalues[i]:>10.3g}"
                f"{ci[i, 0]:>12.4g}{ci[i, 1]:>12.4g}"
            )
        return "\n".join(lines)


def _hc_covariance(
    design: np.ndarray,
    residuals: np.ndarray,
    xtx_inv: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Sandwich covariance ``(X'X)^+ X' diag(w) X (X'X)^+``.

    The weights ``w`` distinguish the HC variants; HC3 divides the
    squared residuals by ``(1 - h_ii)^2`` which Long & Ervin recommend
    for small samples and which the paper adopts.
    """
    n, k = design.shape
    u2 = residuals**2
    if kind == "HC0":
        w = u2
    elif kind == "HC1":
        dof = max(n - k, 1)
        w = u2 * (n / dof)
    else:
        # Leverage h_ii = diag(X (X'X)^+ X'), computed without forming
        # the full hat matrix: h_ii = sum_j (X @ (X'X)^+)_ij * X_ij.
        h = np.einsum("ij,ij->i", design @ xtx_inv, design)
        h = np.clip(h, 0.0, 1.0 - 1e-10)
        if kind == "HC2":
            w = u2 / (1.0 - h)
        elif kind == "HC3":
            w = u2 / (1.0 - h) ** 2
        else:  # pragma: no cover - guarded by caller
            raise ValueError(f"unknown HC kind {kind!r}")
    meat = (design * w[:, np.newaxis]).T @ design
    return xtx_inv @ meat @ xtx_inv


def _validate_fit_inputs(
    endog: np.ndarray, exog: np.ndarray, cov_type: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared input validation for ``fit_ols`` / ``fit_robust``.

    Raises the typed errors of :mod:`repro.stats.errors` — degraded
    datasets must fail actionably, never with a downstream
    ``LinAlgError``.
    """
    if cov_type not in _HC_KINDS:
        raise ValueError(f"cov_type must be one of {_HC_KINDS}, got {cov_type!r}")
    y = np.asarray(endog, dtype=np.float64).ravel()
    x_raw = as_2d(exog)
    if y.shape[0] != x_raw.shape[0]:
        raise ValueError(
            f"endog has {y.shape[0]} rows but exog has {x_raw.shape[0]}"
        )
    if y.shape[0] == 0:
        raise ValueError("cannot fit OLS on an empty sample")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x_raw))):
        bad_y = int(np.count_nonzero(~np.isfinite(y)))
        bad_x = int(np.count_nonzero(~np.isfinite(x_raw)))
        raise NonFiniteInputError(
            "endog/exog contain non-finite values "
            f"({bad_y} in endog, {bad_x} in exog); drop or impute the "
            "degraded rows before fitting"
        )
    return y, x_raw


def _resolve_names(
    exog_names: Optional[Sequence[str]], n_regressors: int, intercept: bool
) -> Tuple[str, ...]:
    """Reporting names for the coefficient vector, intercept first."""
    if exog_names is not None:
        base = tuple(str(n_) for n_ in exog_names)
        if len(base) != n_regressors:
            raise ValueError(
                f"{len(base)} names supplied for {n_regressors} regressors"
            )
    else:
        base = tuple(f"x{i}" for i in range(n_regressors))
    return (("const",) + base) if intercept else base


def _design_has_constant(design: np.ndarray, intercept: bool) -> bool:
    """statsmodels' k_constant detection (Equation 1 carries its
    constant as the delta*Z term)."""
    return intercept or any(
        np.ptp(design[:, j]) == 0.0 and design[0, j] != 0.0  # k_constant detection needs exact zeros
        for j in range(design.shape[1])
    )


def fit_ols(
    endog: np.ndarray,
    exog: np.ndarray,
    *,
    intercept: bool = True,
    cov_type: str = "HC3",
    exog_names: Optional[Sequence[str]] = None,
) -> OLSResult:
    """Fit ordinary least squares of ``endog`` on ``exog``.

    Parameters
    ----------
    endog:
        Dependent variable, shape ``(n,)`` — total power in the paper.
    exog:
        Regressor matrix ``(n, k)`` *without* the intercept column.
    intercept:
        Whether to prepend an intercept (default true, as statsmodels'
        ``add_constant`` idiom).
    cov_type:
        One of ``HC0``–``HC3`` or ``nonrobust``.  The paper uses HC3.
    exog_names:
        Optional names for reporting; the intercept is named ``const``.

    Returns
    -------
    OLSResult
        Including a :class:`~repro.stats.linalg.FitDiagnostics` record:
        rank-deficient or severely ill-conditioned designs do not raise
        — they take the guarded solver's deterministic ridge/pinv
        fallback chain, and the diagnostics say so.

    Raises
    ------
    NonFiniteInputError
        If endog/exog carry NaN or Inf.
    UnderdeterminedFitError
        If there are fewer observations than parameters.
    """
    y, x_raw = _validate_fit_inputs(endog, exog, cov_type)

    design = add_constant(x_raw) if intercept else x_raw
    n, k = design.shape
    if n < k:
        raise UnderdeterminedFitError(
            f"underdetermined fit: {n} observations for {k} parameters; "
            "shrink the model or gather more rows"
        )

    solution = guarded_lstsq(design, y)
    beta = solution.beta
    diagnostics = FitDiagnostics(
        method="ols",
        condition_number=solution.condition_number,
        rank=solution.rank,
        n_params=solution.n_params,
        fallback=solution.fallback,
        warnings=solution.warnings,
    )
    fitted = design @ beta
    resid = y - fitted

    # R^2 is centered when the model contains a constant — either the
    # prepended intercept or an explicit constant column in the design.
    has_constant = _design_has_constant(design, intercept)
    ss_res = float(resid @ resid)
    if has_constant:
        centered = y - y.mean()
        ss_tot = float(centered @ centered)
    else:
        ss_tot = float(y @ y)
    rsquared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    df_model = k - (1 if has_constant else 0)
    df_resid = n - k
    if df_resid > 0 and ss_tot > 0:
        rsquared_adj = (
            1.0 - (1.0 - rsquared) * (n - (1 if has_constant else 0)) / df_resid
        )
    else:
        rsquared_adj = rsquared

    xtx_inv = safe_pinv(design.T @ design)
    if cov_type == "nonrobust":
        sigma2 = ss_res / max(df_resid, 1)
        cov = xtx_inv * sigma2
    else:
        cov = _hc_covariance(design, resid, xtx_inv, cov_type)
    bse = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    names = _resolve_names(exog_names, x_raw.shape[1], intercept)

    return OLSResult(
        params=beta,
        bse=bse,
        cov_params=cov,
        rsquared=rsquared,
        rsquared_adj=rsquared_adj,
        nobs=n,
        df_model=df_model,
        df_resid=df_resid,
        cov_type=cov_type,
        fitted_values=fitted,
        residuals=resid,
        exog_names=names,
        has_intercept=intercept,
        diagnostics=diagnostics,
    )
