"""Regression diagnostics — heteroscedasticity and leverage.

The paper motivates HC3 standard errors with the observation that
power-model residuals are heteroscedastic ("the absolute error grows
with increasing power values", Section IV-B).  The Breusch–Pagan test
lets the pipeline *demonstrate* that claim on the simulated data rather
than assert it.  Both functions here are the measurement substrate of
the :mod:`repro.audit` rules AU002 and AU005; they are pure and
artifact-free so the audit layer stays a thin rule pass.

Degenerate-input contract
-------------------------
Every diagnostic validates its inputs up front and fails with the
typed :mod:`repro.stats.errors` taxonomy — never by silently returning
NaN (the historical failure mode on constant residual vectors and
``n ≤ k+2`` samples) and never with a bare ``LinAlgError``:

* NaN/Inf anywhere → :class:`~repro.stats.errors.NonFiniteInputError`;
* constant residuals (a numerically perfect or collapsed fit) →
  :class:`~repro.stats.errors.DegenerateResidualsError`;
* too few observations for the statistic →
  :class:`~repro.stats.errors.UnderdeterminedFitError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.errors import (
    DegenerateResidualsError,
    NonFiniteInputError,
    UnderdeterminedFitError,
)
from repro.stats.linalg import as_2d, safe_pinv
from repro.stats.ols import fit_ols

__all__ = [
    "HeteroscedasticityTest",
    "breusch_pagan",
    "leverage_scores",
]


def _validated_residuals(
    resid: np.ndarray, *, name: str, min_n: int = 3
) -> np.ndarray:
    """Shared degenerate-input screen for residual-based diagnostics."""
    r = np.asarray(resid, dtype=np.float64).ravel()
    if r.size < min_n:
        raise UnderdeterminedFitError(
            f"{name} needs at least {min_n} residuals, got {r.size}"
        )
    n_bad = int(np.count_nonzero(~np.isfinite(r)))
    if n_bad:
        raise NonFiniteInputError(
            f"{name}: residual vector contains {n_bad} non-finite "
            "value(s); drop or impute the degraded rows before testing"
        )
    if np.allclose(r, r[0]):
        raise DegenerateResidualsError(
            f"{name}: residuals are constant (zero variance) — a "
            "numerically perfect or collapsed fit carries no "
            "distributional information to test"
        )
    return r


def _validated_exog(exog: np.ndarray, *, name: str) -> np.ndarray:
    x = as_2d(exog)
    n_bad = int(np.count_nonzero(~np.isfinite(x)))
    if n_bad:
        raise NonFiniteInputError(
            f"{name}: exog contains {n_bad} non-finite value(s); drop "
            "or impute the degraded rows first"
        )
    return x


# --------------------------------------------------------------------------
# heteroscedasticity


@dataclass(frozen=True)
class HeteroscedasticityTest:
    """LM-statistic test result; ``pvalue < alpha`` rejects
    homoscedasticity."""

    statistic: float
    pvalue: float
    df: int
    name: str

    def rejects_homoscedasticity(self, alpha: float = 0.05) -> bool:
        return self.pvalue < alpha


def breusch_pagan(resid: np.ndarray, exog: np.ndarray) -> HeteroscedasticityTest:
    """Breusch–Pagan LM test against variance linear in the regressors.

    Auxiliary regression of u² on ``exog``: LM = n·R²_aux,
    asymptotically χ²(df) under the null.
    """
    name = "breusch-pagan"
    aux = _validated_exog(exog, name=name)
    df = aux.shape[1]
    # The auxiliary fit adds an intercept: u² needs n > df + 2 rows to
    # leave residual degrees of freedom for the R²_aux to mean anything
    # (n ≤ k+2 used to slip through and yield a vacuous LM = 0).
    u = _validated_residuals(resid, name=name, min_n=df + 3)
    if u.shape[0] != aux.shape[0]:
        raise ValueError(
            f"{name}: {u.shape[0]} residuals but {aux.shape[0]} exog rows"
        )
    u2 = u**2
    res = fit_ols(u2, aux, cov_type="nonrobust")
    n = u2.shape[0]
    lm = n * max(res.rsquared, 0.0)
    from scipy import stats as _scipy_stats

    pvalue = float(_scipy_stats.chi2.sf(lm, df))
    return HeteroscedasticityTest(statistic=float(lm), pvalue=pvalue, df=df, name=name)


# --------------------------------------------------------------------------
# leverage


def leverage_scores(exog: np.ndarray) -> np.ndarray:
    """Hat-matrix diagonal ``h_ii`` of a design matrix.

    ``h_ii = x_i' (X'X)⁺ x_i``, computed without materializing the hat
    matrix.  A row with ``h_ii`` near 1 pins the fit to itself — its
    residual is forced toward zero regardless of the data, so R² quoted
    on such a design overstates what the model learned.
    """
    x = _validated_exog(exog, name="leverage")
    if x.shape[0] < x.shape[1]:
        raise UnderdeterminedFitError(
            f"leverage needs n ≥ k, got {x.shape[0]} rows for "
            f"{x.shape[1]} columns"
        )
    xtx_inv = safe_pinv(x.T @ x)
    h = np.einsum("ij,jk,ik->i", x, xtx_inv, x)
    return np.clip(h, 0.0, 1.0)
