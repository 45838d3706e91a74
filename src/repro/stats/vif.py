"""Variance Inflation Factor (VIF) — the paper's stability metric.

Section III-B: "The VIF for a particular PMC event is calculated using
an ordinary least squares based linear regression model, which predicts
this variable using the other variables.  A lower mean VIF for a chosen
set of PMC events ensures the stability of the coefficients […] A VIF
of 1 indicates no correlation […] while a VIF value greater than 10
generally indicates multicollinearity problems."

``VIF_j = 1 / (1 - R²_j)`` where ``R²_j`` is from regressing column
``j`` on the remaining columns (with intercept).  Since every such
regression runs on standardized data, all ``k`` VIFs are the diagonal
of the *inverse of the pairwise correlation matrix* — so instead of one
OLS fit per column (the pre-fastfit implementation), this module builds
the correlation matrix once and reads every VIF off a single Cholesky
factorization (DESIGN.md §12).  A correlation matrix that is not
numerically positive definite (perfect collinearity) degrades
per-column to the minimum-norm pseudo-inverse quadratic form
``R²_j = r_jᵀ S⁺ r_j``, which reproduces the OLS ``R²`` exactly because
``r_j`` lies in the range of the sub-correlation ``S``.

Infinity convention
-------------------
A *perfectly* collinear column (``R²_j == 1`` to within float64) has an
infinite VIF, and these functions report it as exactly ``float("inf")``
— not a large finite sentinel, not a ``ZeroDivisionError``, and never a
runtime warning.  ``inf`` propagates correctly through comparisons
(``inf > 10`` is true, so threshold checks flag it), and ``mean_vif``
of a set containing one degenerate column is ``inf`` (the set *is*
unusable).
"""

from __future__ import annotations

import numpy as np

from repro.stats.correlation import correlation_matrix
from repro.stats.errors import NonFiniteInputError
from repro.stats.linalg import as_2d, safe_pinv, triangular_solve, try_cholesky

__all__ = [
    "mean_vif",
    "vifs_from_correlation",
    "VIF_PROBLEM_THRESHOLD",
]

#: Conventional threshold above which multicollinearity is considered a
#: problem (Kutner 2004; Hair 2010), cited as such in the paper.
VIF_PROBLEM_THRESHOLD = 10.0

#: R² this close to 1 means the column is an exact linear combination of
#: the others at float64 resolution; the VIF is reported as ``inf``.
_PERFECT_R2 = 1.0 - 1e-14

#: ``1/(1-R²)`` at the perfect-collinearity cutoff: a diagonal entry of
#: the inverse correlation matrix at or above this reads as ``inf``.
_VIF_INF = 1.0 / (1.0 - _PERFECT_R2)


def nonfinite_exog_error(n_bad: int) -> NonFiniteInputError:
    """The typed error raised for NaN/Inf regressor matrices.

    Shared with the fast-fit Gram cache so both paths raise the same
    message for the same degraded input.
    """
    return NonFiniteInputError(
        f"exog contains {n_bad} non-finite value(s); drop or impute the "
        "degraded rows before computing VIFs"
    )


def constant_column_mask(x: np.ndarray) -> np.ndarray:
    """Boolean mask of columns with (numerically) no variance.

    A constant column carries no variance to inflate — its VIF is 1.0
    by convention, and it is excluded from everyone else's regressors
    (it is indistinguishable from the intercept).
    """
    arr = as_2d(x)
    return np.array(
        [bool(np.allclose(arr[:, j], arr[0, j])) for j in range(arr.shape[1])]
    )


def vifs_from_correlation(corr: np.ndarray) -> np.ndarray:
    """Per-column VIFs from a pairwise correlation matrix.

    ``VIF_j = [R⁻¹]_jj``: one Cholesky factorization answers every
    column at once.  When ``R`` is not numerically positive definite
    (perfectly collinear columns), each column degrades to the
    pseudo-inverse quadratic form ``R²_j = r_jᵀ S⁺ r_j`` over the other
    columns' sub-correlation ``S`` — the minimum-norm solution whose
    ``R²`` equals the OLS value because ``r_j ∈ range(S)``.
    """
    r = np.asarray(corr, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square correlation matrix, got {r.shape}")
    k = r.shape[0]
    if k < 2:
        return np.ones(k)
    factor = try_cholesky(r)
    if factor is not None:
        inv_factor = triangular_solve(factor, np.eye(k))
        diag = np.einsum("ij,ij->j", inv_factor, inv_factor)
        if np.all(np.isfinite(diag)):
            return np.where(diag >= _VIF_INF, np.inf, diag)
    vifs = np.empty(k)
    idx = np.arange(k)
    for j in range(k):
        others = idx[idx != j]
        sub = r[np.ix_(others, others)]
        r_j = r[others, j]
        r2 = min(float(r_j @ (safe_pinv(sub) @ r_j)), 1.0)
        vifs[j] = np.inf if r2 >= _PERFECT_R2 else 1.0 / (1.0 - r2)
    return vifs


def mean_vif(exog: np.ndarray) -> float:
    """Mean VIF over all columns — the stability score of Table I/IV.

    For a single column (first selection step) the paper reports "n/a";
    we return ``nan`` so callers can render it that way.  A constant
    column counts as VIF 1.0 and is left out of the other columns'
    regressors; the rest are read off one shared correlation-matrix
    factorization.  If any column is perfectly collinear the mean is
    ``inf`` — the set as a whole has unidentifiable coefficients, which
    is exactly what an infinite stability score should say.
    """
    x = as_2d(exog)
    k = x.shape[1]
    if k < 2:
        return float("nan")
    n_bad = int(np.count_nonzero(~np.isfinite(x)))
    if n_bad:
        raise nonfinite_exog_error(n_bad)
    vifs = np.ones(k)
    active = np.flatnonzero(~constant_column_mask(x))
    if active.size >= 2:
        vifs[active] = vifs_from_correlation(correlation_matrix(x[:, active]))
    return float(np.mean(vifs))
