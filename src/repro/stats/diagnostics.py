"""Regression diagnostics — distributional tests and conditioning.

The paper motivates HC3 standard errors with the observation that
power-model residuals are heteroscedastic ("the absolute error grows
with increasing power values", Section IV-B).  These tests let the
pipeline *demonstrate* that claim on the simulated data rather than
assert it, and they are the measurement substrate of the
:mod:`repro.audit` rule catalogue — every function here is pure and
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
    "NormalityTest",
    "breusch_pagan",
    "white_test",
    "condition_number",
    "jarque_bera",
    "dagostino_k2",
    "residual_normality",
    "leverage_scores",
    "max_leverage",
]

#: Fewest observations D'Agostino's K² is defined for (the kurtosis
#: component needs n ≥ 8; scipy enforces the same bound).
DAGOSTINO_MIN_N = 8


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


def _lm_test(resid: np.ndarray, aux_exog: np.ndarray, name: str) -> HeteroscedasticityTest:
    """Auxiliary-regression LM test: regress u² on ``aux_exog``.

    LM = n·R²_aux, asymptotically χ²(df) under the null.
    """
    aux = _validated_exog(aux_exog, name=name)
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


def breusch_pagan(resid: np.ndarray, exog: np.ndarray) -> HeteroscedasticityTest:
    """Breusch–Pagan LM test against variance linear in the regressors."""
    return _lm_test(resid, exog, "breusch-pagan")


def white_test(resid: np.ndarray, exog: np.ndarray) -> HeteroscedasticityTest:
    """White's test: auxiliary regression on levels, squares and
    pairwise cross products of the regressors (no intercept column —
    ``fit_ols`` adds one)."""
    x = _validated_exog(exog, name="white")
    n, k = x.shape
    cols = [x]
    cols.append(x**2)
    for i in range(k):
        for j in range(i + 1, k):
            cols.append((x[:, i] * x[:, j])[:, np.newaxis])
    aux = np.hstack(cols)
    # Drop duplicate/constant columns that would make the auxiliary
    # design singular (e.g. squaring a 0/1 dummy reproduces it).
    keep = []
    seen = []
    for c in range(aux.shape[1]):
        col = aux[:, c]
        if np.allclose(col, col[0]):
            continue
        if any(np.allclose(col, s) for s in seen):
            continue
        seen.append(col)
        keep.append(c)
    if not keep:
        raise DegenerateResidualsError(
            "white: every auxiliary regressor is constant or duplicated; "
            "the design carries no variance to explain u²"
        )
    aux = aux[:, keep]
    return _lm_test(resid, aux, "white")


# --------------------------------------------------------------------------
# residual normality


@dataclass(frozen=True)
class NormalityTest:
    """Normality test result; ``pvalue < alpha`` rejects normality."""

    statistic: float
    pvalue: float
    skewness: float
    excess_kurtosis: float
    n: int
    name: str

    def rejects_normality(self, alpha: float = 0.05) -> bool:
        return self.pvalue < alpha


def _moments(r: np.ndarray) -> tuple:
    c = r - r.mean()
    m2 = float(np.mean(c**2))
    skew = float(np.mean(c**3) / m2**1.5)
    kurt = float(np.mean(c**4) / m2**2)
    return skew, kurt


def jarque_bera(resid: np.ndarray) -> NormalityTest:
    """Jarque–Bera normality test on a residual vector.

    ``JB = n/6 · (S² + (K−3)²/4)``, asymptotically χ²(2) under
    normality.  The audit layer runs it before trusting t/p statistics
    on small samples, where the CLT cannot yet rescue non-normal
    errors.
    """
    r = _validated_residuals(resid, name="jarque-bera", min_n=4)
    n = r.shape[0]
    skew, kurt = _moments(r)
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    from scipy import stats as _scipy_stats

    pvalue = float(_scipy_stats.chi2.sf(jb, 2))
    return NormalityTest(
        statistic=float(jb),
        pvalue=pvalue,
        skewness=skew,
        excess_kurtosis=kurt - 3.0,
        n=n,
        name="jarque-bera",
    )


def dagostino_k2(resid: np.ndarray) -> NormalityTest:
    """D'Agostino–Pearson K² omnibus normality test.

    Combines z-transformed skewness and kurtosis; better calibrated
    than Jarque–Bera at moderate n, defined only for
    ``n >= DAGOSTINO_MIN_N`` (8).
    """
    r = _validated_residuals(resid, name="dagostino-k2", min_n=DAGOSTINO_MIN_N)
    from scipy import stats as _scipy_stats

    stat, pvalue = _scipy_stats.normaltest(r)
    skew, kurt = _moments(r)
    return NormalityTest(
        statistic=float(stat),
        pvalue=float(pvalue),
        skewness=skew,
        excess_kurtosis=kurt - 3.0,
        n=r.shape[0],
        name="dagostino-k2",
    )


def residual_normality(resid: np.ndarray, method: str = "jarque-bera") -> NormalityTest:
    """Dispatch to a registered normality test by name."""
    tests = {"jarque-bera": jarque_bera, "dagostino-k2": dagostino_k2}
    if method not in tests:
        raise ValueError(
            f"method must be one of {sorted(tests)}, got {method!r}"
        )
    return tests[method](resid)


# --------------------------------------------------------------------------
# design conditioning and leverage


def condition_number(exog: np.ndarray) -> float:
    """2-norm condition number of the (column-scaled) design matrix.

    Columns are scaled to unit Euclidean norm first, the standard
    pre-treatment for collinearity diagnosis (Belsley).  Large values
    (≫ 30) signal the same instability the mean VIF flags.
    """
    x = _validated_exog(exog, name="condition-number")
    norms = np.linalg.norm(x, axis=0)
    norms[norms == 0.0] = 1.0  # exact-zero guard: null column
    scaled = x / norms
    sv = np.linalg.svd(scaled, compute_uv=False)
    smallest = sv[-1]
    if smallest <= 0.0:
        return float("inf")
    return float(sv[0] / smallest)


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


def max_leverage(exog: np.ndarray) -> float:
    """Largest hat-matrix diagonal of the design."""
    return float(leverage_scores(exog).max())
