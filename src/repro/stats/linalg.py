"""Small, numerically careful linear-algebra helpers.

The OLS fits in this package run inside the greedy counter-selection
loop (Algorithm 1), which performs ``O(#counters * #selected)`` fits per
selection — so the solver must be cheap, but it must also be robust to
the near-collinear design matrices that the multicollinearity analysis
(Section IV-A) deliberately provokes.  We therefore solve least squares
through a rank-revealing QR/pinv path instead of forming and inverting
the normal equations.

This module is the **only** place allowed to call the raw
``numpy.linalg`` solvers (``tests/test_source_invariants.py`` enforces
it): every other module goes through the guarded entry points here —
:func:`guarded_lstsq` for least squares with a deterministic
ridge/pinv fallback chain and a :class:`GuardedSolution` record of what
happened, :func:`safe_pinv`, and the Cholesky helpers of the fast-fit
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "add_constant",
    "safe_pinv",
    "as_2d",
    "guarded_lstsq",
    "try_cholesky",
    "triangular_solve",
    "GuardedSolution",
    "FitDiagnostics",
    "CONDITION_FALLBACK_THRESHOLD",
]

#: Column-scaled condition number above which the direct least-squares
#: solution is considered numerically untrustworthy and the guarded
#: solver switches to its ridge fallback.  Belsley's "serious
#: collinearity" starts around 30; 1e10 flags only designs where ~10 of
#: the 15–16 float64 digits are lost — genuine numerical degeneracy,
#: not the mild collinearity the VIF analysis studies.
CONDITION_FALLBACK_THRESHOLD = 1e10


@dataclass(frozen=True)
class GuardedSolution:
    """Outcome of :func:`guarded_lstsq`: coefficients plus provenance."""

    beta: np.ndarray
    rank: int
    n_params: int
    condition_number: float
    fallback: str
    """``"none"`` (direct SVD solve), ``"ridge"`` (deterministic Tikhonov
    refit) or ``"pinv"`` (pseudo-inverse last resort)."""
    warnings: Tuple[str, ...] = ()

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.n_params


@dataclass(frozen=True)
class FitDiagnostics:
    """Structured numerical diagnosis of a regression fit.

    Every fit produced by :func:`repro.stats.ols.fit_ols` or
    :func:`repro.stats.robust.fit_robust` carries one of these, so a
    caller (or a campaign report) can always answer "was this fit
    numerically clean, and if not, what did the solver do about it?".
    """

    method: str
    """``"ols"`` or ``"huber-irls"``."""
    condition_number: float
    """2-norm condition number of the design matrix."""
    rank: int
    n_params: int
    fallback: str = "none"
    """Which guarded-solver fallback produced the coefficients."""
    warnings: Tuple[str, ...] = ()
    n_iter: int = 0
    """IRLS iterations (0 for plain OLS)."""
    converged: bool = True

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.n_params

    @property
    def clean(self) -> bool:
        """No fallback, full rank, converged, nothing to warn about."""
        return (
            self.fallback == "none"
            and not self.rank_deficient
            and self.converged
            and not self.warnings
        )

    def summary(self) -> str:
        parts = [
            f"method={self.method}",
            f"cond={self.condition_number:.3g}",
            f"rank={self.rank}/{self.n_params}",
            f"fallback={self.fallback}",
        ]
        if self.n_iter:
            parts.append(
                f"iter={self.n_iter}"
                + ("" if self.converged else " (not converged)")
            )
        for w in self.warnings:
            parts.append(f"warning: {w}")
        return "; ".join(parts)


def as_2d(x: np.ndarray) -> np.ndarray:
    """Return ``x`` as a 2-D float array (columns are regressors).

    1-D input is promoted to a single-column matrix.  The data is
    converted to ``float64`` but not copied when already conforming,
    following the "views, not copies" guidance for numerical code.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D design data, got ndim={arr.ndim}")
    return arr


def add_constant(x: np.ndarray, prepend: bool = True) -> np.ndarray:
    """Append (or prepend) an intercept column of ones to ``x``.

    Mirrors ``statsmodels.api.add_constant`` which the paper's
    implementation used before every OLS fit.
    """
    arr = as_2d(x)
    const = np.ones((arr.shape[0], 1), dtype=np.float64)
    parts = (const, arr) if prepend else (arr, const)
    return np.hstack(parts)


def safe_pinv(matrix: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Moore–Penrose pseudo-inverse with a conservative cutoff.

    Used for the coefficient covariance ``(X'X)^+`` in the HC estimators
    where near-singular ``X'X`` matrices occur by construction in the
    VIF stress experiments.
    """
    return np.linalg.pinv(np.asarray(matrix, dtype=np.float64), rcond=rcond)


def try_cholesky(matrix: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of a symmetric matrix, or ``None``.

    The fast-fit kernels (DESIGN.md §12) use Cholesky factorizations of
    Gram matrices as their cheap O(k³) workhorse; a factorization
    failure (the matrix is not numerically positive definite — e.g. a
    Gram of perfectly collinear columns) is an *expected* outcome that
    routes the caller onto the exact slow path, so it is reported as
    ``None`` rather than an exception.  Non-finite input is likewise
    answered with ``None`` — LAPACK's behaviour on NaN is undefined.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        return None
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def triangular_solve(
    factor: np.ndarray, rhs: np.ndarray, *, trans: bool = False
) -> np.ndarray:
    """Solve ``L x = rhs`` (or ``Lᵀ x = rhs`` with ``trans=True``) for a
    lower-triangular ``factor``.

    Column-oriented forward (or, transposed, back) substitution in
    numpy, so the fast-fit kernels and the VIF need no scipy: their
    factors are k ≤ ~16 Cholesky factors, where the k-step loop costs
    a few microseconds more than one LAPACK call through scipy.
    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    Every step is elementwise per column, so identical columns produce
    bitwise-identical solutions (the tie-preservation contract of the
    selection fast path).  Results agree with LAPACK's ``trtrs`` to
    rounding, not bit for bit.
    """
    a = np.asarray(factor, dtype=np.float64)
    x = np.array(rhs, dtype=np.float64)
    k = a.shape[0] if a.ndim == 2 else -1
    if a.shape != (k, k) or x.ndim not in (1, 2) or x.shape[0] != k:
        raise ValueError(
            f"expected a square factor matching rhs rows, got {a.shape} "
            f"and {x.shape}"
        )
    cols = x if x.ndim == 2 else x[:, None]
    diag = np.diagonal(a)
    if trans:
        # Lᵀ = Ûᵀ D with Û = D⁻¹L unit lower: unit back substitution,
        # column j of Ûᵀ being row j of Û.
        unit = (a / diag[:, None]).T
        for j in range(k - 1, 0, -1):
            cols[:j] -= unit[:j, j : j + 1] * cols[j]
    else:
        # L = Û D with Û = L D⁻¹ unit lower: unit forward substitution.
        unit = a / diag
        for j in range(k - 1):
            cols[j + 1 :] -= unit[j + 1 :, j : j + 1] * cols[j]
    cols /= diag[:, None]
    return x


def guarded_lstsq(
    design: np.ndarray,
    target: np.ndarray,
    *,
    condition_threshold: float = CONDITION_FALLBACK_THRESHOLD,
    ridge_scale: float = 1e-10,
) -> GuardedSolution:
    """Least squares with rank/conditioning detection and a
    deterministic fallback chain.

    1. **Direct SVD solve** (LAPACK ``gelsd``) — used verbatim
       when the design has full rank and its column-scaled condition
       number stays below ``condition_threshold``.
    2. **Ridge fallback** — rank-deficient or severely ill-conditioned
       designs are re-solved as ``(X'X + λI)⁺ X'y`` with the
       deterministic ``λ = ridge_scale · trace(X'X)/k``, shrinking the
       unidentifiable directions to a unique, stable solution.
    3. **Pinv fallback** — if the SVD itself fails to converge (rare
       LAPACK pathology) or the ridge refit produces non-finite values,
       the Moore–Penrose pseudo-inverse of the design is the last
       resort.

    Every fallback is recorded in the returned :class:`GuardedSolution`
    so the caller can surface it instead of silently shipping a
    regularized fit.
    """
    x = as_2d(design)
    y = np.asarray(target, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"design has {x.shape[0]} rows but target has {y.shape[0]}"
        )
    k = x.shape[1]
    warnings: list = []

    try:
        beta, _res, rank, sv = np.linalg.lstsq(x, y, rcond=None)
        rank = int(rank)
        if sv.size and sv[-1] > 0.0:
            cond = float(sv[0] / sv[-1])
        else:
            cond = float("inf")
    except np.linalg.LinAlgError as exc:
        warnings.append(f"svd failed to converge ({exc}); pinv fallback")
        beta = safe_pinv(x) @ y
        return GuardedSolution(
            beta=beta,
            rank=0,
            n_params=k,
            condition_number=float("inf"),
            fallback="pinv",
            warnings=tuple(warnings),
        )

    if rank == k and cond <= condition_threshold:
        return GuardedSolution(
            beta=beta,
            rank=rank,
            n_params=k,
            condition_number=cond,
            fallback="none",
            warnings=(),
        )

    if rank < k:
        warnings.append(
            f"rank-deficient design (rank {rank} of {k}); ridge fallback"
        )
    else:
        warnings.append(
            f"ill-conditioned design (cond {cond:.3g} > "
            f"{condition_threshold:.3g}); ridge fallback"
        )
    gram = x.T @ x
    lam = ridge_scale * float(np.trace(gram)) / max(k, 1)
    if lam <= 0.0:
        lam = ridge_scale
    ridge_beta = safe_pinv(gram + lam * np.eye(k)) @ (x.T @ y)
    if np.all(np.isfinite(ridge_beta)):
        return GuardedSolution(
            beta=ridge_beta,
            rank=rank,
            n_params=k,
            condition_number=cond,
            fallback="ridge",
            warnings=tuple(warnings),
        )
    warnings.append("ridge fallback non-finite; pinv fallback")
    return GuardedSolution(
        beta=safe_pinv(x) @ y,
        rank=rank,
        n_params=k,
        condition_number=cond,
        fallback="pinv",
        warnings=tuple(warnings),
    )
