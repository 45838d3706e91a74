"""Gram-cache fast-fit kernels (DESIGN.md §12).

Algorithm 1 re-fits Equation 1 from scratch for every candidate at
every greedy step, and the 10-fold CV re-fits it per fold — hundreds of
tiny OLS solves over overlapping column sets of one design matrix.  The
sufficient statistics ``XᵀX``, ``Xᵀy`` and ``yᵀy`` of the *full*
candidate design determine every one of those fits, so this module
computes them once and answers each fit by slicing and rank-updating
the cached Gram matrix:

* :class:`GramCache` — one cache per ``(dataset, candidate pool)``.
  :meth:`GramCache.score_candidates` evaluates "selected ∪ {candidate}"
  for *all* remaining candidates of a greedy step in a handful of
  batched calls: one Cholesky factorization of the selected-set Gram,
  batched triangular solves for the bordered
  updates, and one residual pass.  :meth:`GramCache.mean_vif` answers
  the per-step VIF from memoized pairwise correlations and the shared
  correlation-matrix inversion of :mod:`repro.stats.vif`.
* :class:`FoldGramSolver` — k-fold CV from sufficient statistics: each
  fold's train Gram is ``total − fold`` (one small rank-``|fold|``
  downdate instead of an O(n·k²) refit), and only the final residual /
  prediction passes touch raw rows.

Numerical contract (the tests verify it against the exact path, reached
by declining every fit): the selected counter sequence and every step
warning are identical to the slow path, and R²/VIF/MAPE agree within
1e-9 relative tolerance.  Solving through a Gram matrix squares the design's
condition number, so that contract is *not* taken on faith — it is
engineered and then certified per fit:

1. **Column-equilibrated Cholesky + one refinement step.**  The solve
   runs on the norm-scaled Gram ``Ĝ = D⁻¹GD⁻¹`` (``D`` = column
   norms), whose conditioning is as good as diagonal scaling can make
   it, followed by one step of iterative refinement through the same
   factorization — contracting the coefficient error by another
   ``O(eps·κ(Ĝ))`` factor.
2. **Residual-pass sums of squares.**  ``ss_res`` is *never* read off
   the sufficient statistics (``yᵀy − ‖u‖²`` loses ``eps·κ`` digits to
   cancellation); one O(n·k) pass computes ``‖y − Xβ‖²`` from raw
   rows, which is *second-order* accurate: the exact minimizer ``β*``
   zeroes the gradient, so ``ss(β) − ss(β*) = ‖X(β−β*)‖²``.
3. **A-posteriori certificate.**  That excess is then measured, not
   bounded: with the normal-equation residual ``g = Xᵀy − Gβ``, the
   excess equals ``gᵀG⁻¹g``, evaluated through the cached factor.
   A fit is only answered fast when the certified excess is below
   ``1e-10·ss_res`` — an order of magnitude inside the contract.
4. **Conservative eligibility.**  Everything else — non-finite
   columns, zero norms, underdetermined trials, Cholesky breakdown,
   tiny bordered pivots, an unverifiable scaled condition, or a
   certified design condition near the slow path's ridge threshold
   (:data:`DESIGN_CONDITION_MAX`, one decade under
   :data:`~repro.stats.linalg.CONDITION_FALLBACK_THRESHOLD`) — is
   answered ``None`` and the caller re-runs it through the exact slow
   path (``guarded_lstsq`` and its SVD → ridge → pinv chain),
   preserving the robust-estimation guarantees unchanged.  The
   condition bounds use ``λmax(G) ≤ trace(G)`` and
   ``λmin(G) ≥ 1/trace(G⁻¹)`` with ``diag(G⁻¹)`` read off the bordered
   factorization — tight to a factor ``k``, so real designs are not
   spuriously rejected.

Determinism: the kernels are pure serial numpy and every batched
operation is column-separable, so bitwise-identical input columns
(duplicate counters) produce bitwise-identical scores and the
exact-tie warnings of the selection reduce are preserved verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.correlation import pearson
from repro.stats.linalg import as_2d, triangular_solve, try_cholesky
from repro.stats.ols import _design_has_constant
from repro.stats.selection_criteria import CRITERIA
from repro.stats.vif import (
    nonfinite_exog_error,
    vifs_from_correlation,
)

__all__ = [
    "DESIGN_CONDITION_MAX",
    "SCALED_CONDITION_MAX",
    "CandidateScore",
    "FastFoldFit",
    "FoldGramSolver",
    "GramCache",
]

#: Certified upper bound on the *design* condition number above which
#: the fast path declines a fit.  The slow path switches to its ridge
#: fallback at ``cond > 1e10``
#: (:data:`repro.stats.linalg.CONDITION_FALLBACK_THRESHOLD`) and a
#: ridge-regularized score is not ours to reproduce — one decade of
#: margin guarantees a fast-scored fit is one the slow path solves
#: directly.
DESIGN_CONDITION_MAX = 1e9

#: Upper bound on the condition number of the *scaled* Gram ``Ĝ``
#: (via ``trace(Ĝ)·trace(Ĝ⁻¹)``) above which the Cholesky factor is
#: too degraded to trust: refinement still has to contract
#: (``eps·κ(Ĝ) ≪ 1``) and the excess certificate is evaluated through
#: that same factor.
SCALED_CONDITION_MAX = 1e14

#: Tighter scaled-condition ceiling for the CV fold solver, whose
#: contract covers element-wise *predictions* (MAPE), not just the
#: second-order-accurate sums of squares.
_FOLD_SCALED_CONDITION_MAX = 1e10

#: Smallest acceptable bordered-Cholesky pivot (on the scaled Gram,
#: where pivots live in ``(0, 1]``).  A pivot this small means the
#: candidate column is numerically inside the span of the selected
#: set; the exact path owns that case.
_PIVOT_MIN = 1e-10

#: Accept a fast fit only when the certified excess sum of squares
#: ``gᵀG⁻¹g`` is below this fraction of ``ss_res`` — an order of
#: magnitude inside the 1e-9 contract.
_EXCESS_RTOL = 1e-10


#: ``(criterion score, R², adjusted R²)`` of one fast-scored candidate.
CandidateScore = Tuple[float, float, float]


def _criterion_from_ssr(
    criterion: str, ss_res: float, ss_tot: float, n: int, k_params: int
) -> CandidateScore:
    """Selection-criterion value from residual/total sums of squares.

    Replicates :mod:`repro.stats.selection_criteria` (and the R² edge
    cases of :func:`repro.stats.ols.fit_ols`) exactly, term for term,
    so fast and slow scores differ only through ``ss_res`` rounding.
    """
    rsquared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    df_resid = n - k_params
    if df_resid > 0 and ss_tot > 0:
        rsquared_adj = 1.0 - (1.0 - rsquared) * (n - 1) / df_resid
    else:
        rsquared_adj = rsquared
    if criterion == "r2":
        score = rsquared
    elif criterion == "adj_r2":
        score = rsquared_adj
    elif criterion in ("aic", "bic"):
        sigma2 = max(ss_res / n, 1e-300)
        log_l = -0.5 * n * (math.log(2.0 * math.pi * sigma2) + 1.0)
        if criterion == "aic":
            score = -(2.0 * k_params - 2.0 * log_l)
        else:
            score = -(k_params * math.log(n) - 2.0 * log_l)
    else:
        raise ValueError(
            f"unknown criterion {criterion!r}; available: {sorted(CRITERIA)}"
        )
    return score, rsquared, rsquared_adj


def _bordered_solve(
    factor: np.ndarray,
    w: np.ndarray,
    pivot: np.ndarray,
    rhs_base: np.ndarray,
    rhs_cand: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve every candidate's bordered scaled system for its own RHS.

    The trial Gram of candidate ``j`` is the shared base block (whose
    Cholesky ``factor`` is given) bordered by the candidate's scaled
    column ``b̂_j``; with ``w_j = L⁻¹b̂_j`` and pivot
    ``d_j = 1 − w_jᵀw_j`` already computed, each solve is two batched
    triangular sweeps.  ``rhs_base`` is ``(k_base, m)`` (one RHS column
    per candidate), ``rhs_cand`` is ``(m,)``; returns the base-block
    solution ``(k_base, m)`` and the candidate coordinates ``(m,)``.
    Every operation is column-separable: identical candidates yield
    bitwise-identical solutions.
    """
    u = triangular_solve(factor, rhs_base)
    theta = (rhs_cand - np.einsum("ij,ij->j", w, u)) / pivot
    base = triangular_solve(factor, u - w * theta[None, :], trans=True)
    return base, theta


class GramCache:
    """Sufficient statistics of the full-candidate Equation 1 design.

    Parameters
    ----------
    endog:
        Dependent variable (power), shape ``(n,)``.
    design:
        Full-candidate design matrix: one column per candidate counter
        (in pool order) followed by the structural ``V²f``/``V``/``Z``
        columns — exactly :func:`repro.core.features.design_matrix`
        over the whole pool.
    rates:
        Raw counter-rate matrix ``(n, n_candidates)`` in the same pool
        order (the columns VIFs are computed over).

    The cache addresses candidates by **pool position**; callers keep
    the name↔position mapping.
    """

    def __init__(
        self,
        endog: np.ndarray,
        design: np.ndarray,
        rates: np.ndarray,
    ) -> None:
        self.y = np.asarray(endog, dtype=np.float64).ravel()
        self.design = as_2d(design)
        self.rates = as_2d(rates)
        self.n = self.design.shape[0]
        self.n_candidates = self.rates.shape[1]
        if self.y.shape[0] != self.n or self.rates.shape[0] != self.n:
            raise ValueError("endog/design/rates row mismatch")
        if self.design.shape[1] < self.n_candidates:
            raise ValueError(
                "design must carry one column per candidate plus the "
                "structural terms"
            )
        #: Design-column indices of the structural (non-counter) terms.
        self.struct = tuple(
            range(self.n_candidates, self.design.shape[1])
        )

        self.y_finite = bool(np.all(np.isfinite(self.y)))
        self.col_finite = np.all(np.isfinite(self.design), axis=0)
        # Non-finite rows/columns are tracked, not rejected: their Gram
        # entries are never read (the scoring kernel declines them), so
        # the IEEE propagation below is deliberately silenced.
        with np.errstate(invalid="ignore", over="ignore"):
            self.gram = self.design.T @ self.design
            self.xty = self.design.T @ self.y
            self.yty = float(self.y @ self.y)
            mean = self.y.mean() if self.n else 0.0
            centered = self.y - mean
        #: Centered total sum of squares — Equation 1 always carries its
        #: constant as the δZ column, so R² is centered exactly as
        #: ``fit_ols`` computes it.
        self.ss_tot = float(centered @ centered)
        diag = np.diagonal(self.gram).copy()
        self.col_norm_sq = diag
        with np.errstate(invalid="ignore"):
            self.col_norm = np.sqrt(np.maximum(diag, 0.0))

        # VIF bookkeeping over the raw rate columns: per-column
        # non-finite counts up front (cheap), pairwise correlations and
        # constancy flags memoized on demand — a selection touches only
        # O(selected²) of the O(pool²) pairs.
        self._rate_bad = np.count_nonzero(
            ~np.isfinite(self.rates), axis=0
        ).astype(np.int64)
        self._constant_memo: Dict[int, bool] = {}
        self._corr_memo: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # VIF kernel
    # ------------------------------------------------------------------
    def _rate_constant(self, column: int) -> bool:
        flag = self._constant_memo.get(column)
        if flag is None:
            col = self.rates[:, column]
            flag = bool(np.allclose(col, col[0]))
            self._constant_memo[column] = flag
        return flag

    def _rate_corr(self, i: int, j: int) -> float:
        key = (i, j) if i <= j else (j, i)
        value = self._corr_memo.get(key)
        if value is None:
            value = pearson(self.rates[:, key[0]], self.rates[:, key[1]])
            self._corr_memo[key] = value
        return value

    def mean_vif(self, columns: Sequence[int]) -> float:
        """Mean VIF over a set of candidate rate columns.

        Bitwise-identical to
        ``repro.stats.vif.mean_vif(dataset.counter_matrix(trial))``:
        the same per-pair :func:`~repro.stats.correlation.pearson`
        values feed the same
        :func:`~repro.stats.vif.vifs_from_correlation`, only memoized
        across steps instead of recomputed.
        """
        k = len(columns)
        if k < 2:
            return float("nan")
        n_bad = int(sum(int(self._rate_bad[j]) for j in columns))
        if n_bad:
            raise nonfinite_exog_error(n_bad)
        constant = np.array([self._rate_constant(j) for j in columns])
        vifs = np.ones(k)
        active = np.flatnonzero(~constant)
        if active.size >= 2:
            cols = [columns[a] for a in active]
            corr = np.eye(len(cols))
            for a in range(len(cols)):
                for b in range(a + 1, len(cols)):
                    corr[a, b] = corr[b, a] = self._rate_corr(
                        cols[a], cols[b]
                    )
            vifs[active] = vifs_from_correlation(corr)
        return float(np.mean(vifs))

    # ------------------------------------------------------------------
    # candidate-scoring kernel
    # ------------------------------------------------------------------
    def score_candidates(
        self,
        selected: Sequence[int],
        remaining: Sequence[int],
        criterion: str,
    ) -> List[Optional[CandidateScore]]:
        """Score "selected ∪ {candidate}" for every remaining candidate.

        One greedy step in a handful of batched array operations (see
        the module docstring for the numerical scheme).  Returns a list
        parallel to ``remaining``; an entry is ``None`` when that
        candidate is not fast-certifiable and must be evaluated through
        the exact slow path.
        """
        scores: List[Optional[CandidateScore]] = [None] * len(remaining)
        if not remaining:
            return scores
        base = [int(j) for j in selected] + list(self.struct)
        k_base = len(base)
        k_trial = k_base + 1
        # Anything wrong with the shared base (non-finite y or base
        # columns, underdetermined trials, non-PD base Gram) sends the
        # whole step to the slow path.
        if (
            not self.y_finite
            or self.n < k_trial
            or not all(self.col_finite[j] for j in base)
        ):
            return scores
        norms_b = self.col_norm[base]
        nsq_b = self.col_norm_sq[base]
        if not np.all(norms_b > 0.0):
            return scores
        gram_bb = self.gram[np.ix_(base, base)]
        factor = try_cholesky(gram_bb / np.outer(norms_b, norms_b))
        if factor is None:
            return scores
        # diag(Ĝ_BB⁻¹) — feeds the per-candidate trace(G⁻¹) bounds.
        inv_factor = triangular_solve(factor, np.eye(k_base))
        inv_diag_b = np.einsum("ij,ij->j", inv_factor, inv_factor)
        z_b = self.xty[base] / norms_b

        cand = np.array([int(j) for j in remaining], dtype=np.intp)
        ok = self.col_finite[cand] & (self.col_norm_sq[cand] > 0.0)
        usable = cand[ok]
        if usable.size == 0:
            return scores
        norms_c = self.col_norm[usable]
        nsq_c = self.col_norm_sq[usable]
        border = self.gram[np.ix_(base, usable)]
        w = triangular_solve(
            factor, border / (norms_b[:, None] * norms_c[None, :])
        )
        # Bordered pivot on the scaled Gram: the squared distance of the
        # (normalized) candidate column to the span of the base.
        pivot = 1.0 - np.einsum("ij,ij->j", w, w)
        viable = np.isfinite(pivot) & (pivot > _PIVOT_MIN)
        safe_pivot = np.where(viable, pivot, 1.0)

        # Condition guards from the bordered inverse diagonal:
        # (Ĝ_trial⁻¹)_BB diag = diag(Ĝ_BB⁻¹) + v²/pivot with
        # v = L⁻ᵀw, and the candidate entry is 1/pivot.  trace bounds
        # give λmax ≤ trace(G), λmin ≥ 1/trace(G⁻¹) — tight to ~k.
        v = triangular_solve(factor, w, trans=True)
        v_sq_scaled = np.einsum("ij,ij->j", v, v)
        trace_inv_scaled = (
            float(inv_diag_b.sum()) + (v_sq_scaled + 1.0) / safe_pivot
        )
        scaled_cond = k_trial * trace_inv_scaled
        v_sq_raw = np.einsum("ij,ij->j", v, v / nsq_b[:, None])
        trace_inv_raw = (
            float((inv_diag_b / nsq_b).sum())
            + (v_sq_raw + 1.0 / nsq_c) / safe_pivot
        )
        trace_raw = float(nsq_b.sum()) + nsq_c
        eligible = (
            viable
            & (scaled_cond < SCALED_CONDITION_MAX)
            & (trace_raw * trace_inv_raw < DESIGN_CONDITION_MAX**2)
        )
        keep = np.flatnonzero(eligible)
        if keep.size == 0:
            return scores

        w_k = w[:, keep]
        d_k = pivot[keep]
        usable_k = usable[keep]
        norms_ck = norms_c[keep]
        nsq_ck = nsq_c[keep]
        border_k = border[:, keep]
        m_k = keep.size

        # Initial bordered solve, one RHS column per candidate (the
        # base RHS is shared, the candidate coordinate differs).
        beta_b, theta = _bordered_solve(
            factor,
            w_k,
            d_k,
            np.tile(z_b[:, None], (1, m_k)),
            self.xty[usable_k] / norms_ck,
        )
        beta_base = beta_b / norms_b[:, None]
        beta_cand = theta / norms_ck

        # One refinement sweep through the same factorization: solve
        # Ĝδ̂ = ĝ with g the normal-equation residual, contract the
        # coefficient error by another O(eps·κ(Ĝ)).
        g_base = (
            self.xty[base][:, None]
            - gram_bb @ beta_base
            - border_k * beta_cand[None, :]
        )
        g_cand = (
            self.xty[usable_k]
            - np.einsum("ij,ij->j", border_k, beta_base)
            - nsq_ck * beta_cand
        )
        delta_b, delta_theta = _bordered_solve(
            factor,
            w_k,
            d_k,
            g_base / norms_b[:, None],
            g_cand / norms_ck,
        )
        beta_base = beta_base + delta_b / norms_b[:, None]
        beta_cand = beta_cand + delta_theta / norms_ck

        # Residual pass on raw rows: second-order accurate ss_res (see
        # module docstring), one gemm for every candidate at once.
        fitted = (
            self.design[:, base] @ beta_base
            + self.design[:, usable_k] * beta_cand[None, :]
        )
        resid = self.y[:, None] - fitted
        ss_res = np.einsum("ij,ij->j", resid, resid)

        # Certificate: the certified excess over the true minimum is
        # gᵀG⁻¹g = ĝᵀĜ⁻¹ĝ, evaluated through the factor.
        g_base = (
            self.xty[base][:, None]
            - gram_bb @ beta_base
            - border_k * beta_cand[None, :]
        )
        g_cand = (
            self.xty[usable_k]
            - np.einsum("ij,ij->j", border_k, beta_base)
            - nsq_ck * beta_cand
        )
        gh_base = g_base / norms_b[:, None]
        gh_cand = g_cand / norms_ck
        sol_b, sol_theta = _bordered_solve(
            factor, w_k, d_k, gh_base, gh_cand
        )
        excess = (
            np.einsum("ij,ij->j", gh_base, sol_b) + gh_cand * sol_theta
        )
        certified = excess <= _EXCESS_RTOL * ss_res

        positions = np.flatnonzero(ok)
        for out_col, kept in enumerate(keep):
            if not certified[out_col]:
                continue
            scores[int(positions[kept])] = _criterion_from_ssr(
                criterion,
                float(ss_res[out_col]),
                self.ss_tot,
                self.n,
                k_trial,
            )
        return scores


@dataclass(frozen=True)
class FastFoldFit:
    """Coefficients and training fit of one fast-solved CV fold."""

    beta: np.ndarray
    rsquared: float
    rsquared_adj: float
    n_train: int


class FoldGramSolver:
    """k-fold CV from sufficient statistics of one fixed design.

    The full-design Gram and moment vector are computed once; each
    fold's training statistics are the cheap downdate
    ``G − XₜᵉˢᵗᵀXₜᵉˢᵗ`` (``O(|fold|·k²)`` instead of ``O(n·k²)`` per
    fold).  Coefficients come from a scaled Cholesky solve with *two*
    refinement sweeps — the fold contract covers element-wise
    predictions (MAPE), not just second-order sums of squares — under
    the same trace-based condition guards and excess certificate as
    the selection kernel.

    :meth:`solve_fold` returns ``None`` whenever the fold is not
    fast-certifiable (non-finite data, underdetermined, degenerate or
    ill-conditioned train Gram, certificate failure) — the caller must
    then run the exact per-fold fit, which also reproduces the
    historical exceptions on degraded data.
    """

    def __init__(self, endog: np.ndarray, design: np.ndarray) -> None:
        self.y = np.asarray(endog, dtype=np.float64).ravel()
        self.design = as_2d(design)
        self.n, self.k = self.design.shape
        if self.y.shape[0] != self.n:
            raise ValueError("endog/design row mismatch")
        self.finite = bool(
            np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.design))
        )
        if self.finite:
            self.gram = self.design.T @ self.design
            self.xty = self.design.T @ self.y

    def solve_fold(
        self, train: np.ndarray, test: np.ndarray
    ) -> Optional[FastFoldFit]:
        """Fit the fold's training rows from downdated statistics."""
        if not self.finite or train.size < self.k:
            return None
        x_test = self.design[test]
        g_train = self.gram - x_test.T @ x_test
        d_train = self.xty - x_test.T @ self.y[test]
        nsq = np.diagonal(g_train)
        if not np.all(nsq > 0.0):
            return None
        norms = np.sqrt(nsq)
        factor = try_cholesky(g_train / np.outer(norms, norms))
        if factor is None:
            return None
        inv_factor = triangular_solve(factor, np.eye(self.k))
        inv_diag = np.einsum("ij,ij->j", inv_factor, inv_factor)
        if self.k * float(inv_diag.sum()) >= _FOLD_SCALED_CONDITION_MAX:
            return None
        if float(nsq.sum()) * float((inv_diag / nsq).sum()) >= (
            DESIGN_CONDITION_MAX**2
        ):
            return None
        # Applying the explicit Ĝ⁻¹ is one gemv per solve instead of
        # two triangular sweeps — the refinement steps and the
        # excess certificate below recover/verify whatever accuracy the
        # explicit inverse costs.
        inv_gram = inv_factor.T @ inv_factor

        beta = (inv_gram @ (d_train / norms)) / norms
        # Two refinement sweeps (element-wise prediction accuracy).
        for _ in range(2):
            g = d_train - g_train @ beta
            beta = beta + (inv_gram @ (g / norms)) / norms

        y_train = self.y[train]
        x_train = self.design[train]
        resid = y_train - x_train @ beta
        ss_res = float(resid @ resid)
        g = d_train - g_train @ beta
        gh = g / norms
        excess = float(gh @ (inv_gram @ gh))
        if excess > _EXCESS_RTOL * ss_res:
            return None

        has_constant = _design_has_constant(x_train, False)
        if has_constant:
            centered = y_train - y_train.mean()
            ss_tot = float(centered @ centered)
        else:
            ss_tot = float(y_train @ y_train)
        n_train = int(y_train.shape[0])
        rsquared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        df_resid = n_train - self.k
        if df_resid > 0 and ss_tot > 0:
            rsquared_adj = (
                1.0
                - (1.0 - rsquared)
                * (n_train - (1 if has_constant else 0))
                / df_resid
            )
        else:
            rsquared_adj = rsquared
        return FastFoldFit(
            beta=beta,
            rsquared=rsquared,
            rsquared_adj=rsquared_adj,
            n_train=n_train,
        )

    def predict(self, fit: FastFoldFit, rows: np.ndarray) -> np.ndarray:
        """Held-out predictions for the given row indices."""
        return self.design[rows] @ fit.beta
