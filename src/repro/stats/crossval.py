"""Cross-validation machinery (Section IV-B).

The paper trains and validates Equation 1 "using 10-fold cross
validation with random indexing" and reports min/max/mean of
:math:`R^2`, adjusted :math:`R^2` and MAPE over the folds (Table II).
Scenario analysis additionally needs group-wise splits (hold out whole
workloads), provided by :class:`LeaveOneGroupOut`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.fastfit import FoldGramSolver
from repro.stats.linalg import add_constant
from repro.stats.metrics import mape, r2_score
from repro.stats.ols import OLSResult, fit_ols
from repro.stats.robust import fit_robust

__all__ = [
    "KFold",
    "LeaveOneGroupOut",
    "FoldScore",
    "CrossValidationResult",
    "cross_validate",
]

Split = Tuple[np.ndarray, np.ndarray]


class KFold:
    """k-fold splitter with optional shuffling ("random indexing")."""

    def __init__(
        self,
        n_splits: int = 10,
        *,
        shuffle: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        if shuffle and seed is None:
            # default_rng(None) would draw OS entropy — silently
            # irreproducible folds in a repository whose whole point is
            # bit-reproducible pipelines.  Demand an explicit seed.
            raise ValueError(
                "KFold(shuffle=True) requires an explicit seed: "
                "seed=None would produce irreproducible folds"
            )
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, n_samples: int) -> Iterator[Split]:
        """Yield ``(train_idx, test_idx)`` pairs over ``n_samples``."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.seed)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits, dtype=int)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield np.sort(train), np.sort(test)
            start += size


class LeaveOneGroupOut:
    """Hold out all samples of one group (e.g. one workload) per fold."""

    def split(
        self, groups: Sequence
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, object]]:
        """Yield ``(train_idx, test_idx, group)`` per distinct group."""
        arr = np.asarray(groups)
        uniques = list(dict.fromkeys(arr.tolist()))  # stable order
        if len(uniques) < 2:
            raise ValueError("need at least two groups to hold one out")
        all_idx = np.arange(arr.shape[0])
        for g in uniques:
            mask = arr == g
            yield all_idx[~mask], all_idx[mask], g


@dataclass(frozen=True)
class FoldScore:
    """Per-fold training fit quality and held-out predictive error."""

    rsquared: float
    rsquared_adj: float
    mape: float
    r2_oos: float
    n_train: int
    n_test: int


@dataclass(frozen=True)
class CrossValidationResult:
    """Aggregate over folds; renders the Table II summary."""

    folds: Tuple[FoldScore, ...]

    def _stat(self, attr: str) -> Dict[str, float]:
        vals = np.array([getattr(f, attr) for f in self.folds])
        return {
            "min": float(vals.min()),
            "max": float(vals.max()),
            "mean": float(vals.mean()),
        }

    @property
    def rsquared(self) -> Dict[str, float]:
        return self._stat("rsquared")

    @property
    def rsquared_adj(self) -> Dict[str, float]:
        return self._stat("rsquared_adj")

    @property
    def mape(self) -> Dict[str, float]:
        return self._stat("mape")

    def summary_rows(self) -> List[Tuple[str, float, float, float]]:
        """Rows of Table II: (metric, min, max, mean)."""
        rows = []
        for label, stat in (
            ("R2", self.rsquared),
            ("Adj.R2", self.rsquared_adj),
            ("MAPE", self.mape),
        ):
            rows.append((label, stat["min"], stat["max"], stat["mean"]))
        return rows


FitFn = Callable[[np.ndarray, np.ndarray], OLSResult]


def _default_fit(y: np.ndarray, x: np.ndarray) -> OLSResult:
    return fit_ols(y, x, cov_type="HC3")


def _robust_fit(y: np.ndarray, x: np.ndarray) -> OLSResult:
    return fit_robust(y, x, cov_type="HC3")


def _score_fold(
    fit_fn: FitFn,
    y_train: np.ndarray,
    x_train: np.ndarray,
    y_test: np.ndarray,
    x_test: np.ndarray,
    on_zero: str,
) -> FoldScore:
    """Fit and score one fold."""
    res = fit_fn(y_train, x_train)
    pred = res.predict(x_test)
    return FoldScore(
        rsquared=res.rsquared,
        rsquared_adj=res.rsquared_adj,
        mape=mape(y_test, pred, on_zero=on_zero),
        r2_oos=r2_score(y_test, pred),
        n_train=y_train.size,
        n_test=y_test.size,
    )


def _fast_fold_scores(
    y: np.ndarray,
    x: np.ndarray,
    splits: Sequence[Split],
    on_zero: str,
) -> List[FoldScore]:
    """Score every fold through the shared Gram downdate solver.

    Folds the solver declines (non-finite rows, underdetermined or
    degenerate train designs) re-run through the exact per-fold fit so
    degraded data keeps raising the historical typed errors.
    """
    solver = FoldGramSolver(y, add_constant(x))
    scores: List[FoldScore] = []
    for train, test in splits:
        fit = solver.solve_fold(train, test)
        if fit is None:
            scores.append(
                _score_fold(
                    _default_fit, y[train], x[train], y[test], x[test], on_zero
                )
            )
            continue
        pred = solver.predict(fit, test)
        scores.append(
            FoldScore(
                rsquared=fit.rsquared,
                rsquared_adj=fit.rsquared_adj,
                mape=mape(y[test], pred, on_zero=on_zero),
                r2_oos=r2_score(y[test], pred),
                n_train=int(train.size),
                n_test=int(test.size),
            )
        )
    return scores


def cross_validate(
    endog: np.ndarray,
    exog: np.ndarray,
    *,
    n_splits: int = 10,
    seed: Optional[int] = 0,
    fit_fn: Optional[FitFn] = None,
    robust: bool = False,
    on_zero: str = "raise",
    fast: bool = True,
) -> CrossValidationResult:
    """k-fold cross validation of an OLS power model.

    For each fold the model is fit on the training rows; the fold score
    records the training :math:`R^2`/adjusted :math:`R^2` (as the paper
    reports model fit per fold) and the held-out MAPE and out-of-sample
    :math:`R^2`.

    ``robust=True`` swaps the default per-fold fit for the Huber IRLS
    estimator; an explicit ``fit_fn`` takes precedence over the flag.
    ``on_zero`` is forwarded to the fold MAPE (``"skip"`` for degraded
    pipelines).

    ``fast`` routes the default OLS folds through the Gram downdate
    solver of :mod:`repro.stats.fastfit` (each fold's train Gram is the
    full-design Gram minus the fold's — no per-fold refit); a
    custom ``fit_fn`` or ``robust=True`` always takes the exact
    per-fold path.  Fold scores agree with the slow path within 1e-9
    relative tolerance.
    """
    use_fast = fit_fn is None and not robust and fast
    if fit_fn is None:
        fit_fn = _robust_fit if robust else _default_fit
    y = np.asarray(endog, dtype=np.float64).ravel()
    x = np.asarray(exog, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if y.shape[0] != x.shape[0]:
        raise ValueError("endog/exog row mismatch")

    splits = list(KFold(n_splits, shuffle=True, seed=seed).split(y.shape[0]))
    if use_fast:
        return CrossValidationResult(
            folds=tuple(_fast_fold_scores(y, x, splits, on_zero))
        )
    scores = [
        _score_fold(fit_fn, y[train], x[train], y[test], x[test], on_zero)
        for train, test in splits
    ]
    return CrossValidationResult(folds=tuple(scores))
