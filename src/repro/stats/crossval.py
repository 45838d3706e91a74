"""Cross-validation splits (Section IV-B).

The paper trains and validates Equation 1 "using 10-fold cross
validation with random indexing" and reports min/max/mean of
:math:`R^2`, adjusted :math:`R^2` and MAPE over the folds (Table II).
:class:`KFold` draws those folds; the fits run in
:func:`repro.core.scenarios.cv_out_of_fold_predictions`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["KFold"]

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
