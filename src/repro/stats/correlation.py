"""Correlation coefficients (Section V of the paper).

The Pearson Correlation Coefficient (Equation 2 of the paper) is used
to quantify the significance of the selected performance counters with
respect to power (Table III, Fig. 6).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.stats.linalg import as_2d

__all__ = [
    "pearson",
    "correlation_matrix",
    "pearson_with_target",
]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient of two 1-D samples.

    Implements Equation 2 of the paper directly.  Returns 0.0 when one
    of the samples is constant (the limit case the paper's tooling —
    ``scipy.stats.pearsonr`` — reports as ``nan``; 0 is the honest
    "no linear relation detectable" answer for counter columns that
    never fire).
    """
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two observations")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da @ da) * (db @ db))
    if denom == 0.0:  # exact-zero guard: constant series
        return 0.0
    return float(np.clip((da @ db) / denom, -1.0, 1.0))


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """Symmetric Pearson correlation matrix over columns of ``data``."""
    x = as_2d(data)
    k = x.shape[1]
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = pearson(x[:, i], x[:, j])
    return out


def pearson_with_target(
    data: np.ndarray,
    target: np.ndarray,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """PCC of each column of ``data`` against ``target``.

    This is the computation behind Fig. 6 (all PAPI counters vs power)
    and Table III (selected counters vs power).
    """
    x = as_2d(data)
    y = np.asarray(target, dtype=np.float64).ravel()
    if names is None:
        names = [f"x{j}" for j in range(x.shape[1])]
    if len(names) != x.shape[1]:
        raise ValueError(f"{len(names)} names for {x.shape[1]} columns")
    return {str(n): pearson(x[:, j], y) for j, n in enumerate(names)}
