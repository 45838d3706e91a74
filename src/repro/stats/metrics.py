"""Error metrics used throughout the evaluation.

The paper's single-number accuracy metric is the Mean Absolute
Percentage Error (MAPE, Table II / Fig. 3 / Fig. 4); :math:`R^2` is used
for model fit quality.  The remaining metrics support the extended
analysis (out-of-sample :math:`R^2`, bias detection of Fig. 5a).
"""

from __future__ import annotations

import numpy as np

__all__ = ["mape", "r2_score", "bias"]


def _pair(actual: np.ndarray, predicted: np.ndarray):
    a = np.asarray(actual, dtype=np.float64).ravel()
    p = np.asarray(predicted, dtype=np.float64).ravel()
    if a.shape != p.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {p.shape}")
    if a.size == 0:
        raise ValueError("empty inputs")
    return a, p


def mape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean Absolute Percentage Error, in percent.

    ``mean(|actual - predicted| / |actual|) * 100``.  Raises if any
    actual value is zero — power measurements are strictly positive,
    so a zero here indicates a pipeline bug rather than a valid sample.
    """
    a, p = _pair(actual, predicted)
    if np.any(a == 0.0):  # exact-zero guard: APE division sentinel
        raise ValueError("MAPE undefined: actual contains zeros")
    return float(np.mean(np.abs((a - p) / a)) * 100.0)


def bias(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean signed error ``mean(predicted - actual)``.

    Positive values mean systematic over-estimation — the failure mode
    Fig. 5a exhibits for the md/nab benchmarks under scenario 2.
    """
    a, p = _pair(actual, predicted)
    return float(np.mean(p - a))


def r2_score(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Out-of-sample coefficient of determination.

    ``1 - SS_res / SS_tot`` with ``SS_tot`` centered on the *actual*
    mean; can be negative for predictions worse than the mean.
    """
    a, p = _pair(actual, predicted)
    resid = a - p
    centered = a - a.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:  # exact-zero guard: constant target
        return 0.0
    return float(1.0 - (resid @ resid) / ss_tot)
