"""Error metrics used throughout the evaluation.

The paper's single-number accuracy metric is the Mean Absolute
Percentage Error (MAPE, Table II / Fig. 3 / Fig. 4); :math:`R^2` is used
for model fit quality.  The remaining metrics support the extended
analysis (bias detection of Fig. 5a, residual studies).
"""

from __future__ import annotations

import numpy as np

__all__ = ["mape", "mae", "rmse", "r2_score", "max_ape", "bias"]


def _pair(actual: np.ndarray, predicted: np.ndarray):
    a = np.asarray(actual, dtype=np.float64).ravel()
    p = np.asarray(predicted, dtype=np.float64).ravel()
    if a.shape != p.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {p.shape}")
    if a.size == 0:
        raise ValueError("empty inputs")
    return a, p


def _ape_rows(
    actual: np.ndarray,
    predicted: np.ndarray,
    on_zero: str,
    metric: str,
):
    """Shared zero-actual handling for the percentage-error metrics.

    ``on_zero="raise"`` keeps the strict historical contract: power
    measurements are strictly positive, so a zero actual indicates a
    pipeline bug.  ``on_zero="skip"`` drops the offending rows instead —
    the right mode for degraded/chaos pipelines where one corrupt sample
    must not abort a whole evaluation (callers record a warning).
    """
    if on_zero not in ("raise", "skip"):
        raise ValueError(
            f"on_zero must be 'raise' or 'skip', got {on_zero!r}"
        )
    a, p = _pair(actual, predicted)
    zero = a == 0.0  # exact-zero guard: APE division sentinel
    if not np.any(zero):
        return a, p
    if on_zero == "raise":
        raise ValueError(f"{metric} undefined: actual contains zeros")
    keep = ~zero
    if not np.any(keep):
        raise ValueError(
            f"{metric} undefined: every actual value is zero"
        )
    return a[keep], p[keep]


def mape(
    actual: np.ndarray, predicted: np.ndarray, *, on_zero: str = "raise"
) -> float:
    """Mean Absolute Percentage Error, in percent.

    ``mean(|actual - predicted| / |actual|) * 100``.  By default raises
    if any actual value is zero — power measurements are strictly
    positive, so a zero here indicates a pipeline bug rather than a
    valid sample; ``on_zero="skip"`` drops zero-actual rows (all-zero
    input still raises).
    """
    a, p = _ape_rows(actual, predicted, on_zero, "MAPE")
    return float(np.mean(np.abs((a - p) / a)) * 100.0)


def max_ape(
    actual: np.ndarray, predicted: np.ndarray, *, on_zero: str = "raise"
) -> float:
    """Worst-case absolute percentage error, in percent.

    Same zero-actual contract as :func:`mape`.
    """
    a, p = _ape_rows(actual, predicted, on_zero, "APE")
    return float(np.max(np.abs((a - p) / a)) * 100.0)


def mae(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute error (same unit as the inputs — watts here)."""
    a, p = _pair(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared error."""
    a, p = _pair(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


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
