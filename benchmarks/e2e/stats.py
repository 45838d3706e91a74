"""Order statistics and output digests (pure Python, no ``repro`` import).

The parent process uses these; it never imports the package it measures.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics
from typing import Optional, Sequence, Tuple

__all__ = [
    "mean",
    "median",
    "percentile",
    "quartiles",
    "spread",
    "tail_percentile",
    "trimmed_mean",
    "paper_digest",
]

#: Runner lines that carry wall time, so differ between identical runs:
#: ``table1  (1.1 s)`` and ``ran 9 experiment(s) in 1.2 s (serial×1)``.
_TIMING_LINES = (
    re.compile(r"^[A-Za-z0-9_.-]+  \(\d+\.\d s\)$"),
    re.compile(r"^ran \d+ experiment\(s\) in \d+\.\d s \(.*\)$"),
)


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between ranks.

    Rank ``p / 100 * (n - 1)`` of the sorted values, the definition of
    ``statistics.quantiles(method="inclusive")`` and numpy's default.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Q1, median and Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def trimmed_mean(values: Sequence[float], share: float) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``share`` of them (``floor(share * n)`` from each end)."""
    ordered = sorted(values)
    cut = math.floor(share * len(ordered))
    return mean(ordered[cut:len(ordered) - cut])


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile with at least ten samples beyond it.

    ``None`` when ``n`` samples are too few for any (``n < 11``).  The
    ``p``-th percentile sits at rank ``p / 100 * (n - 1)``, so the
    samples strictly above it are ``n - 1 - floor(rank)``; that is at
    least ten exactly when ``p * (n - 1) < 100 * (n - 10)``.
    """
    if n < 11:
        return None
    return (100 * (n - 10) - 1) // (n - 1)


def paper_digest(stdout: str) -> str:
    """SHA-256 of the runner's output with its wall-time lines removed."""
    kept = [
        line
        for line in stdout.splitlines()
        if not any(pattern.match(line) for pattern in _TIMING_LINES)
    ]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()
