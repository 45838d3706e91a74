"""Rule registry: one module per rule, discovered via ``all_rules``."""

from __future__ import annotations

from typing import List

from repro.lint.framework import Rule
from repro.lint.rules.rl001_unseeded_rng import NoUnseededRng
from repro.lint.rules.rl002_allow_pickle import RequireAllowPickleFalse
from repro.lint.rules.rl003_unit_suffix import UnitSuffixConsistency
from repro.lint.rules.rl004_float_equality import NoFloatEquality
from repro.lint.rules.rl005_cache_version import CacheVersionDiscipline
from repro.lint.rules.rl006_atomic_write import NonAtomicCacheWrite
from repro.lint.rules.rl007_silent_except import SilentBroadExcept
from repro.lint.rules.rl008_raw_linalg import NoRawLinalgSolvers
from repro.lint.rules.rl011_unaudited_report import NoUnauditedReport
from repro.lint.rules.rl013_unbounded_queue import NoUnboundedQueue

__all__ = [
    "all_rules",
    "NoUnseededRng",
    "RequireAllowPickleFalse",
    "UnitSuffixConsistency",
    "NoFloatEquality",
    "CacheVersionDiscipline",
    "NonAtomicCacheWrite",
    "SilentBroadExcept",
    "NoRawLinalgSolvers",
    "NoUnauditedReport",
    "NoUnboundedQueue",
]


def all_rules(*, diff_base: str = "HEAD") -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [
        NoUnseededRng(),
        RequireAllowPickleFalse(),
        UnitSuffixConsistency(),
        NoFloatEquality(),
        CacheVersionDiscipline(base=diff_base),
        NonAtomicCacheWrite(),
        SilentBroadExcept(),
        NoRawLinalgSolvers(),
        NoUnauditedReport(),
        NoUnboundedQueue(),
    ]
