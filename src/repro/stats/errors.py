"""Typed errors of the estimation layer.

The robustness contract of the model stack (DESIGN.md §10) is that a
degraded dataset either fits with a structured
:class:`~repro.stats.linalg.FitDiagnostics` diagnosis or fails with one
of these typed, actionable errors — never a bare
``numpy.linalg.LinAlgError`` or a silent garbage fit.

All errors subclass :class:`ValueError` so existing callers that guard
estimation with ``except ValueError`` keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "EstimationError",
    "NonFiniteInputError",
    "UnderdeterminedFitError",
    "DegenerateResidualsError",
    "RobustFitError",
]


class EstimationError(ValueError):
    """Base class: a regression fit could not be performed as asked."""


class NonFiniteInputError(EstimationError):
    """Endog/exog contain NaN or Inf.

    The acquisition layer marks holes with NaN (PR 2's degraded
    merges); those rows must be dropped or imputed *before* fitting —
    a NaN reaching the solver is a pipeline bug, not a valid sample.
    """


class UnderdeterminedFitError(EstimationError):
    """Fewer observations than parameters (n < p).

    No fallback can conjure the missing information; the caller must
    either shrink the model (fewer counters) or gather more rows.
    """


class DegenerateResidualsError(EstimationError):
    """A residual vector carries no distributional information.

    Constant residuals (a numerically perfect or collapsed fit) have
    zero variance: normality and heteroscedasticity statistics on them
    are 0/0 forms.  The diagnostics refuse with this error instead of
    silently propagating NaN into an audit verdict.
    """


class RobustFitError(EstimationError):
    """The IRLS robust fit could not be completed (e.g. every
    observation down-weighted to zero)."""
