"""Exact-fit reference: production with every Gram-cache fit declined.

Algorithm 1 and the 10-fold CV answer OLS fits through the Gram-cache
kernels of :mod:`repro.stats.fastfit`; any fit a kernel declines is
refitted by the exact per-fit path (``guarded_lstsq`` and its
SVD → ridge → pinv chain), which also runs every Huber fit.  That exact
path is the reference the kernels are held to.  :func:`exact_fits`
reaches it for *every* fit inside a ``with`` block:

* ``GramCache.score_candidates`` declines every candidate, so each is
  scored by the exact per-candidate fit;
* ``GramCache.mean_vif`` reads the VIF off the cached rate columns with
  :func:`repro.stats.vif.mean_vif`, as the exact VIF guard does;
* ``FoldGramSolver.solve_fold`` declines every fold, so each is
  refitted exactly (and the CV records the declines in its ``issues``).

Everything is restored on exit.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.stats.fastfit import FoldGramSolver, GramCache
from repro.stats.vif import mean_vif

__all__ = ["exact_fits"]


def _decline_candidates(self, selected, remaining, criterion):
    return [None] * len(remaining)


def _exact_mean_vif(self, columns):
    return mean_vif(self.rates[:, list(columns)])


def _decline_fold(self, train, test):
    return None


@contextlib.contextmanager
def exact_fits():
    """Run selection and CV on the exact fit path inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GramCache, "score_candidates", _decline_candidates)
        mp.setattr(GramCache, "mean_vif", _exact_mean_vif)
        mp.setattr(FoldGramSolver, "solve_fold", _decline_fold)
        yield
