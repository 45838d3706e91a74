"""PMC event selection — Algorithm 1 of the paper.

Greedy forward selection: at each step, fit Equation 1 with every
remaining candidate added to the already-selected events and keep the
candidate yielding the highest :math:`R^2`.  Unlike Walker et al., the
selection does **not** start from a pre-seeded cycle counter (the paper
found no significant difference, Section III-B).

Stage two quantifies multicollinearity: the mean VIF over the selected
event *rate* columns is recorded per step (Table I / Table IV).  The
paper's CA_SNP finding — a seventh counter that raises :math:`R^2`
slightly while blowing the mean VIF past 10 — is surfaced by
:meth:`SelectionResult.first_unstable_step`.

The selection criterion is pluggable (``r2`` — the paper's, plus
``adj_r2`` / ``aic`` / ``bic`` from the future-work ablation); an
optional ``max_vif`` constraint implements the VIF-guarded greedy
variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.core.features import design_matrix
from repro.core.model import ESTIMATORS, PowerModel
from repro.stats.errors import EstimationError
from repro.stats.fastfit import GramCache
from repro.stats.selection_criteria import CRITERIA
from repro.stats.vif import VIF_PROBLEM_THRESHOLD, mean_vif

__all__ = [
    "SelectionStep",
    "SelectionResult",
    "select_events",
]


@dataclass(frozen=True)
class SelectionStep:
    """One row of Table I / Table IV."""

    counter: str
    rsquared: float
    rsquared_adj: float
    mean_vif: float
    """Mean VIF of the selected set *including* this counter; NaN for
    the first step (the paper prints "n/a")."""
    criterion_value: float
    warnings: Tuple[str, ...] = ()
    """Degraded-data notes for this step: candidates skipped because
    their fit failed, R² ties broken by pool order, infinite VIF."""

    @property
    def is_unstable(self) -> bool:
        return (
            not np.isnan(self.mean_vif)
            and self.mean_vif > VIF_PROBLEM_THRESHOLD
        )


@dataclass(frozen=True)
class SelectionResult:
    """Complete record of a greedy selection run."""

    steps: Tuple[SelectionStep, ...]
    criterion: str
    warnings: Tuple[str, ...] = ()
    """Selection-level degraded-data notes (missing candidates dropped
    from the pool, early termination) — per-step notes live on the
    steps themselves."""

    @property
    def selected(self) -> Tuple[str, ...]:
        return tuple(s.counter for s in self.steps)

    def first_unstable_step(self) -> Optional[int]:
        """1-based index of the first step whose mean VIF exceeds the
        multicollinearity threshold, or None if all steps are stable."""
        for i, s in enumerate(self.steps):
            if s.is_unstable:
                return i + 1
        return None

    def stable_prefix(self) -> Tuple[str, ...]:
        """Selected counters up to (excluding) the first unstable step."""
        cut = self.first_unstable_step()
        if cut is None:
            return self.selected
        return self.selected[: cut - 1]

    def table_rows(self) -> List[Tuple[str, float, float, float]]:
        """(counter, R², Adj.R², mean VIF) rows in selection order."""
        return [
            (s.counter, s.rsquared, s.rsquared_adj, s.mean_vif)
            for s in self.steps
        ]


def _evaluate_candidate(
    dataset: PowerDataset,
    selected: Sequence[str],
    event: str,
    max_vif: Optional[float],
    cov_type: str,
    estimator: str,
    criterion: str,
) -> Tuple[object, ...]:
    """Score one candidate event for one greedy step.

    Returns a tagged tuple — ``("vif", event)``, ``("error", event,
    message)`` or ``("ok", event, score, r2, adj_r2)`` — that the
    pool-order reduction in :func:`select_events` turns into warnings,
    ties and the step winner.
    """
    trial = list(selected) + [event]
    if max_vif is not None and len(trial) > 1:
        trial_vif = mean_vif(dataset.counter_matrix(trial))
        if trial_vif > max_vif:
            return ("vif", event)
    try:
        fitted = PowerModel(
            trial, cov_type=cov_type, estimator=estimator
        ).fit(dataset)
    except EstimationError as exc:
        return ("error", event, str(exc))
    score = CRITERIA[criterion](fitted.ols)
    return ("ok", event, score, fitted.rsquared, fitted.rsquared_adj)


def _fast_step_evaluations(
    dataset: PowerDataset,
    cache: GramCache,
    pool_pos: dict,
    selected: Sequence[str],
    remaining: Sequence[str],
    max_vif: Optional[float],
    cov_type: str,
    criterion: str,
) -> List[Tuple[object, ...]]:
    """One greedy step through the Gram cache.

    Produces the same pool-ordered tagged tuples as
    :func:`_evaluate_candidate` does per candidate: the VIF guard runs
    through the cache's memoized correlations (bitwise-identical to the
    slow guard), the surviving candidates are scored in one batched
    bordered-Cholesky update, and any candidate the kernel declines
    (degraded or ill-conditioned trial design) is re-evaluated through
    the exact slow path so its score, skip warning or error message is
    reproduced verbatim.
    """
    sel_pos = [pool_pos[e] for e in selected]
    evaluations: List[Optional[Tuple[object, ...]]] = [None] * len(remaining)
    admissible: List[int] = []
    for i, event in enumerate(remaining):
        if max_vif is not None and selected:
            trial_vif = cache.mean_vif(sel_pos + [pool_pos[event]])
            if trial_vif > max_vif:
                evaluations[i] = ("vif", event)
                continue
        admissible.append(i)
    admissible_pos = [pool_pos[remaining[i]] for i in admissible]
    scores = cache.score_candidates(sel_pos, admissible_pos, criterion)
    for i, entry in zip(admissible, scores):
        event = remaining[i]
        if entry is None:
            # Not fast-eligible: exact slow-path evaluation (max_vif
            # already enforced above, hence None here).
            evaluations[i] = _evaluate_candidate(
                dataset, selected, event, None, cov_type, "ols", criterion
            )
        else:
            score, r2, adj = entry
            evaluations[i] = ("ok", event, score, r2, adj)
    return evaluations  # type: ignore[return-value]


def select_events(
    dataset: PowerDataset,
    n_events: int,
    *,
    candidates: Optional[Sequence[str]] = None,
    criterion: str = "r2",
    max_vif: Optional[float] = None,
    cov_type: str = "HC3",
    estimator: str = "ols",
    on_missing: str = "raise",
) -> SelectionResult:
    """Run Algorithm 1 on a dataset.

    Parameters
    ----------
    dataset:
        Selection data — the paper uses all workloads at a fixed
        2400 MHz.
    n_events:
        ``#Events``: how many counters to select.
    candidates:
        Candidate pool (default: all 54 counters of the dataset).
    criterion:
        Scoring function for the greedy step (``r2`` is Algorithm 1).
    max_vif:
        If given, a candidate whose inclusion pushes the mean VIF of
        the selected *rate* columns above this bound is skipped — the
        VIF-constrained variant studied in the ablation benchmark.
    cov_type:
        Covariance estimator for the per-step fits.
    estimator:
        ``"ols"`` (Algorithm 1 as published) or ``"huber"`` for the
        outlier-robust IRLS variant.
    on_missing:
        What to do with candidates absent from the dataset (a degraded
        campaign may have dropped entire counters): ``"raise"`` keeps
        the strict historical ``KeyError``; ``"skip"`` drops them from
        the pool and records a selection-level warning.

    OLS candidates are scored through the Gram-cache kernel
    (:mod:`repro.stats.fastfit`); a candidate it cannot certify
    well-conditioned, and every Huber candidate, is fitted exactly.

    Determinism
    -----------
    Candidates are scanned in pool order and a challenger must *strictly*
    beat the incumbent, so exact criterion ties resolve to the earliest
    pool entry and reruns on identical data reproduce bit-identical
    selections.  Observed ties are recorded in the step's ``warnings``.
    """
    if criterion not in CRITERIA:
        raise ValueError(
            f"unknown criterion {criterion!r}; available: {sorted(CRITERIA)}"
        )
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"estimator must be one of {ESTIMATORS}, got {estimator!r}"
        )
    if on_missing not in ("raise", "skip"):
        raise ValueError(
            f"on_missing must be 'raise' or 'skip', got {on_missing!r}"
        )
    pool = list(candidates) if candidates is not None else list(dataset.counter_names)
    run_warnings: List[str] = []
    missing = [c for c in pool if c not in dataset.counter_names]
    if missing:
        if on_missing == "raise":
            raise KeyError(f"candidate {missing[0]!r} not in dataset")
        pool = [c for c in pool if c not in set(missing)]
        run_warnings.append(
            f"dropped {len(missing)} missing candidate(s): "
            + ", ".join(sorted(missing))
        )
    if n_events < 1:
        raise ValueError("must select at least one event")
    if not pool:
        raise ValueError("no candidates left after dropping missing counters")
    if n_events > len(pool):
        if on_missing == "skip":
            run_warnings.append(
                f"requested {n_events} events but only {len(pool)} "
                "candidates remain; selecting all of them"
            )
            n_events = len(pool)
        else:
            raise ValueError(
                f"cannot select {n_events} events from {len(pool)} candidates"
            )

    cache: Optional[GramCache] = None
    pool_pos: dict = {}
    if estimator == "ols":
        cache = GramCache(
            dataset.power_w,
            design_matrix(dataset, pool),
            dataset.counter_matrix(pool),
        )
        pool_pos = {event: i for i, event in enumerate(pool)}
    selected: List[str] = []
    steps: List[SelectionStep] = []
    remaining = list(pool)

    while len(selected) < n_events:
        best: Optional[Tuple[str, float, float, float]] = None
        step_warnings: List[str] = []
        scores: List[Tuple[str, float]] = []
        if cache is not None:
            evaluations = _fast_step_evaluations(
                dataset, cache, pool_pos, selected, remaining,
                max_vif, cov_type, criterion,
            )
        else:
            evaluations = [
                _evaluate_candidate(
                    dataset, selected, event, max_vif, cov_type, estimator,
                    criterion,
                )
                for event in remaining
            ]
        # Reduce in pool order.
        for evaluation in evaluations:
            tag = evaluation[0]
            if tag == "vif":
                continue
            if tag == "error":
                _, event, message = evaluation
                step_warnings.append(
                    f"candidate {event!r} skipped: {message}"
                )
                continue
            _, event, score, r2, adj = evaluation
            scores.append((event, score))
            if best is None or score > best[1]:
                best = (event, score, r2, adj)
        if best is None:
            # Every remaining candidate violates the VIF constraint
            # or failed to fit on the degraded data.
            if step_warnings:
                run_warnings.extend(step_warnings)
            run_warnings.append(
                f"selection stopped early at {len(selected)} of "
                f"{n_events} events: no admissible candidate remains"
            )
            break
        event, score, r2, adj = best
        ties = [
            e
            for e, s in scores
            if e != event and s == score  # exact tie detection is intentional
        ]
        if ties:
            step_warnings.append(
                f"criterion tie with {', '.join(sorted(ties))}; kept "
                f"{event!r} (earliest in pool order)"
            )
        selected.append(event)
        remaining.remove(event)
        if cache is not None:
            vif = cache.mean_vif([pool_pos[e] for e in selected])
        else:
            vif = mean_vif(dataset.counter_matrix(selected))
        if np.isinf(vif):
            step_warnings.append(
                "mean VIF is infinite: selected set contains perfectly "
                "collinear columns"
            )
        steps.append(
            SelectionStep(
                counter=event,
                rsquared=r2,
                rsquared_adj=adj,
                mean_vif=vif,
                criterion_value=score,
                warnings=tuple(step_warnings),
            )
        )
    return SelectionResult(
        steps=tuple(steps),
        criterion=criterion,
        warnings=tuple(run_warnings),
    )

