"""The four training scenarios of Section IV-B.

"To analyze the effect of unseen workloads on the power model and
assess its stability we consider four scenarios":

1. train on four random workloads (roco2 + SPEC), validate on the rest;
2. train on all roco2 workloads, validate on all SPEC OMP2012;
3. 10-fold cross validation over all experiments (Table II);
4. 10-fold cross validation over the roco2 experiments only.

The selected performance counters are held fixed across scenarios, as
in the paper ("due to practical considerations on the total amount of
measurements").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.core.features import design_matrix
from repro.core.model import PowerModel
from repro.seeding import DEFAULT_SEED, derive_rng
from repro.stats.crossval import KFold
from repro.stats.fastfit import FoldGramSolver
from repro.stats.metrics import bias, mape, r2_score

__all__ = [
    "ScenarioResult",
    "cv_out_of_fold_predictions",
    "scenario_random_workloads",
    "scenario_synthetic_to_spec",
    "scenario_cv_all",
    "scenario_cv_synthetic",
    "run_all_scenarios",
    "SCENARIO_NAMES",
]

SCENARIO_NAMES = (
    "1:random-workloads",
    "2:synthetic-to-spec",
    "3:cv-all",
    "4:cv-synthetic",
)


@dataclass(frozen=True)
class ScenarioResult:
    """Validation outcome of one scenario."""

    name: str
    validation: PowerDataset
    predicted: np.ndarray
    fold_mapes: Tuple[float, ...] = ()
    train_workloads: Tuple[str, ...] = ()
    aggregate: str = "mean"
    """How fold/draw MAPEs combine: ``mean`` (CV folds) or ``median``
    (robust statistic for the draw-dependent scenario 1)."""

    @property
    def mape(self) -> float:
        """Scenario MAPE: aggregated over folds/draws when present."""
        if self.fold_mapes:
            if self.aggregate == "median":
                return float(np.median(self.fold_mapes))
            return float(np.mean(self.fold_mapes))
        return mape(self.validation.power_w, self.predicted)

    @property
    def r2(self) -> float:
        return r2_score(self.validation.power_w, self.predicted)

    # ------------------------------------------------------------------
    def per_workload_mape(self) -> Dict[str, float]:
        """MAPE per workload across all DVFS states (Fig. 3)."""
        out: Dict[str, float] = {}
        names = np.array(self.validation.workloads)
        for w in dict.fromkeys(self.validation.workloads):
            m = names == w
            out[w] = mape(self.validation.power_w[m], self.predicted[m])
        return out

    def per_workload_bias(self) -> Dict[str, float]:
        """Mean signed error per workload — the Fig. 5a systematic-bias
        reading (positive = overestimated)."""
        out: Dict[str, float] = {}
        names = np.array(self.validation.workloads)
        for w in dict.fromkeys(self.validation.workloads):
            m = names == w
            out[w] = bias(self.validation.power_w[m], self.predicted[m])
        return out

    def experiment_scatter(
        self,
    ) -> List[Tuple[str, str, int, int, float, float]]:
        """Fig. 5 data points: one (workload, suite, freq, threads,
        actual mean, predicted mean) tuple per experiment, in first-seen
        order; each mean runs over the experiment's rows in index
        order."""
        v = self.validation
        members: Dict[Tuple[str, int, int], List[int]] = {}
        keys = zip(
            v.workloads,
            v.frequency_mhz.astype(np.int64).tolist(),
            v.threads.astype(np.int64).tolist(),
        )
        for i, key in enumerate(keys):
            members.setdefault(key, []).append(i)
        return [
            (
                w,
                v.suites[rows[0]],
                f,
                t,
                float(v.power_w[rows].mean()),
                float(self.predicted[rows].mean()),
            )
            for (w, f, t), rows in members.items()
        ]


# ----------------------------------------------------------------------
def _cv_fold(
    dataset: PowerDataset,
    counters: Sequence[str],
    cov_type: str,
    estimator: str,
    train: np.ndarray,
    test: np.ndarray,
) -> Tuple[np.ndarray, float, Dict[str, float]]:
    """Fit and score one CV fold.

    Returns (held-out predictions, fold MAPE, fit metrics).
    """
    model = PowerModel(counters, cov_type=cov_type, estimator=estimator)
    fitted = model.fit(dataset.subset(train))
    test_ds = dataset.subset(test)
    p = fitted.predict(test_ds)
    return (
        p,
        mape(test_ds.power_w, p),
        {"r2": fitted.rsquared, "adj_r2": fitted.rsquared_adj},
    )


def cv_out_of_fold_predictions(
    dataset: PowerDataset,
    counters: Sequence[str],
    *,
    n_splits: int = 10,
    seed: int = DEFAULT_SEED,
    cov_type: str = "HC3",
    estimator: str = "ols",
    issues: Optional[List[str]] = None,
) -> Tuple[np.ndarray, Tuple[float, ...], List[Dict[str, float]]]:
    """k-fold CV with random indexing: out-of-fold predictions.

    Returns (predictions aligned with dataset rows, per-fold MAPEs,
    per-fold fit metrics [R², Adj.R²]).  ``estimator="huber"`` runs the
    robust per-fold fits.  OLS folds are
    solved from Gram downdates (:mod:`repro.stats.fastfit`); a fold the
    solver declines is refitted exactly, and the decline count is
    recorded in ``issues``.
    """
    splits = list(
        KFold(n_splits, shuffle=True, seed=seed).split(dataset.n_samples)
    )
    counters = tuple(counters)
    # Constructing the model validates the counter list (duplicate
    # names) exactly as the per-fold fits would.
    PowerModel(counters, cov_type=cov_type, estimator=estimator)
    solver = (
        FoldGramSolver(dataset.power_w, design_matrix(dataset, list(counters)))
        if estimator == "ols"
        else None
    )
    outcomes = []
    n_declined = 0
    for train, test in splits:
        fit = None if solver is None else solver.solve_fold(train, test)
        if fit is None:
            # Huber, or a fold the solver declines (degraded or
            # degenerate train design): exact per-fold fit.
            if solver is not None:
                n_declined += 1
            outcomes.append(
                _cv_fold(dataset, counters, cov_type, estimator, train, test)
            )
            continue
        p = solver.predict(fit, test)
        outcomes.append(
            (
                p,
                mape(dataset.power_w[test], p),
                {"r2": fit.rsquared, "adj_r2": fit.rsquared_adj},
            )
        )
    if n_declined and issues is not None:
        # Declines mean borderline-degenerate fold designs — a
        # data-quality signal the audit layer (AU011) grades, so it
        # is recorded as provenance, not just lost to the fallback.
        issues.append(
            f"fastfit: {n_declined}/{len(splits)} fold(s) fell back "
            "to the exact fit path"
        )
    preds = np.full(dataset.n_samples, np.nan)
    fold_mapes: List[float] = []
    fold_fits: List[Dict[str, float]] = []
    for (train, test), (p, fold_mape, fits) in zip(splits, outcomes):
        preds[test] = p
        fold_mapes.append(fold_mape)
        fold_fits.append(fits)
    if np.any(np.isnan(preds)):  # pragma: no cover - KFold covers all rows
        raise AssertionError("incomplete out-of-fold coverage")
    return preds, tuple(fold_mapes), fold_fits


# ----------------------------------------------------------------------
def scenario_random_workloads(
    dataset: PowerDataset,
    counters: Sequence[str],
    *,
    n_train: int = 4,
    seed: int = DEFAULT_SEED,
    n_repeats: int = 9,
) -> ScenarioResult:
    """Scenario 1: train on ``n_train`` random workloads, validate on
    the rest.

    The paper draws the workloads "from roco2 and SPEC OMP2012" — read
    here as stratified over both suites (half each).  A 4-workload
    training set makes the outcome strongly draw-dependent, so the
    scenario is repeated ``n_repeats`` times with independent draws and
    the reported MAPE is the *median* over draws (``fold_mapes``
    carries the per-draw values — the long tail of draws without any
    memory-bound workload is the coefficient instability of [18],
    quantified separately in the selection-stability benchmark); the
    validation rows and predictions of all draws are concatenated for
    the per-workload analyses.
    """
    names = list(dict.fromkeys(dataset.workloads))
    if len(names) <= n_train:
        raise ValueError(
            f"need more than {n_train} workloads, have {len(names)}"
        )
    if n_repeats < 1:
        raise ValueError("n_repeats must be positive")
    suites_by_name = {}
    for w, s in zip(dataset.workloads, dataset.suites):
        suites_by_name.setdefault(w, s)
    synth = [n for n in names if suites_by_name[n] in ("roco2", "synthetic")]
    real = [n for n in names if n not in synth]

    all_train: List[str] = []
    valid_parts: List[PowerDataset] = []
    pred_parts: List[np.ndarray] = []
    draw_mapes: List[float] = []
    for repeat in range(n_repeats):
        rng = derive_rng(seed, "scenario1", repeat)
        if synth and real and n_train >= 2:
            n_real = min(n_train - n_train // 2, len(real))
            n_synth = n_train - n_real
            train_names = tuple(
                rng.choice(synth, size=n_synth, replace=False)
            ) + tuple(rng.choice(real, size=n_real, replace=False))
        else:
            train_names = tuple(rng.choice(names, size=n_train, replace=False))
        train = dataset.filter(workloads=train_names)
        valid = dataset.filter(
            workloads=[n for n in names if n not in train_names]
        )
        fitted = PowerModel(counters).fit(train)
        pred = fitted.predict(valid)
        draw_mapes.append(mape(valid.power_w, pred))
        valid_parts.append(valid)
        pred_parts.append(pred)
        all_train.extend(train_names)
    return ScenarioResult(
        name=SCENARIO_NAMES[0],
        validation=PowerDataset.concat(valid_parts),
        predicted=np.concatenate(pred_parts),
        fold_mapes=tuple(draw_mapes),
        train_workloads=tuple(dict.fromkeys(all_train)),
        aggregate="median",
    )


def scenario_synthetic_to_spec(
    dataset: PowerDataset, counters: Sequence[str]
) -> ScenarioResult:
    """Scenario 2: train on roco2 only, validate on SPEC OMP2012."""
    train = dataset.filter(suite="roco2")
    valid = dataset.filter(suite="spec_omp2012")
    if train.n_samples == 0 or valid.n_samples == 0:
        raise ValueError("dataset must contain both roco2 and SPEC rows")
    fitted = PowerModel(counters).fit(train)
    return ScenarioResult(
        name=SCENARIO_NAMES[1],
        validation=valid,
        predicted=fitted.predict(valid),
        train_workloads=tuple(dict.fromkeys(train.workloads)),
    )


def scenario_cv_all(
    dataset: PowerDataset,
    counters: Sequence[str],
    *,
    n_splits: int = 10,
    seed: int = DEFAULT_SEED,
    estimator: str = "ols",
    issues: Optional[List[str]] = None,
) -> ScenarioResult:
    """Scenario 3: 10-fold CV over all experiments (the Table II run)."""
    preds, fold_mapes, _ = cv_out_of_fold_predictions(
        dataset,
        counters,
        n_splits=n_splits,
        seed=seed,
        estimator=estimator,
        issues=issues,
    )
    return ScenarioResult(
        name=SCENARIO_NAMES[2],
        validation=dataset,
        predicted=preds,
        fold_mapes=fold_mapes,
    )


def scenario_cv_synthetic(
    dataset: PowerDataset,
    counters: Sequence[str],
    *,
    n_splits: int = 10,
    seed: int = DEFAULT_SEED,
    estimator: str = "ols",
    issues: Optional[List[str]] = None,
) -> ScenarioResult:
    """Scenario 4: 10-fold CV over the roco2 experiments only."""
    synth = dataset.filter(suite="roco2")
    if synth.n_samples == 0:
        raise ValueError("dataset contains no roco2 rows")
    preds, fold_mapes, _ = cv_out_of_fold_predictions(
        synth,
        counters,
        n_splits=n_splits,
        seed=seed,
        estimator=estimator,
        issues=issues,
    )
    return ScenarioResult(
        name=SCENARIO_NAMES[3],
        validation=synth,
        predicted=preds,
        fold_mapes=fold_mapes,
    )


def run_all_scenarios(
    dataset: PowerDataset,
    counters: Sequence[str],
    *,
    seed: int = DEFAULT_SEED,
    n_train_random: int = 4,
    issues: Optional[List[str]] = None,
) -> Dict[str, ScenarioResult]:
    """All four scenarios (Fig. 4), keyed by scenario name."""
    return {
        SCENARIO_NAMES[0]: scenario_random_workloads(
            dataset, counters, n_train=n_train_random, seed=seed
        ),
        SCENARIO_NAMES[1]: scenario_synthetic_to_spec(dataset, counters),
        SCENARIO_NAMES[2]: scenario_cv_all(
            dataset, counters, seed=seed, issues=issues
        ),
        SCENARIO_NAMES[3]: scenario_cv_synthetic(
            dataset, counters, seed=seed, issues=issues
        ),
    }
