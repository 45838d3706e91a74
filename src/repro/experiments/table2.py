"""Table II — 10-fold cross validation summary.

Per-fold training-fit :math:`R^2` / adjusted :math:`R^2` and held-out
MAPE over all workloads across the five DVFS states, reported as
min / max / mean as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.core.report import render_table
from repro.core.scenarios import cv_out_of_fold_predictions
from repro.experiments import json_ready
from repro.experiments.data import full_dataset, selected_counters
from repro.experiments.paper_values import PAPER_TABLE2
from repro.seeding import DEFAULT_SEED

__all__ = ["Table2Result", "run"]


@dataclass(frozen=True)
class Table2Result:
    """min/max/mean of R², Adj.R² and MAPE over the folds."""

    counters: Tuple[str, ...]
    fold_r2: Tuple[float, ...]
    fold_adj_r2: Tuple[float, ...]
    fold_mape: Tuple[float, ...]

    def summary(self) -> Dict[str, Tuple[float, float, float]]:
        out = {}
        for name, vals in (
            ("R2", self.fold_r2),
            ("Adj.R2", self.fold_adj_r2),
            ("MAPE", self.fold_mape),
        ):
            arr = np.asarray(vals)
            out[name] = (float(arr.min()), float(arr.max()), float(arr.mean()))
        return out

    def r2_adj_gap(self) -> float:
        """Mean R² minus mean Adj.R² — the paper notes ≈0.0004."""
        s = self.summary()
        return s["R2"][2] - s["Adj.R2"][2]

    def to_dict(self) -> dict:
        return json_ready(
            {
                "counters": self.counters,
                "summary": {
                    k: {"min": v[0], "max": v[1], "mean": v[2]}
                    for k, v in self.summary().items()
                },
                "fold_r2": self.fold_r2,
                "fold_adj_r2": self.fold_adj_r2,
                "fold_mape": self.fold_mape,
                "r2_adj_gap": self.r2_adj_gap(),
            }
        )

    def render(self) -> str:
        rows = []
        for metric, (mn, mx, mean) in self.summary().items():
            p = PAPER_TABLE2[metric]
            rows.append((metric, mn, mx, mean, p[0], p[1], p[2]))
        out = render_table(
            ["metric", "min", "max", "mean", "paper min", "paper max", "paper mean"],
            rows,
            title=(
                "Table II: 10-fold cross validation "
                f"(counters: {', '.join(self.counters)})"
            ),
        )
        out += f"\nmean R2 - mean Adj.R2 = {self.r2_adj_gap():.4f} (paper: 0.0004)"
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    counters: Optional[Sequence[str]] = None,
    n_splits: int = 10,
    seed: int = DEFAULT_SEED,
) -> Table2Result:
    """Regenerate Table II."""
    ds = dataset if dataset is not None else full_dataset(seed=seed)
    cs = tuple(counters) if counters is not None else selected_counters(seed=seed)
    _preds, fold_mapes, fold_fits = cv_out_of_fold_predictions(
        ds, cs, n_splits=n_splits, seed=seed
    )
    return Table2Result(
        counters=cs,
        fold_r2=tuple(f["r2"] for f in fold_fits),
        fold_adj_r2=tuple(f["adj_r2"] for f in fold_fits),
        fold_mape=fold_mapes,
    )
