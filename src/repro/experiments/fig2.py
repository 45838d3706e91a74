"""Fig. 2 — R² and Adj.R² versus number of selected counters.

The same greedy trajectory as Table I, read as two monotone series.
The paper's observation: Adj.R² tracks R² closely at every step, so the
added predictors carry real information rather than inflating R².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.acquisition.dataset import PowerDataset
from repro.core.report import render_table
from repro.core.selection import SelectionResult, select_events
from repro.experiments import json_ready
from repro.experiments.data import selection_dataset
from repro.experiments.paper_values import PAPER_TABLE1
from repro.seeding import DEFAULT_SEED

__all__ = ["Fig2Result", "run"]


@dataclass(frozen=True)
class Fig2Result:
    """The two series of Fig. 2."""

    selection: SelectionResult

    @property
    def r2_series(self) -> List[float]:
        return [s.rsquared for s in self.selection.steps]

    @property
    def adj_r2_series(self) -> List[float]:
        return [s.rsquared_adj for s in self.selection.steps]

    def max_r2_adj_gap(self) -> float:
        """Largest gap between R² and Adj.R² along the trajectory."""
        return max(
            r - a for r, a in zip(self.r2_series, self.adj_r2_series)
        )

    def is_monotone(self) -> bool:
        r = self.r2_series
        return all(b >= a - 1e-12 for a, b in zip(r, r[1:]))

    def to_dict(self) -> dict:
        return json_ready(
            {
                "counters": self.selection.selected,
                "r2": self.r2_series,
                "adj_r2": self.adj_r2_series,
                "max_r2_adj_gap": self.max_r2_adj_gap(),
                "monotone": self.is_monotone(),
            }
        )

    def render(self) -> str:
        rows = []
        for i, step in enumerate(self.selection.steps):
            paper_r2 = PAPER_TABLE1[i][1] if i < len(PAPER_TABLE1) else float("nan")
            paper_adj = PAPER_TABLE1[i][2] if i < len(PAPER_TABLE1) else float("nan")
            rows.append(
                (
                    f"{i + 1} ({step.counter})",
                    step.rsquared,
                    step.rsquared_adj,
                    paper_r2,
                    paper_adj,
                )
            )
        out = render_table(
            ["#counters", "R2", "Adj.R2", "paper R2", "paper Adj.R2"],
            rows,
            title="Fig. 2: R2 / Adj.R2 vs number of selected counters",
        )
        out += (
            f"\nmonotone R2: {self.is_monotone()}, "
            f"max R2-Adj.R2 gap: {self.max_r2_adj_gap():.4f}"
        )
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    n_events: int = 6,
    seed: int = DEFAULT_SEED,
) -> Fig2Result:
    """Regenerate the Fig. 2 series."""
    ds = dataset if dataset is not None else selection_dataset(seed=seed)
    return Fig2Result(selection=select_events(ds, n_events))
