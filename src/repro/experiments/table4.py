"""Table IV — counters selected on the synthetic workloads only.

Reproduced claims: selecting on the roco2 subset yields a *different*
counter set than selecting on all workloads, and the multicollinearity
of the selected set is worse (the paper sees the mean VIF jump to ≈9
and ≈13.6 at the fifth and sixth counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.acquisition.dataset import PowerDataset
from repro.core.report import render_table
from repro.core.selection import SelectionResult, select_events
from repro.experiments import json_ready, step_dict
from repro.experiments.data import selection_dataset, selection_result
from repro.experiments.paper_values import PAPER_TABLE4
from repro.seeding import DEFAULT_SEED

__all__ = ["Table4Result", "run"]


@dataclass(frozen=True)
class Table4Result:
    """roco2-only selection next to the all-workload selection."""

    synthetic_selection: SelectionResult
    all_workload_selection: SelectionResult

    def differs_from_all_workloads(self) -> bool:
        return set(self.synthetic_selection.selected) != set(
            self.all_workload_selection.selected
        )

    def n_common(self) -> int:
        return len(
            set(self.synthetic_selection.selected)
            & set(self.all_workload_selection.selected)
        )

    def final_vif(self) -> float:
        return self.synthetic_selection.steps[-1].mean_vif

    def vif_ratio_vs_all(self) -> float:
        """Final mean VIF of the synthetic selection relative to the
        all-workload selection at the same step count."""
        n = len(self.synthetic_selection.steps)
        all_steps = self.all_workload_selection.steps[:n]
        return self.final_vif() / all_steps[-1].mean_vif

    def to_dict(self) -> dict:
        return json_ready(
            {
                "steps": [step_dict(s) for s in self.synthetic_selection.steps],
                "differs_from_all_workloads": self.differs_from_all_workloads(),
                "n_common": self.n_common(),
                "final_mean_vif": self.final_vif(),
                "vif_ratio_vs_all": self.vif_ratio_vs_all(),
            }
        )

    def render(self) -> str:
        rows = []
        paper = list(PAPER_TABLE4) + [(None, None, None, None)] * 10
        for step, (p_name, p_r2, _p_adj, p_vif) in zip(
            self.synthetic_selection.steps, paper
        ):
            rows.append(
                (
                    step.counter,
                    step.rsquared,
                    step.rsquared_adj,
                    step.mean_vif,
                    p_name or "-",
                    p_r2 if p_r2 is not None else float("nan"),
                    p_vif if p_vif is not None else float("nan"),
                )
            )
        out = render_table(
            [
                "counter",
                "R2",
                "Adj.R2",
                "mean VIF",
                "paper counter",
                "paper R2",
                "paper VIF",
            ],
            rows,
            title="Table IV: counters selected on synthetic workloads only",
        )
        out += (
            f"\ndiffers from all-workload selection: "
            f"{self.differs_from_all_workloads()} "
            f"({self.n_common()} counters in common); "
            f"final mean VIF {self.final_vif():.2f} = "
            f"{self.vif_ratio_vs_all():.1f}x the all-workload selection's"
        )
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    n_events: int = 6,
    seed: int = DEFAULT_SEED,
) -> Table4Result:
    """Regenerate Table IV."""
    ds = dataset if dataset is not None else selection_dataset(seed=seed)
    synth = ds.filter(suite="roco2")
    return Table4Result(
        synthetic_selection=select_events(synth, n_events),
        all_workload_selection=selection_result(seed=seed, n_events=n_events)
        if dataset is None
        else select_events(ds, n_events),
    )
