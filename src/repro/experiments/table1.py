"""Table I — performance counters selected on all workloads.

Also reproduces the Section IV-A extension (X1): letting Algorithm 1
select further counters eventually adds one whose extra information is
nearly a linear combination of the already-selected events, raising
:math:`R^2` marginally while the mean VIF crosses the
multicollinearity threshold (the paper's CA_SNP anomaly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.acquisition.dataset import PowerDataset
from repro.core.report import render_table
from repro.core.selection import SelectionResult, SelectionStep, select_events
from repro.experiments import json_ready, step_dict
from repro.experiments.data import selection_dataset
from repro.experiments.paper_values import PAPER_TABLE1, PAPER_TABLE1_EXTENDED
from repro.seeding import DEFAULT_SEED
from repro.stats.vif import VIF_PROBLEM_THRESHOLD

__all__ = ["Table1Result", "run"]


@dataclass(frozen=True)
class Table1Result:
    """Regenerated Table I plus the extended-selection anomaly."""

    selection: SelectionResult
    extended: SelectionResult
    """Selection continued past six counters (for the VIF blow-up)."""

    @property
    def steps(self) -> Tuple[SelectionStep, ...]:
        return self.selection.steps

    def unstable_step(self) -> Optional[SelectionStep]:
        """First extended step whose mean VIF exceeds the threshold."""
        idx = self.extended.first_unstable_step()
        if idx is None:
            return None
        return self.extended.steps[idx - 1]

    def to_dict(self) -> dict:
        return json_ready(
            {
                "steps": [step_dict(s) for s in self.steps],
                "extended_steps": [step_dict(s) for s in self.extended.steps],
                "first_unstable_step": self.extended.first_unstable_step(),
            }
        )

    def render(self) -> str:
        rows = []
        paper = list(PAPER_TABLE1) + [(None, None, None, None)] * 10
        for step, (p_name, p_r2, p_adj, p_vif) in zip(self.steps, paper):
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
            title="Table I: selected performance counters (all workloads)",
        )
        unstable = self.unstable_step()
        p_name, p_r2, p_vif = PAPER_TABLE1_EXTENDED
        if unstable is not None:
            pos = self.extended.first_unstable_step()
            out += (
                f"\nExtended selection: step {pos} adds {unstable.counter} "
                f"(R2={unstable.rsquared:.3f}) but mean VIF rises to "
                f"{unstable.mean_vif:.2f} (> {VIF_PROBLEM_THRESHOLD:.0f}).\n"
                f"Paper: 7th counter {p_name} raises R2 to {p_r2} with "
                f"mean VIF {p_vif}."
            )
        else:
            out += (
                "\nExtended selection stayed below the VIF threshold "
                f"within {len(self.extended.steps)} steps "
                f"(paper: 7th counter {p_name} blew up to VIF {p_vif})."
            )
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    n_events: int = 6,
    extended_events: int = 10,
    seed: int = DEFAULT_SEED,
) -> Table1Result:
    """Regenerate Table I (and the extended-selection anomaly)."""
    ds = dataset if dataset is not None else selection_dataset(seed=seed)
    extended = select_events(ds, extended_events)
    truncated = SelectionResult(
        steps=extended.steps[:n_events], criterion=extended.criterion
    )
    return Table1Result(selection=truncated, extended=extended)
