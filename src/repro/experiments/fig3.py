"""Fig. 3 — per-workload MAPE across all DVFS states.

Out-of-fold CV predictions (the Table II model) grouped by workload.
The paper's claims: the maximum error occurs for the SPEC benchmark
ilbdc, the minimum for the roco2 kernel sqrt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.acquisition.dataset import PowerDataset
from repro.core.report import render_series
from repro.core.scenarios import scenario_cv_all
from repro.experiments import json_ready
from repro.experiments.data import full_dataset, selected_counters
from repro.experiments.paper_values import PAPER_FIG3_CLAIMS
from repro.seeding import DEFAULT_SEED

__all__ = ["Fig3Result", "run"]


@dataclass(frozen=True)
class Fig3Result:
    """Per-workload MAPE series."""

    per_workload_mape: Dict[str, float]
    suites: Dict[str, str]

    def worst(self) -> Tuple[str, float]:
        return max(self.per_workload_mape.items(), key=lambda kv: kv[1])

    def best(self) -> Tuple[str, float]:
        return min(self.per_workload_mape.items(), key=lambda kv: kv[1])

    def to_dict(self) -> dict:
        return json_ready(
            {
                "per_workload": {
                    w: {"suite": self.suites[w], "mape_percent": m}
                    for w, m in self.per_workload_mape.items()
                },
                "worst": dict(zip(("workload", "mape_percent"), self.worst())),
                "best": dict(zip(("workload", "mape_percent"), self.best())),
            }
        )

    def render(self) -> str:
        out = render_series(
            self.per_workload_mape,
            title="Fig. 3: per-workload MAPE across all DVFS states",
            unit="%",
        )
        w, wv = self.worst()
        b, bv = self.best()
        out += (
            f"\nworst: {w} ({wv:.2f} %)   best: {b} ({bv:.2f} %)\n"
            f"paper: worst={PAPER_FIG3_CLAIMS['max']}, "
            f"best={PAPER_FIG3_CLAIMS['min']}"
        )
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    counters: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
) -> Fig3Result:
    """Regenerate the Fig. 3 series."""
    ds = dataset if dataset is not None else full_dataset(seed=seed)
    cs = tuple(counters) if counters is not None else selected_counters(seed=seed)
    scenario = scenario_cv_all(ds, cs, seed=seed)
    suites = {}
    for w, s in zip(ds.workloads, ds.suites):
        suites.setdefault(w, s)
    return Fig3Result(
        per_workload_mape=scenario.per_workload_mape(), suites=suites
    )
