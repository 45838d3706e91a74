"""Fig. 5 — actual vs estimated average power per experiment.

Two scatters: (a) scenario 2, training with synthetic workloads and
verifying on SPEC; (b) scenario 3, 10-fold CV over everything.  Each
data point is one experiment (workload × frequency × thread count).

Reproduced claims:

* 5a shows *systematic* per-workload bias largely independent of
  frequency and thread count (md and nab consistently overestimated);
* 5b shows no gross over/under-estimation tendency and residuals whose
  absolute size grows with power (heteroscedasticity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.core.report import render_table
from repro.core.scenarios import (
    ScenarioResult,
    scenario_cv_all,
    scenario_synthetic_to_spec,
)
from repro.experiments import json_ready
from repro.experiments.data import full_dataset, selected_counters
from repro.seeding import DEFAULT_SEED
from repro.stats.correlation import pearson

__all__ = ["Fig5Result", "run"]

ScatterRow = Tuple[str, str, int, int, float, float]
_SCATTER_COLUMNS = ("workload", "suite", "frequency_mhz", "threads", "actual_w", "predicted_w")


@dataclass(frozen=True)
class Fig5Result:
    """Both panels of Fig. 5."""

    scenario2: ScenarioResult
    scenario3: ScenarioResult

    @property
    def scatter_a(self) -> List[ScatterRow]:
        return self.scenario2.experiment_scatter()

    @property
    def scatter_b(self) -> List[ScatterRow]:
        return self.scenario3.experiment_scatter()

    # ------------------------------------------------------------------
    def systematic_bias_workloads(
        self, threshold_w: float = 5.0
    ) -> Dict[str, float]:
        """Workloads of panel (a) whose per-experiment signed errors all
        share one sign and exceed ``threshold_w`` on average — the
        'consistently over/underestimated' reading of Fig. 5a."""
        per_wl: Dict[str, List[float]] = {}
        for w, _s, _f, _t, actual, predicted in self.scatter_a:
            per_wl.setdefault(w, []).append(predicted - actual)
        out = {}
        for w, errs in per_wl.items():
            arr = np.asarray(errs)
            if abs(arr.mean()) >= threshold_w and (
                np.all(arr > 0) or np.all(arr < 0)
            ):
                out[w] = float(arr.mean())
        return out

    def heteroscedasticity_correlation(self) -> float:
        """corr(|residual|, power) over panel (b) — positive confirms
        the paper's residual reading."""
        actual = self.scenario3.validation.power_w
        resid = np.abs(actual - self.scenario3.predicted)
        return pearson(resid, actual)

    def overall_bias_b(self) -> float:
        """Mean signed error of panel (b), W (≈0 expected)."""
        return float(
            np.mean(self.scenario3.predicted - self.scenario3.validation.power_w)
        )

    def to_dict(self) -> dict:
        return json_ready(
            {
                "scatter_a": [dict(zip(_SCATTER_COLUMNS, r)) for r in self.scatter_a],
                "scatter_b": [dict(zip(_SCATTER_COLUMNS, r)) for r in self.scatter_b],
                "systematic_bias_w": self.systematic_bias_workloads(),
                "overall_bias_b_w": self.overall_bias_b(),
                "heteroscedasticity_correlation": self.heteroscedasticity_correlation(),
            }
        )

    def render(self) -> str:
        biased = self.systematic_bias_workloads()
        rows_a = [
            (w, f"{b:+.1f} W") for w, b in sorted(biased.items(), key=lambda kv: -abs(kv[1]))
        ]
        out = render_table(
            ["workload", "mean bias (pred-actual)"],
            rows_a,
            title=(
                "Fig. 5a (scenario 2): workloads with systematic bias "
                "(consistent sign, |bias| >= 5 W)"
            ),
        )
        out += (
            "\npaper: md and nab consistently overestimated when trained "
            "only on synthetic workloads.\n"
        )
        out += (
            f"\nFig. 5b (scenario 3): overall bias {self.overall_bias_b():+.2f} W "
            f"(no strong tendency), corr(|resid|, power) = "
            f"{self.heteroscedasticity_correlation():.3f} "
            "(positive => heteroscedastic, as the paper observes)"
        )
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    counters: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
) -> Fig5Result:
    """Regenerate both Fig. 5 scatters."""
    ds = dataset if dataset is not None else full_dataset(seed=seed)
    cs = tuple(counters) if counters is not None else selected_counters(seed=seed)
    return Fig5Result(
        scenario2=scenario_synthetic_to_spec(ds, cs),
        scenario3=scenario_cv_all(ds, cs, seed=seed),
    )
