"""Fig. 6 — PCC of all 54 PAPI counters with power.

Reproduced claims: counter families form blocks of similar correlation
(members of one family are mutually correlated), and the statistically
selected counters are *not* simply the top-correlated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.core.analysis import counter_power_pcc
from repro.core.report import render_series
from repro.experiments import json_ready
from repro.experiments.data import selected_counters, selection_dataset
from repro.hardware.counters import PAPI_PRESETS
from repro.seeding import DEFAULT_SEED

__all__ = ["Fig6Result", "run"]


@dataclass(frozen=True)
class Fig6Result:
    """PCC of every counter, canonical order, plus the selected set."""

    pcc: Dict[str, float]
    selected: Tuple[str, ...]

    def family_spread(self) -> Dict[str, float]:
        """Std-dev of PCC within each counter group — small values mean
        family members carry near-identical information (the Fig. 6
        block structure)."""
        groups: Dict[str, List[float]] = {}
        for spec in PAPI_PRESETS:
            groups.setdefault(spec.group, []).append(self.pcc[spec.name])
        return {g: float(np.std(v)) for g, v in groups.items() if len(v) > 1}

    def selected_rank_by_pcc(self) -> Dict[str, int]:
        """|PCC| rank (1 = strongest) of each selected counter."""
        ranked = sorted(self.pcc.items(), key=lambda kv: -abs(kv[1]))
        ranks = {name: i + 1 for i, (name, _) in enumerate(ranked)}
        return {c: ranks[c] for c in self.selected}

    def to_dict(self) -> dict:
        return json_ready(
            {
                "pcc": self.pcc,
                "selected": self.selected,
                "selected_rank_by_pcc": self.selected_rank_by_pcc(),
            }
        )

    def render(self) -> str:
        out = render_series(
            self.pcc,
            title="Fig. 6: PCC of all PAPI counters with power",
        )
        ranks = self.selected_rank_by_pcc()
        out += "\nselected counters' |PCC| ranks: " + ", ".join(
            f"{c}#{r}" for c, r in ranks.items()
        )
        out += (
            "\n(the selection is not the top-|PCC| list — later counters "
            "carry unique rather than redundant information)"
        )
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    counters: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
) -> Fig6Result:
    """Regenerate the Fig. 6 series."""
    ds = dataset if dataset is not None else selection_dataset(seed=seed)
    cs = tuple(counters) if counters is not None else selected_counters(seed=seed)
    sig = counter_power_pcc(ds)
    ordered = {name: sig.pcc[name] for name in ds.counter_names}
    return Fig6Result(pcc=ordered, selected=cs)
