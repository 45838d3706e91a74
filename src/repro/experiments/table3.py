"""Table III — PCC of the selected counters with power (Section V).

Reproduced claims: the first selected counter correlates strongly with
power; the later ones individually correlate weakly (they contribute
*unique* information), including one with near-zero correlation that is
selected regardless (BR_MSP in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.acquisition.dataset import PowerDataset
from repro.core.analysis import counter_power_pcc
from repro.core.report import render_table
from repro.experiments import json_ready
from repro.experiments.data import selected_counters, selection_dataset
from repro.experiments.paper_values import PAPER_TABLE3
from repro.seeding import DEFAULT_SEED

__all__ = ["Table3Result", "run"]


@dataclass(frozen=True)
class Table3Result:
    """PCC per selected counter."""

    pcc: Dict[str, float]

    def first_counter_pcc(self) -> float:
        return next(iter(self.pcc.values()))

    def weak_counters(self, threshold: float = 0.6) -> List[str]:
        """Selected counters with weak individual correlation."""
        items = list(self.pcc.items())
        return [name for name, v in items[1:] if abs(v) < threshold]

    def to_dict(self) -> dict:
        return json_ready(
            {
                "pcc": self.pcc,
                "first_counter_pcc": self.first_counter_pcc(),
                "weak_counters": self.weak_counters(),
            }
        )

    def render(self) -> str:
        paper_items = list(PAPER_TABLE3.items())
        rows = []
        for i, (name, value) in enumerate(self.pcc.items()):
            p_name, p_v = paper_items[i] if i < len(paper_items) else ("-", float("nan"))
            rows.append((name, value, p_name, p_v))
        out = render_table(
            ["counter", "PCC", "paper counter", "paper PCC"],
            rows,
            title="Table III: PCC of selected counters with power",
        )
        out += (
            f"\nfirst counter PCC: {self.first_counter_pcc():.2f} "
            f"(paper: {PAPER_TABLE3['PRF_DM']}), "
            f"weak later counters: {', '.join(self.weak_counters()) or 'none'}"
        )
        return out


def run(
    dataset: Optional[PowerDataset] = None,
    *,
    counters: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
) -> Table3Result:
    """Regenerate Table III."""
    ds = dataset if dataset is not None else selection_dataset(seed=seed)
    cs = tuple(counters) if counters is not None else selected_counters(seed=seed)
    sig = counter_power_pcc(ds)
    return Table3Result(pcc={c: sig.pcc[c] for c in cs})
