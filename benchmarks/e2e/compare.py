"""``python -m benchmarks.e2e compare PARENT.jsonl CHANGE.jsonl``.

Each file holds the records ``run --out`` appends, one per workload run.
The i-th run of a workload in one file is paired with the i-th run of
the same workload (and trace mode) in the other.  Per (workload,
metric) the verdict is:

``gain``
    The change is better in at least 9 of every 10 pairs (ties count
    for neither side) and its median beats the parent's by more than the
    parent's interquartile distance.
``regression``
    The change's median is worse than the parent's by more than the
    metric's bound (a share of the parent median, from BENCHMARK.json).
``unresolved``
    The run-to-run spread (interquartile distance over median) of either
    side is wider than the bound, and not every change run is better
    than every parent run, so a worsening within the noise cannot be
    ruled out.
``within bound``
    None of the above.
``failing``
    The change failed more operations than the parent.

Per-layer metrics (traced records) have no bound; their rows are
informational.  The command needs at least 10 pairs per workload, run
in alternating order (checked from the records' start times), and exits
1 on a regression or failing workload, 2 on unusable input (too few
pairs, one-sided order, or a failed parent run).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import stats

__all__ = ["MIN_PAIRS", "judge", "main"]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Tuple[str, Dict[str, float]]:
    """Verdict for one metric over paired runs, with the numbers behind it."""
    if len(parent) != len(change) or not parent:
        raise ValueError("judge needs the same non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, p_med, p3 = stats.quartiles(parent)
    _c1, c_med, _c3 = stats.quartiles(change)
    gap = sign * (c_med - p_med)
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    detail = {
        "pairs": len(parent),
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": p3 - p1,
        "change_vs_parent": (c_med - p_med) / abs(p_med) if p_med else float("inf"),
    }
    if bound is None:
        return "info", detail
    noisy = max(stats.spread(parent), stats.spread(change)) > bound
    if gap > 0 and wins >= WIN_SHARE * len(parent) and gap > p3 - p1:
        return "gain", detail
    if -gap > bound * abs(p_med):
        return "regression", detail
    if noisy and not all_better:
        return "unresolved", detail
    return "within bound", detail


def _load(path: str) -> Dict[Tuple[str, int], List[dict]]:
    runs: Dict[Tuple[str, int], List[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent_runs, change_runs = _load(parent_path), _load(change_path)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        print("no workload recorded in both files")
        return 2
    print(f"{'workload':<12}{'metric':<26}{'parent median [IQR]':>34}"
          f"{'change median [IQR]':>34}{'change vs parent':>30}{'wins':>8}  verdict")
    for workload, trace in keys:
        parents, changes = parent_runs[(workload, trace)], change_runs[(workload, trace)]
        n = min(len(parents), len(changes))
        parents, changes = parents[:n], changes[:n]
        label = workload + (" (traced)" if trace else "")
        parent_first = sum(p["started_unix"] < c["started_unix"]
                           for p, c in zip(parents, changes))
        if n < MIN_PAIRS or abs(2 * parent_first - n) > 1:
            print(f"{label:<12}needs >= {MIN_PAIRS} pairs in alternating order; "
                  f"has {n}, parent first in {parent_first}")
            status = max(status, 2)
            continue
        # A failed run records no metrics, so the parent side has no
        # baseline to judge against.
        bad = [i for i, p in enumerate(parents) if not p["result"]["correct"]]
        if bad:
            print(f"{label:<12}parent run(s) {bad} failed; the parent side is unusable")
            status = max(status, 2)
            continue
        failed_p = sum(p["result"]["failed"] for p in parents)
        failed_c = sum(c["result"]["failed"] for c in changes)
        if failed_c > failed_p or not all(c["result"]["correct"] for c in changes):
            print(f"{label:<12}{'operations failed':<26}{failed_p:>34}{failed_c:>34}"
                  f"{'':>30}{'':>8}  failing")
            status = 1
            continue
        names = sorted(set(parents[0]["result"]["metrics"])
                       & set(changes[0]["result"]["metrics"]))
        for name in names:
            p_vals = [p["result"]["metrics"][name]["value"] for p in parents]
            c_vals = [c["result"]["metrics"][name]["value"] for c in changes]
            unit = parents[0]["result"]["metrics"][name]["unit"]
            verdict, d = judge(p_vals, c_vals, specs[name]["better"], bounds.get(name))
            p1, _, p3 = stats.quartiles(p_vals)
            c1, _, c3 = stats.quartiles(c_vals)
            ratio = (f"{100 * d['change_vs_parent']:+.1f} % of {_fmt(d['parent_median'])}"
                     if d["parent_median"] else "parent median 0")
            print(
                f"{label:<12}{name:<26}"
                f"{_fmt(d['parent_median']) + ' [' + _fmt(p1) + '..' + _fmt(p3) + '] ' + unit:>34}"
                f"{_fmt(d['change_median']) + ' [' + _fmt(c1) + '..' + _fmt(c3) + '] ' + unit:>34}"
                f"{ratio:>30}{str(d['wins']) + '/' + str(n):>8}  {verdict}"
            )
            if verdict == "regression":
                status = max(status, 1)
    print("change vs parent: (change median - parent median) as a share of the "
          "parent median; wins: pairs where the change is better")
    return status
