"""Reproduction of every table and figure of the paper's evaluation.

One module per artifact; each exposes ``run(...)`` returning a result
object with a ``render()`` method that prints the regenerated rows next
to the paper's published values, and a ``to_dict()`` method that gives
the same result as plain JSON data (``repro-experiments --export-dir``
writes it; the EXPERIMENTS.md number check reads it).  ``runner``
provides the ``repro-experiments`` command-line interface;
:mod:`~repro.experiments.data` builds and caches the measurement
campaigns all experiments share.
"""

import math

from repro.experiments.data import (
    full_dataset,
    selection_dataset,
    selected_counters,
)

__all__ = ["full_dataset", "selection_dataset", "selected_counters"]


def json_ready(value):
    """``value`` as plain JSON data: tuples become lists and NaN/±inf
    floats ``None``, so ``json.dumps(..., allow_nan=False)`` accepts it."""
    if isinstance(value, dict):
        return {key: json_ready(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def step_dict(step) -> dict:
    """One Table I / Table IV row of a :class:`SelectionStep`."""
    return {
        "counter": step.counter,
        "r2": step.rsquared,
        "adj_r2": step.rsquared_adj,
        "mean_vif": step.mean_vif,
    }
