"""Wire types of the online estimation kernel.

A monitored node reports one :class:`NodeSample` per sampling interval;
samples are packed into column-major :class:`Batch` matrices (nodes ×
counters) that :class:`repro.serve.fleet.FleetEstimator` steps in one
vectorized pass — a fleet service's shard, or the single row of the
one-node :class:`~repro.core.online.OnlineEstimator`.  The batch layout
keeps apart everything the step contract distinguishes: a *missing*
counter (absent key or ``None``), a *non-finite* delta and a *negative*
delta are different degradations with different messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NodeSample", "Batch", "make_batch"]


@dataclass(frozen=True)
class NodeSample:
    """One node's counter deltas for one sampling interval."""

    node_id: str
    counter_deltas: Dict[str, float]
    """Raw event counts accumulated over the interval.  Keys the model
    needs but the node failed to report are absent (or ``None``)."""
    interval_s: float
    voltage_v: float
    frequency_mhz: float
    time_s: Optional[float] = None


@dataclass(frozen=True)
class Batch:
    """Validated samples in (nodes × counters) column-major form.

    ``deltas[i, k]`` is row *i*'s delta for ``counters[k]``;
    ``present[i, k]`` is False where the sample did not carry that
    counter at all (NaN in ``deltas`` with ``present`` True means the
    node *reported* a non-finite value — a different fault).
    ``time_valid[i]`` is False where the sample carried no timestamp.
    The same ``node_id`` may appear in several rows (duplicate reports);
    row order is the arrival order the serial path would see.
    """

    counters: Tuple[str, ...]
    node_ids: Tuple[str, ...]
    deltas: np.ndarray
    present: np.ndarray
    interval_s: np.ndarray
    voltage_v: np.ndarray
    frequency_mhz: np.ndarray
    time_s: np.ndarray
    time_valid: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.node_ids)

    def row_sample(self, i: int) -> NodeSample:
        """Row *i* back as a :class:`NodeSample` — the identity tests
        feed the same rows to the kernel and to a reference."""
        deltas = {
            counter: float(self.deltas[i, k])
            for k, counter in enumerate(self.counters)
            if self.present[i, k]
        }
        return NodeSample(
            node_id=self.node_ids[i],
            counter_deltas=deltas,
            interval_s=float(self.interval_s[i]),
            voltage_v=float(self.voltage_v[i]),
            frequency_mhz=float(self.frequency_mhz[i]),
            time_s=float(self.time_s[i]) if self.time_valid[i] else None,
        )


def make_batch(
    samples: Sequence[NodeSample], counters: Sequence[str]
) -> Batch:
    """Pack samples into a :class:`Batch` over the model's counters.

    Counters a sample carries beyond the model's set are ignored;
    absent (or ``None``) counters become ``present=False`` holes.
    """
    counters = tuple(counters)
    n, k = len(samples), len(counters)
    deltas = np.full((n, k), np.nan, dtype=np.float64)
    present = np.zeros((n, k), dtype=bool)
    interval_s = np.empty(n, dtype=np.float64)
    voltage_v = np.empty(n, dtype=np.float64)
    frequency_mhz = np.empty(n, dtype=np.float64)
    time_s = np.full(n, np.nan, dtype=np.float64)
    time_valid = np.zeros(n, dtype=bool)
    node_ids = []
    for i, sample in enumerate(samples):
        node_ids.append(sample.node_id)
        for j, counter in enumerate(counters):
            value = sample.counter_deltas.get(counter)
            if value is not None:
                present[i, j] = True
                deltas[i, j] = float(value)
        interval_s[i] = float(sample.interval_s)
        voltage_v[i] = float(sample.voltage_v)
        frequency_mhz[i] = float(sample.frequency_mhz)
        if sample.time_s is not None:
            time_s[i] = float(sample.time_s)
            time_valid[i] = True
    return Batch(
        counters=counters,
        node_ids=tuple(node_ids),
        deltas=deltas,
        present=present,
        interval_s=interval_s,
        voltage_v=voltage_v,
        frequency_mhz=frequency_mhz,
        time_s=time_s,
        time_valid=time_valid,
    )
