"""The regression dataset assembled from merged phase profiles.

Each row is one phase profile of one experiment (workload × frequency ×
thread count), carrying the 54 counter rates in events per cpu cycle
(the :math:`E_n` of Equation 1), the averaged power and voltage, and
identification columns used by the scenario splits and per-workload
error analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hardware.counters import COUNTER_NAMES
from repro.io.atomic import atomic_savez

__all__ = ["PowerDataset", "ExperimentKey"]

#: Identification of one experiment (a Fig. 5 data point).
ExperimentKey = Tuple[str, int, int]  # (workload, frequency_mhz, threads)


@dataclass(frozen=True)
class PowerDataset:
    """Immutable column-oriented regression dataset."""

    counters: np.ndarray
    """(n, 54) event rates per cpu cycle, canonical counter order."""
    power_w: np.ndarray
    voltage_v: np.ndarray
    frequency_mhz: np.ndarray
    threads: np.ndarray
    workloads: Tuple[str, ...]
    suites: Tuple[str, ...]
    phase_names: Tuple[str, ...]
    counter_names: Tuple[str, ...] = COUNTER_NAMES

    def __post_init__(self) -> None:
        n = self.counters.shape[0]
        if self.counters.ndim != 2 or self.counters.shape[1] != len(
            self.counter_names
        ):
            raise ValueError(
                f"counters must be (n, {len(self.counter_names)}), "
                f"got {self.counters.shape}"
            )
        for name, arr in (
            ("power_w", self.power_w),
            ("voltage_v", self.voltage_v),
            ("frequency_mhz", self.frequency_mhz),
            ("threads", self.threads),
        ):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        for name, seq in (
            ("workloads", self.workloads),
            ("suites", self.suites),
            ("phase_names", self.phase_names),
        ):
            if len(seq) != n:
                raise ValueError(f"{name} must have {n} entries, got {len(seq)}")
        for arr in (self.power_w, self.voltage_v):
            # ``> 0`` is False for NaN, so NaN fails with the rest.
            if not np.all((arr > 0) & np.isfinite(arr)):
                raise ValueError(
                    "power and voltage must be finite and strictly positive"
                )

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.counters.shape[0]

    @property
    def frequency_hz(self) -> np.ndarray:
        return self.frequency_mhz * 1e6

    def column(self, counter: str) -> np.ndarray:
        """Rate column (events per cycle) of one counter."""
        return self.counters[:, self.counter_names.index(counter)]

    def counter_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Rate columns for a list of counters, in the given order."""
        idx = [self.counter_names.index(n) for n in names]
        return self.counters[:, idx]

    # ------------------------------------------------------------------
    def subset(self, mask: np.ndarray) -> "PowerDataset":
        """Row subset by boolean mask or index array."""
        mask = np.asarray(mask)
        if mask.dtype == bool and mask.shape != (self.n_samples,):
            raise ValueError("boolean mask has wrong length")
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        take = lambda seq: tuple(seq[i] for i in idx)  # noqa: E731
        return PowerDataset(
            counters=self.counters[idx],
            power_w=self.power_w[idx],
            voltage_v=self.voltage_v[idx],
            frequency_mhz=self.frequency_mhz[idx],
            threads=self.threads[idx],
            workloads=take(self.workloads),
            suites=take(self.suites),
            phase_names=take(self.phase_names),
            counter_names=self.counter_names,
        )

    def filter(
        self,
        *,
        suite: Optional[str] = None,
        workloads: Optional[Iterable[str]] = None,
        frequency_mhz: Optional[int] = None,
    ) -> "PowerDataset":
        """Row subset by suite / workload names / frequency."""
        mask = np.ones(self.n_samples, dtype=bool)
        if suite is not None:
            mask &= np.array([s == suite for s in self.suites])
        if workloads is not None:
            wanted = set(workloads)
            mask &= np.array([w in wanted for w in self.workloads])
        if frequency_mhz is not None:
            mask &= self.frequency_mhz == frequency_mhz
        return self.subset(mask)

    @staticmethod
    def concat(parts: Sequence["PowerDataset"]) -> "PowerDataset":
        """Row-wise concatenation of datasets with matching columns."""
        if not parts:
            raise ValueError("nothing to concatenate")
        names = parts[0].counter_names
        if any(p.counter_names != names for p in parts):
            raise ValueError("counter name mismatch between datasets")
        return PowerDataset(
            counters=np.vstack([p.counters for p in parts]),
            power_w=np.concatenate([p.power_w for p in parts]),
            voltage_v=np.concatenate([p.voltage_v for p in parts]),
            frequency_mhz=np.concatenate([p.frequency_mhz for p in parts]),
            threads=np.concatenate([p.threads for p in parts]),
            workloads=sum((p.workloads for p in parts), ()),
            suites=sum((p.suites for p in parts), ()),
            phase_names=sum((p.phase_names for p in parts), ()),
            counter_names=names,
        )

    # ------------------------------------------------------------------
    def experiment_keys(self) -> List[ExperimentKey]:
        """Distinct (workload, frequency, threads) combinations."""
        seen: Dict[ExperimentKey, None] = {}
        for i in range(self.n_samples):
            seen.setdefault(
                (self.workloads[i], int(self.frequency_mhz[i]), int(self.threads[i])),
                None,
            )
        return list(seen)

    # ------------------------------------------------------------------
    def save_npz(self, path: Union[str, Path]) -> None:
        """Persist to a compressed npz (the campaign cache format).

        The write is atomic (temp file + ``os.replace``): an
        interrupted save must never publish a truncated archive that
        later loads die on.
        """
        atomic_savez(
            Path(path),
            counters=self.counters,
            power_w=self.power_w,
            voltage_v=self.voltage_v,
            frequency_mhz=self.frequency_mhz,
            threads=self.threads,
            workloads=np.array(self.workloads),
            suites=np.array(self.suites),
            phase_names=np.array(self.phase_names),
            counter_names=np.array(self.counter_names),
        )

    @staticmethod
    def load_npz(path: Union[str, Path]) -> "PowerDataset":
        with np.load(Path(path), allow_pickle=False) as data:
            return PowerDataset(
                counters=data["counters"],
                power_w=data["power_w"],
                voltage_v=data["voltage_v"],
                frequency_mhz=data["frequency_mhz"],
                threads=data["threads"],
                workloads=tuple(str(w) for w in data["workloads"]),
                suites=tuple(str(s) for s in data["suites"]),
                phase_names=tuple(str(p) for p in data["phase_names"]),
                counter_names=tuple(str(c) for c in data["counter_names"]),
            )
