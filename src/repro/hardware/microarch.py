"""Behavioural microarchitecture model: characterization → PMC rates.

This module holds the model's result types and thread placement; the
model itself is evaluated by :func:`repro.hardware.fastsim.simulate_phases`
(its scalar original is the test oracle ``tests/oracles/physics.py``).
Given a workload phase characterization, an operating point and a
thread count, the model produces

* per-chip-cycle rates for all 54 PAPI preset counters (system-wide
  event counts normalized by ``f_clk × wall_time`` — exactly the
  :math:`E_n` "events per cpu cycle" normalization of Section III-C),
* the *hidden* activity the ground-truth power model consumes (DRAM
  traffic, µop throughput, vector FLOPs, stall structure) — quantities
  a top-down model never sees directly.

Two behaviours matter for reproducing the paper and are modelled
explicitly:

* **The memory wall** — effective IPC degrades with core frequency for
  memory-bound phases (DRAM latency is fixed in nanoseconds, so it
  costs more cycles at higher f) and with thread count once the
  per-socket DRAM bandwidth saturates.  Counter rates are therefore
  frequency- and thread-dependent, as on real hardware.
* **Counter-family consistency** — derived identities hold by
  construction (``L1_TCM = L1_DCM + L1_ICM``, ``BR_CN = BR_TKN +
  BR_NTK``, ``BR_CN = BR_MSP + BR_PRC``, cache access chains, …).
  These identities are what give the selection algorithm its
  multicollinearity head-aches (Section IV-A), including the CA_SNP
  blow-up: snoop traffic is a near-linear image of L3/memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.hardware.config import PlatformConfig
from repro.hardware.counters import COUNTER_NAMES

__all__ = ["HiddenActivity", "MicroarchState", "place_threads"]

#: Duty cycle of background OS activity when a core is otherwise idle
#: (timer ticks, housekeeping).  Keeps idle counters small but nonzero.
_BACKGROUND_DUTY = 0.002


@dataclass(frozen=True)
class HiddenActivity:
    """Per-socket physical activity for the bottom-up power model.

    All "``*_per_cycle``" quantities are per chip-cycle sums over the
    socket's active cores (same normalization as the counter rates).
    """

    active_cores: Tuple[int, ...]
    """Active core count per socket."""
    uops_per_cycle: Tuple[float, ...]
    """Micro-ops retired per chip-cycle, per socket."""
    fp_scalar_per_cycle: Tuple[float, ...]
    fp_vector_per_cycle: Tuple[float, ...]
    vector_width: int
    l1_accesses_per_cycle: Tuple[float, ...]
    l2_accesses_per_cycle: Tuple[float, ...]
    l3_accesses_per_cycle: Tuple[float, ...]
    dram_read_bytes_per_s: Tuple[float, ...]
    dram_write_bytes_per_s: Tuple[float, ...]
    remote_bytes_per_s: Tuple[float, ...]
    stall_frac: Tuple[float, ...]
    """Average fraction of active-core cycles stalled (clock-gateable)."""
    flush_per_cycle: Tuple[float, ...]
    """Pipeline flushes (mispredicts) per chip-cycle, per socket."""
    tlb_walks_per_cycle: Tuple[float, ...]
    """Page-table walks (data + instruction) per chip-cycle, per socket."""
    bw_utilization: Tuple[float, ...]
    """DRAM bandwidth utilization per socket in [0, 1]."""
    latent_efficiency: float
    ipc_per_socket: Tuple[float, ...]


@dataclass(frozen=True)
class MicroarchState:
    """Counter rates plus hidden activity for one phase execution."""

    counter_rates: np.ndarray
    """Shape (54,), events per chip-cycle, canonical counter order."""
    hidden: HiddenActivity

    def rate(self, name: str) -> float:
        """Rate of one counter by PAPI preset name."""
        return float(self.counter_rates[COUNTER_NAMES.index(name)])


def place_threads(threads: int, cfg: PlatformConfig) -> Tuple[int, ...]:
    """Compact thread pinning: fill socket 0, then socket 1, ….

    Mirrors the OMP_PLACES=cores / compact binding used for the SPEC
    OMP2012 runs.
    """
    if not 0 <= threads <= cfg.total_cores:
        raise ValueError(
            f"thread count {threads} outside [0, {cfg.total_cores}]"
        )
    remaining = threads
    placement = []
    for _ in range(cfg.sockets):
        n = min(remaining, cfg.cores_per_socket)
        placement.append(n)
        remaining -= n
    return tuple(placement)
