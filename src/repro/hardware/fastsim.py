"""Batched acquisition kernel: vectorized phase simulation + memoization.

Campaign acquisition is the outer loop everything in Section III-A
feeds on.  This module evaluates the microarchitecture and power models
(:mod:`repro.hardware.microarch`, :mod:`repro.hardware.power`) as
ndarray expressions over a *stack* of phases — the only path
:meth:`~repro.hardware.platform.Platform.execute` takes:

* :func:`simulate_phases` — evaluate ``(characterization, placement)``
  rows against one operating point in a single pass, producing one
  ``MicroarchState`` / ``PowerBreakdown`` pair per row;
* :class:`PhaseStateMemo` — a bounded cache over those pairs.  The
  simulation is deterministic in ``(characterization,
  operating_point, placement, cfg)`` and a multi-run campaign
  re-executes every experiment once per PMU event set
  (``runs_per_experiment = len(event_sets)``), so pre-jitter states
  would be recomputed N× by a per-run loop; the memo computes them once
  and replays them, while run jitter and sensor noise stay per-run on
  their existing ``derive_rng`` streams.

Idle sockets are no special case: the background characterization
(one core at ``_BACKGROUND_DUTY``, IPC 0.4) goes through the same
kernels as a one-row batch, and its counter contribution and hidden
terms come from the same expressions (:func:`_socket_terms`) as an
active socket's.

Bit-identity contract
---------------------
The scalar reference is the one-phase-at-a-time simulator kept as the
test oracle ``tests/oracles/physics.py`` (``evaluate`` +
``compute_power``).  The batched expressions transliterate it
*operation by operation*: identical operator order and associativity,
``np.minimum`` / ``np.maximum`` for ``min`` / ``max``, masked row
assignment for the ``_socket_ipc`` bandwidth branches, and the
per-socket accumulation into the counter vector preserved as two
sequential adds.  No reductions, no ``gemv``/``gemm`` — the §16 arena
lesson — so BLAS accumulation-order drift cannot leak in.  Elementwise
float64 ufuncs round identically to their scalar C-double
counterparts, which the full-registry tests in
``tests/hardware/test_fastsim.py`` pin down to the last bit on every
P-state of the three platform configs, idle sockets included
(including the ``np.exp`` / ``**2.5`` transcendental calls).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.config import PlatformConfig
from repro.hardware.counters import COUNTER_NAMES, counter_index
from repro.hardware.dvfs import OperatingPoint
from repro.hardware.microarch import (
    _BACKGROUND_DUTY,
    HiddenActivity,
    MicroarchState,
    place_threads,
)
from repro.hardware.power import (
    HASWELL_EP_POWER_PARAMS,
    PowerBreakdown,
    PowerModelParams,
)
from repro.workloads.base import Characterization

__all__ = [
    "PhaseStateMemo",
    "simulate_phases",
]

_NANO = 1e-9


# ---------------------------------------------------------------------------
# phase-state memo
# ---------------------------------------------------------------------------


class PhaseStateMemo:
    """Bounded FIFO cache of pre-jitter ``(MicroarchState, PowerBreakdown)``.

    Keyed by ``(characterization, frequency_mhz, active_threads)`` —
    the config and power parameters are fixed per :class:`Platform`
    instance, which owns the memo.  Valid because run jitter only
    rescales ``counter_rates`` (never ``hidden``) and the base power
    depends on ``hidden`` alone; both per-run effects are applied
    downstream of the cache.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: Dict[
            Tuple[Characterization, int, int],
            Tuple[MicroarchState, PowerBreakdown],
        ] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: Tuple[Characterization, int, int]
    ) -> Optional[Tuple[MicroarchState, PowerBreakdown]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(
        self,
        key: Tuple[Characterization, int, int],
        value: Tuple[MicroarchState, PowerBreakdown],
    ) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            # Evict the oldest insertion; dicts preserve insert order.
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


# ---------------------------------------------------------------------------
# batched microarchitecture model
# ---------------------------------------------------------------------------

#: Characterization fields lifted into the batch as float64 columns.
_CHAR_FIELDS = (
    "ipc_base",
    "load_frac",
    "store_frac",
    "branch_frac",
    "fp_frac",
    "branch_cond_frac",
    "branch_taken_frac",
    "branch_mispred_rate",
    "l1d_load_miss_rate",
    "l1d_store_miss_rate",
    "l1i_miss_per_kinst",
    "l2_miss_ratio",
    "l3_miss_ratio",
    "prefetch_coverage",
    "writeback_ratio",
    "tlb_dm_per_kinst",
    "tlb_im_per_kinst",
    "mlp",
    "numa_remote_frac",
    "sharing_factor",
    "latent_efficiency",
    "uop_expansion",
    "vector_width",
)

#: Per-socket hidden terms, one float64 column each.
_HIDDEN_KEYS = (
    "uops", "fp_s", "fp_v", "l1a", "l2a", "l3a",
    "dram_r", "dram_w", "remote", "stall_fr", "flush", "tlb",
    "util", "ipc",
)


def _char_columns(chars: Sequence[Characterization]) -> Dict[str, np.ndarray]:
    return {
        f: np.array([getattr(c, f) for c in chars], dtype=np.float64)
        for f in _CHAR_FIELDS
    }


def _memory_chain_batch(c: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Vectorized ``_memory_chain`` of the scalar physics oracle."""
    loads = c["load_frac"]
    stores = c["store_frac"]

    l1_ldm = loads * c["l1d_load_miss_rate"]
    l1_stm = stores * c["l1d_store_miss_rate"]
    l1_dcm = l1_ldm + l1_stm
    l1_icm = c["l1i_miss_per_kinst"] / 1000.0
    l1_tcm = l1_dcm + l1_icm

    l2_dcr = l1_ldm
    l2_dcw = l1_stm
    l2_dca = l2_dcr + l2_dcw
    l2_ica = l1_icm
    l2_icr = l2_ica
    l2i_miss_ratio = 0.5 * c["l2_miss_ratio"]
    l2_ich = l2_ica * (1.0 - l2i_miss_ratio)
    l2_dcm = c["l2_miss_ratio"] * l2_dca
    l2_icm = l2i_miss_ratio * l2_ica
    l2_tcm = l2_dcm + l2_icm
    l2_stm = c["l2_miss_ratio"] * l2_dcw
    l2_tca = l2_dca + l2_ica
    l2_tcr = l2_dcr + l2_icr
    l2_tcw = l2_dcw

    l3_dcr = c["l2_miss_ratio"] * l2_dcr
    l3_dcw = c["l2_miss_ratio"] * l2_dcw
    l3_dca = l3_dcr + l3_dcw
    l3_ica = l2_icm
    l3_icr = l3_ica
    l3_tca = l3_dca + l3_ica
    l3_tcr = l3_dcr + l3_icr
    l3_tcw = l3_dcw

    dram_fills = c["l3_miss_ratio"] * l3_tca
    cov = np.minimum(c["prefetch_coverage"], 0.97)
    prf_dm = cov * dram_fills
    l3_tcm = (1.0 - cov) * dram_fills
    l3_ldm = (1.0 - cov) * c["l3_miss_ratio"] * l3_dcr
    dram_writes = c["writeback_ratio"] * dram_fills

    return {
        "L1_LDM": l1_ldm,
        "L1_STM": l1_stm,
        "L1_DCM": l1_dcm,
        "L1_ICM": l1_icm,
        "L1_TCM": l1_tcm,
        "L2_DCA": l2_dca,
        "L2_DCR": l2_dcr,
        "L2_DCW": l2_dcw,
        "L2_ICA": l2_ica,
        "L2_ICR": l2_icr,
        "L2_ICH": l2_ich,
        "L2_DCM": l2_dcm,
        "L2_ICM": l2_icm,
        "L2_TCM": l2_tcm,
        "L2_STM": l2_stm,
        "L2_TCA": l2_tca,
        "L2_TCR": l2_tcr,
        "L2_TCW": l2_tcw,
        "L3_DCA": l3_dca,
        "L3_DCR": l3_dcr,
        "L3_DCW": l3_dcw,
        "L3_ICA": l3_ica,
        "L3_ICR": l3_icr,
        "L3_TCA": l3_tca,
        "L3_TCR": l3_tcr,
        "L3_TCW": l3_tcw,
        "L3_TCM": l3_tcm,
        "L3_LDM": l3_ldm,
        "PRF_DM": prf_dm,
        "TLB_DM": c["tlb_dm_per_kinst"] / 1000.0,
        "TLB_IM": c["tlb_im_per_kinst"] / 1000.0,
        "dram_fills": dram_fills,
        "dram_writes": dram_writes,
    }


def _stall_batch(
    c: Dict[str, np.ndarray],
    mem: Dict[str, np.ndarray],
    op: OperatingPoint,
    cfg: PlatformConfig,
) -> np.ndarray:
    """Vectorized ``_stall_cycles_per_inst`` of the scalar physics oracle."""
    f_ghz = op.frequency_ghz
    dram_cycles = cfg.dram_latency_ns * f_ghz * (
        1.0 + cfg.remote_latency_penalty * c["numa_remote_frac"]
    )
    prefetch_hide = 1.0 - 0.85 * c["prefetch_coverage"]
    mem_stall = (
        (mem["L1_DCM"] * cfg.l2_hit_cycles + mem["L2_TCM"] * cfg.l3_hit_cycles)
        * prefetch_hide
        + mem["L3_TCM"] * dram_cycles
    ) / c["mlp"]
    tlb_stall = (
        (c["tlb_dm_per_kinst"] + c["tlb_im_per_kinst"])
        / 1000.0
        * cfg.tlb_walk_cycles
        / np.maximum(c["mlp"] * 0.5, 1.0)
    )
    br_stall = (
        c["branch_frac"]
        * c["branch_cond_frac"]
        * c["branch_mispred_rate"]
        * cfg.mispredict_penalty_cycles
    )
    frontend_stall = mem["L1_ICM"] * 14.0
    return mem_stall + tlb_stall + br_stall + frontend_stall


def _socket_ipc_batch(
    c: Dict[str, np.ndarray],
    mem: Dict[str, np.ndarray],
    stall: np.ndarray,
    op: OperatingPoint,
    cfg: PlatformConfig,
    cores_active: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``_socket_ipc`` of the scalar physics oracle, for rows
    with ``cores_active > 0`` (an idle socket runs at a fixed IPC)."""
    cpi = 1.0 / np.maximum(c["ipc_base"], 1e-3) + stall
    ipc_latency = 1.0 / cpi

    bytes_per_inst = (mem["dram_fills"] + mem["dram_writes"]) * cfg.cache_line_bytes
    demand_gbs = (
        cores_active * ipc_latency * op.frequency_hz * bytes_per_inst / 1e9
    )
    # Unsaturated rows: util = demand / peak.  bytes_per_inst == 0 rows
    # land here with demand 0 and util exactly 0.0, matching the scalar
    # early return.
    ipc = ipc_latency.copy()
    util = demand_gbs / cfg.peak_dram_bw_gbs
    saturated = demand_gbs > cfg.peak_dram_bw_gbs
    if saturated.any():
        ipc[saturated] = (
            ipc_latency[saturated] * cfg.peak_dram_bw_gbs / demand_gbs[saturated]
        )
        util[saturated] = 1.0
    return ipc, util


def _per_core_rates_batch(
    c: Dict[str, np.ndarray],
    mem: Dict[str, np.ndarray],
    ipc: np.ndarray,
    stall_per_inst: np.ndarray,
    op: OperatingPoint,
    cfg: PlatformConfig,
    n_active_on_socket: np.ndarray,
) -> np.ndarray:
    """Vectorized ``_per_core_rates`` of the scalar physics oracle.

    Returns a ``(rows, n_counters)`` matrix of events per core-cycle in
    canonical counter order.
    """
    m = ipc.shape[0]
    rates = np.zeros((m, len(COUNTER_NAMES)), dtype=np.float64)

    def col(name: str) -> int:
        return counter_index(name)

    rates[:, col("TOT_CYC")] = 1.0
    rates[:, col("REF_CYC")] = cfg.reference_clock_mhz / op.frequency_mhz
    rates[:, col("TOT_INS")] = ipc
    ld = c["load_frac"] * ipc
    sr = c["store_frac"] * ipc
    rates[:, col("LD_INS")] = ld
    rates[:, col("SR_INS")] = sr
    lst = ld + sr
    rates[:, col("LST_INS")] = lst

    br = c["branch_frac"] * ipc
    br_cn = c["branch_cond_frac"] * br
    br_tkn = c["branch_taken_frac"] * br_cn
    br_msp = c["branch_mispred_rate"] * br_cn
    rates[:, col("BR_INS")] = br
    rates[:, col("BR_CN")] = br_cn
    rates[:, col("BR_UCN")] = br - br_cn
    rates[:, col("BR_TKN")] = br_tkn
    rates[:, col("BR_NTK")] = br_cn - br_tkn
    rates[:, col("BR_MSP")] = br_msp
    rates[:, col("BR_PRC")] = br_cn - br_msp

    for key in (
        "L1_DCM", "L1_ICM", "L1_TCM", "L1_LDM", "L1_STM",
        "L2_DCM", "L2_ICM", "L2_TCM", "L2_STM", "L2_DCA", "L2_DCR",
        "L2_DCW", "L2_ICA", "L2_ICR", "L2_ICH", "L2_TCA", "L2_TCR",
        "L2_TCW",
        "L3_TCM", "L3_LDM", "L3_DCA", "L3_DCR", "L3_DCW", "L3_ICA",
        "L3_ICR", "L3_TCA", "L3_TCR", "L3_TCW",
        "PRF_DM", "TLB_DM", "TLB_IM",
    ):
        rates[:, col(key)] = mem[key] * ipc

    share = c["sharing_factor"] * np.maximum(n_active_on_socket - 1, 0) / max(
        cfg.cores_per_socket - 1, 1
    )
    l3_lookups = mem["L3_TCA"] * ipc
    rates[:, col("CA_SNP")] = 0.90 * l3_lookups + 0.25 * share * lst
    rates[:, col("CA_SHR")] = 0.30 * share * lst
    rates[:, col("CA_CLN")] = 0.60 * mem["L2_STM"] * ipc + 0.10 * share * lst
    rates[:, col("CA_ITV")] = 0.20 * share * lst

    stall_frac = np.minimum(stall_per_inst * ipc, 0.95)
    unstalled = 1.0 - stall_frac
    ipc_local = ipc / np.maximum(unstalled, 0.05)
    # exp/pow go through the scalar libm calls the reference path makes:
    # numpy's SIMD transcendental loops round differently in the last
    # ulp (observed for float64 ``**``), which would break bit-identity.
    clipped = np.minimum(ipc_local, 4.0)
    p_zero = np.array(
        [float(np.exp(-float(v))) for v in clipped], dtype=np.float64
    )
    stl_ccy = np.minimum(stall_frac + unstalled * p_zero, 0.99)
    p_full = np.array(
        [(float(v) / 4.0) ** 2.5 for v in clipped], dtype=np.float64
    )
    ful_ccy = unstalled * p_full
    rates[:, col("STL_CCY")] = stl_ccy
    rates[:, col("STL_ICY")] = 0.85 * stl_ccy
    rates[:, col("FUL_CCY")] = ful_ccy
    rates[:, col("FUL_ICY")] = 0.80 * ful_ccy
    rates[:, col("RES_STL")] = np.minimum(stall_frac * 1.08 + 0.02, 0.99)
    rates[:, col("MEM_WCY")] = np.minimum(
        mem["dram_writes"] * ipc * cfg.dram_latency_ns * op.frequency_ghz
        * 0.25 / c["mlp"],
        0.9,
    )
    return rates


def _socket_terms(
    c: Dict[str, np.ndarray],
    mem: Dict[str, np.ndarray],
    ipc: np.ndarray,
    stall_per_inst: np.ndarray,
    util: np.ndarray,
    n_cores: np.ndarray,
    scale: np.ndarray,
    op: OperatingPoint,
    cfg: PlatformConfig,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Counter contribution and hidden terms of one socket, per row.

    ``n_cores`` is the core count the coherence terms see and ``scale``
    the count the per-core rates are multiplied by: both the active
    core count on a busy socket, 1 and ``_BACKGROUND_DUTY`` on an idle
    one.
    """
    rates = _per_core_rates_batch(c, mem, ipc, stall_per_inst, op, cfg, n_cores)
    inst_rate = ipc * scale
    fp_ops = inst_rate * c["fp_frac"]
    vec = c["vector_width"] > 1
    fills_ps = mem["dram_fills"] * inst_rate * op.frequency_hz
    wbs_ps = mem["dram_writes"] * inst_rate * op.frequency_hz
    hidden = {
        "uops": inst_rate * c["uop_expansion"],
        "fp_s": np.where(vec, 0.0, fp_ops),
        "fp_v": np.where(vec, fp_ops, 0.0),
        "l1a": inst_rate * (c["load_frac"] + c["store_frac"]),
        "l2a": mem["L2_TCA"] * inst_rate,
        "l3a": mem["L3_TCA"] * inst_rate,
        "dram_r": fills_ps * cfg.cache_line_bytes,
        "dram_w": wbs_ps * cfg.cache_line_bytes,
        "remote": (fills_ps + wbs_ps) * cfg.cache_line_bytes
        * c["numa_remote_frac"],
        "stall_fr": np.minimum(stall_per_inst * ipc, 0.95),
        "flush": inst_rate
        * c["branch_frac"]
        * c["branch_cond_frac"]
        * c["branch_mispred_rate"],
        "tlb": inst_rate
        * (c["tlb_dm_per_kinst"] + c["tlb_im_per_kinst"])
        / 1000.0,
        "util": util,
        "ipc": ipc,
    }
    return rates * scale[:, None], hidden


def _idle_socket_terms(
    op: OperatingPoint, cfg: PlatformConfig
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Counter contribution and hidden terms of one idle socket, as a
    one-row batch: background housekeeping on one core at IPC 0.4,
    weighted by ``_BACKGROUND_DUTY``."""
    ipc = 0.4
    c = _char_columns([Characterization(ipc_base=ipc)])
    mem = _memory_chain_batch(c)
    return _socket_terms(
        c,
        mem,
        np.array([ipc]),
        _stall_batch(c, mem, op, cfg),
        np.zeros(1),
        np.ones(1),
        np.array([_BACKGROUND_DUTY]),
        op,
        cfg,
    )


# ---------------------------------------------------------------------------
# batched power model
# ---------------------------------------------------------------------------


def _socket_power_batch(
    s: Dict[str, np.ndarray],
    vector_width: np.ndarray,
    latent_efficiency: np.ndarray,
    op: OperatingPoint,
    p: PowerModelParams,
) -> Tuple[np.ndarray, ...]:
    """Vectorized ``_socket_power_w`` of the scalar physics oracle, for
    one socket across all phases.  ``s`` holds the per-phase hidden arrays
    of that socket."""
    v_scale = (op.voltage_v / p.v_ref) ** 2
    f = op.frequency_hz

    # Scalar libm pow, not the array ufunc loop (see _per_core_rates_batch).
    width_factor = np.array(
        [int(v) ** p.vector_width_exponent for v in vector_width],
        dtype=np.float64,
    )
    gating = 1.0 - p.clock_gate_saving * s["stall_fr"]
    per_cycle_nj = (
        s["n_active"] * p.e_core_active * gating
        + s["uops"] * p.e_uop
        + s["fp_s"] * p.e_fp_scalar
        + s["fp_v"] * p.e_fp_vector * width_factor
        + s["l1a"] * p.e_l1_access
        + s["l2a"] * p.e_l2_access
        + s["l3a"] * p.e_l3_access
        + s["flush"] * p.e_flush
        + s["tlb"] * p.e_tlb_walk
    )
    latent = 1.0 + p.latent_sensitivity * (latent_efficiency - 1.0)
    dyn = v_scale * f * per_cycle_nj * _NANO * latent

    sat = np.ones_like(dyn)
    over_knee = s["util"] > p.saturation_knee
    if over_knee.any():
        sat[over_knee] = 1.0 + p.saturation_penalty * (
            s["util"][over_knee] - p.saturation_knee
        ) / (1.0 - p.saturation_knee)
    dram = (
        s["dram_r"] * p.e_dram_read_pj_per_byte
        + s["dram_w"] * p.e_dram_write_pj_per_byte
    ) * 1e-12 * sat
    qpi = s["remote"] * p.e_qpi_pj_per_byte * 1e-12
    unc = p.p_uncore_base * v_scale + dram + qpi + p.p_dram_background_w

    leak_v = p.leakage_w_per_v * op.voltage_v
    static = np.full_like(dyn, leak_v)
    temp = np.full_like(dyn, p.t_ambient_c)
    for _ in range(4):
        internal = dyn + unc + static
        temp = p.t_ambient_c + p.thermal_resistance_k_per_w * internal
        static = leak_v * (
            1.0 + p.leakage_temp_coeff * (temp - p.t_reference_c)
        )
    internal = dyn + unc + static
    board = internal * (1.0 / p.vr_efficiency - 1.0) + p.p_board_const_w
    total = internal + board
    # The scalar oracle's compute_power re-derives board as the
    # residual; keep that exact (non-associative) subtraction order.
    board_resid = total - dyn - unc - static
    return total, dyn, unc, static, board_resid, temp


# ---------------------------------------------------------------------------
# phase batch
# ---------------------------------------------------------------------------


def simulate_phases(
    chars: Sequence[Characterization],
    active_threads: Sequence[int],
    op: OperatingPoint,
    cfg: PlatformConfig,
    params: PowerModelParams = HASWELL_EP_POWER_PARAMS,
) -> List[Tuple[MicroarchState, PowerBreakdown]]:
    """Microarchitecture state and power breakdown of each phase row —
    the batched equivalent of the scalar oracle's ``evaluate`` +
    ``compute_power``.

    All rows share one operating point (frequency is pinned for a run,
    Section III-A); characterization and placement vary per row.
    """
    if len(chars) != len(active_threads):
        raise ValueError(
            f"{len(chars)} characterizations for "
            f"{len(active_threads)} thread counts"
        )
    n = len(chars)
    if n == 0:
        return []

    placements = np.array(
        [place_threads(t, cfg) for t in active_threads], dtype=np.int64
    )
    c = _char_columns(chars)
    mem = _memory_chain_batch(c)
    stall_all = _stall_batch(c, mem, op, cfg)
    idle_contrib, idle_hidden = _idle_socket_terms(op, cfg)

    total = np.zeros((n, len(COUNTER_NAMES)), dtype=np.float64)
    per_socket: List[Dict[str, np.ndarray]] = []

    for sock in range(cfg.sockets):
        n_active = placements[:, sock]
        active = n_active > 0
        contrib = np.zeros((n, len(COUNTER_NAMES)), dtype=np.float64)
        hid = {k: np.empty(n, dtype=np.float64) for k in _HIDDEN_KEYS}

        if not active.all():
            idle = ~active
            contrib[idle] = idle_contrib
            for k in _HIDDEN_KEYS:
                hid[k][idle] = idle_hidden[k]

        if active.any():
            rows = np.nonzero(active)[0]
            ca = {k: v[rows] for k, v in c.items()}
            ma = {k: v[rows] for k, v in mem.items()}
            stall = stall_all[rows]
            scale = n_active[rows].astype(np.float64)
            ipc, util = _socket_ipc_batch(ca, ma, stall, op, cfg, scale)
            contrib[rows], terms = _socket_terms(
                ca, ma, ipc, stall, util, scale, scale, op, cfg
            )
            for k in _HIDDEN_KEYS:
                hid[k][rows] = terms[k]

        hid["n_active"] = n_active.astype(np.float64)
        total += contrib
        per_socket.append(hid)

    power_terms_w = [
        _socket_power_batch(
            hid, c["vector_width"], c["latent_efficiency"], op, params
        )
        for hid in per_socket
    ]

    # One (rows × sockets) list of Python floats per field.
    def by_row(columns: Sequence[np.ndarray]) -> list:
        return np.column_stack(columns).tolist()

    hidden_rows = {
        k: by_row([hid[k] for hid in per_socket]) for k in _HIDDEN_KEYS
    }
    power_rows = [
        by_row([terms[j] for terms in power_terms_w]) for j in range(6)
    ]
    cores = placements.tolist()
    out: List[Tuple[MicroarchState, PowerBreakdown]] = []
    for i, ch in enumerate(chars):
        hidden = HiddenActivity(
            active_cores=tuple(cores[i]),
            uops_per_cycle=tuple(hidden_rows["uops"][i]),
            fp_scalar_per_cycle=tuple(hidden_rows["fp_s"][i]),
            fp_vector_per_cycle=tuple(hidden_rows["fp_v"][i]),
            vector_width=ch.vector_width,
            l1_accesses_per_cycle=tuple(hidden_rows["l1a"][i]),
            l2_accesses_per_cycle=tuple(hidden_rows["l2a"][i]),
            l3_accesses_per_cycle=tuple(hidden_rows["l3a"][i]),
            dram_read_bytes_per_s=tuple(hidden_rows["dram_r"][i]),
            dram_write_bytes_per_s=tuple(hidden_rows["dram_w"][i]),
            remote_bytes_per_s=tuple(hidden_rows["remote"][i]),
            stall_frac=tuple(hidden_rows["stall_fr"][i]),
            flush_per_cycle=tuple(hidden_rows["flush"][i]),
            tlb_walks_per_cycle=tuple(hidden_rows["tlb"][i]),
            bw_utilization=tuple(hidden_rows["util"][i]),
            latent_efficiency=ch.latent_efficiency,
            ipc_per_socket=tuple(hidden_rows["ipc"][i]),
        )
        state = MicroarchState(counter_rates=total[i].copy(), hidden=hidden)
        breakdown = PowerBreakdown(
            per_socket_w=tuple(power_rows[0][i]),
            dynamic_core_w=tuple(power_rows[1][i]),
            uncore_w=tuple(power_rows[2][i]),
            static_w=tuple(power_rows[3][i]),
            board_w=tuple(power_rows[4][i]),
            temperature_c=tuple(power_rows[5][i]),
        )
        out.append((state, breakdown))
    return out
