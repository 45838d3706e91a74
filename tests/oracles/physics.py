"""Scalar physics oracle: the one-phase-at-a-time simulator, verbatim.

Production simulates phases only through the batched kernel
:func:`repro.hardware.fastsim.simulate_phases`, idle sockets included.
This module keeps the scalar microarchitecture and power models that
kernel was transliterated from — Python ``float`` arithmetic over one
:class:`~repro.workloads.base.Characterization`, dicts instead of
columns, branches instead of masks:

* :func:`evaluate` — counter rates per chip-cycle and the per-socket
  :class:`~repro.hardware.microarch.HiddenActivity` of one phase,
  with the idle-socket background duty as its own branch;
* :func:`compute_power` — the bottom-up node power of that hidden
  activity (dynamic core, uncore, leakage with thermal feedback,
  board overhead).

The physics tests (counter identities, memory wall, power shape) run
on it directly, and ``TestKernelBitIdentity`` asserts the kernel
equals it bit for bit on every workload, P-state and platform config.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.hardware.config import PlatformConfig
from repro.hardware.counters import COUNTER_NAMES
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

__all__ = ["compute_power", "evaluate"]

_NANO = 1e-9


# ---------------------------------------------------------------------------
# microarchitecture
# ---------------------------------------------------------------------------


def _memory_chain(char: Characterization) -> Dict[str, float]:
    """Per-instruction demand rates through the cache hierarchy.

    Returns per-instruction event probabilities for every cache/TLB
    counter plus DRAM traffic, enforcing the family identities.
    """
    loads = char.load_frac
    stores = char.store_frac

    l1_ldm = loads * char.l1d_load_miss_rate
    l1_stm = stores * char.l1d_store_miss_rate
    l1_dcm = l1_ldm + l1_stm
    l1_icm = char.l1i_miss_per_kinst / 1000.0
    l1_tcm = l1_dcm + l1_icm

    # L2: demand accesses are the L1 misses; instruction side misses
    # less often (code streams prefetch well).
    l2_dcr = l1_ldm
    l2_dcw = l1_stm
    l2_dca = l2_dcr + l2_dcw
    l2_ica = l1_icm
    l2_icr = l2_ica
    l2i_miss_ratio = 0.5 * char.l2_miss_ratio
    l2_ich = l2_ica * (1.0 - l2i_miss_ratio)
    l2_dcm = char.l2_miss_ratio * l2_dca
    l2_icm = l2i_miss_ratio * l2_ica
    l2_tcm = l2_dcm + l2_icm
    l2_stm = char.l2_miss_ratio * l2_dcw
    l2_tca = l2_dca + l2_ica
    l2_tcr = l2_dcr + l2_icr
    l2_tcw = l2_dcw

    # L3: accesses are L2 misses.
    l3_dcr = char.l2_miss_ratio * l2_dcr
    l3_dcw = char.l2_miss_ratio * l2_dcw
    l3_dca = l3_dcr + l3_dcw
    l3_ica = l2_icm
    l3_icr = l3_ica
    l3_tca = l3_dca + l3_ica
    l3_tcr = l3_dcr + l3_icr
    l3_tcw = l3_dcw

    # Lines that must come from DRAM; the hardware prefetcher brings in
    # the covered share ahead of demand (counted as PRF_DM, not as
    # demand L3 misses), the rest arrive as demand misses (L3_TCM).
    dram_fills = char.l3_miss_ratio * l3_tca
    cov = min(char.prefetch_coverage, 0.97)
    prf_dm = cov * dram_fills
    l3_tcm = (1.0 - cov) * dram_fills
    l3_ldm = (1.0 - cov) * char.l3_miss_ratio * l3_dcr
    dram_writes = char.writeback_ratio * dram_fills

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
        "TLB_DM": char.tlb_dm_per_kinst / 1000.0,
        "TLB_IM": char.tlb_im_per_kinst / 1000.0,
        "dram_fills": dram_fills,
        "dram_writes": dram_writes,
    }


def _stall_cycles_per_inst(
    char: Characterization,
    mem: Dict[str, float],
    op: OperatingPoint,
    cfg: PlatformConfig,
) -> float:
    """Average stall cycles per instruction at this operating point.

    Demand misses stall the pipeline for their (frequency-dependent)
    latency divided by the exploitable memory-level parallelism;
    prefetched fills do not stall.  TLB walks and branch mispredictions
    add fixed-cycle penalties.
    """
    f_ghz = op.frequency_ghz
    dram_cycles = cfg.dram_latency_ns * f_ghz * (
        1.0 + cfg.remote_latency_penalty * char.numa_remote_frac
    )
    # Prefetched streams also hide most intermediate-level hit latency.
    prefetch_hide = 1.0 - 0.85 * char.prefetch_coverage
    mem_stall = (
        (mem["L1_DCM"] * cfg.l2_hit_cycles + mem["L2_TCM"] * cfg.l3_hit_cycles)
        * prefetch_hide
        + mem["L3_TCM"] * dram_cycles
    ) / char.mlp
    tlb_stall = (
        (char.tlb_dm_per_kinst + char.tlb_im_per_kinst)
        / 1000.0
        * cfg.tlb_walk_cycles
        / max(char.mlp * 0.5, 1.0)
    )
    br_stall = (
        char.branch_frac
        * char.branch_cond_frac
        * char.branch_mispred_rate
        * cfg.mispredict_penalty_cycles
    )
    frontend_stall = mem["L1_ICM"] * 14.0
    return mem_stall + tlb_stall + br_stall + frontend_stall


def _socket_ipc(
    char: Characterization,
    mem: Dict[str, float],
    op: OperatingPoint,
    cfg: PlatformConfig,
    cores_active: int,
) -> Tuple[float, float]:
    """Effective per-core IPC and bandwidth utilization for one socket."""
    if cores_active == 0:
        return 0.0, 0.0
    stall = _stall_cycles_per_inst(char, mem, op, cfg)
    cpi = 1.0 / max(char.ipc_base, 1e-3) + stall
    ipc_latency = 1.0 / cpi

    bytes_per_inst = (mem["dram_fills"] + mem["dram_writes"]) * cfg.cache_line_bytes
    if bytes_per_inst <= 0.0:
        return ipc_latency, 0.0
    demand_gbs = (
        cores_active * ipc_latency * op.frequency_hz * bytes_per_inst / 1e9
    )
    if demand_gbs <= cfg.peak_dram_bw_gbs:
        return ipc_latency, demand_gbs / cfg.peak_dram_bw_gbs
    # Saturated: throughput clips to the bandwidth roof.
    ipc_bw = ipc_latency * cfg.peak_dram_bw_gbs / demand_gbs
    return ipc_bw, 1.0


def _per_core_rates(
    char: Characterization,
    mem: Dict[str, float],
    ipc: float,
    op: OperatingPoint,
    cfg: PlatformConfig,
    n_active_on_socket: int,
) -> Dict[str, float]:
    """Events per core-cycle for one active core of one socket."""
    r: Dict[str, float] = {}
    # Fixed / instruction counters.
    r["TOT_CYC"] = 1.0
    r["REF_CYC"] = cfg.reference_clock_mhz / op.frequency_mhz
    r["TOT_INS"] = ipc
    r["LD_INS"] = char.load_frac * ipc
    r["SR_INS"] = char.store_frac * ipc
    r["LST_INS"] = r["LD_INS"] + r["SR_INS"]

    # Branches.
    br = char.branch_frac * ipc
    br_cn = char.branch_cond_frac * br
    r["BR_INS"] = br
    r["BR_CN"] = br_cn
    r["BR_UCN"] = br - br_cn
    r["BR_TKN"] = char.branch_taken_frac * br_cn
    r["BR_NTK"] = br_cn - r["BR_TKN"]
    r["BR_MSP"] = char.branch_mispred_rate * br_cn
    r["BR_PRC"] = br_cn - r["BR_MSP"]

    # Memory hierarchy (per-instruction chain × IPC).
    for key in (
        "L1_DCM", "L1_ICM", "L1_TCM", "L1_LDM", "L1_STM",
        "L2_DCM", "L2_ICM", "L2_TCM", "L2_STM", "L2_DCA", "L2_DCR",
        "L2_DCW", "L2_ICA", "L2_ICR", "L2_ICH", "L2_TCA", "L2_TCR",
        "L2_TCW",
        "L3_TCM", "L3_LDM", "L3_DCA", "L3_DCR", "L3_DCW", "L3_ICA",
        "L3_ICR", "L3_TCA", "L3_TCR", "L3_TCW",
        "PRF_DM", "TLB_DM", "TLB_IM",
    ):
        r[key] = mem[key] * ipc

    # Coherence: snoops are driven by L3 lookups (uncore broadcasts) and
    # by cross-core sharing; nearly a linear image of the L3 counters —
    # the engineered CA_SNP multicollinearity of Section IV-A.
    share = char.sharing_factor * max(n_active_on_socket - 1, 0) / max(
        cfg.cores_per_socket - 1, 1
    )
    l3_lookups = mem["L3_TCA"] * ipc
    lst = r["LST_INS"]
    r["CA_SNP"] = 0.90 * l3_lookups + 0.25 * share * lst
    r["CA_SHR"] = 0.30 * share * lst
    r["CA_CLN"] = 0.60 * mem["L2_STM"] * ipc + 0.10 * share * lst
    r["CA_ITV"] = 0.20 * share * lst

    # Stall / issue structure.  Split cycles into stalled and unstalled;
    # in unstalled cycles completion is bursty at the local IPC.
    stall_per_inst = _stall_cycles_per_inst(char, mem, op, cfg)
    stall_frac = min(stall_per_inst * ipc, 0.95)
    unstalled = 1.0 - stall_frac
    ipc_local = ipc / max(unstalled, 0.05)
    # P(no completion | unstalled) for bursty completion.
    p_zero = float(np.exp(-min(ipc_local, 4.0)))
    stl_ccy = min(stall_frac + unstalled * p_zero, 0.99)
    p_full = (min(ipc_local, 4.0) / 4.0) ** 2.5
    ful_ccy = unstalled * p_full
    r["STL_CCY"] = stl_ccy
    r["STL_ICY"] = 0.85 * stl_ccy
    r["FUL_CCY"] = ful_ccy
    r["FUL_ICY"] = 0.80 * ful_ccy
    r["RES_STL"] = min(stall_frac * 1.08 + 0.02, 0.99)
    r["MEM_WCY"] = min(
        mem["dram_writes"] * ipc * cfg.dram_latency_ns * op.frequency_ghz
        * 0.25 / char.mlp,
        0.9,
    )
    return r


def evaluate(
    char: Characterization,
    op: OperatingPoint,
    active_threads: int,
    cfg: PlatformConfig,
) -> MicroarchState:
    """Evaluate the microarchitecture model for one phase.

    Returns system-wide counter rates per chip-cycle (``count /
    (f_clk × wall_time)``) and the per-socket hidden activity.
    ``active_threads == 0`` models the idle system: only background OS
    duty remains.
    """
    placement = place_threads(active_threads, cfg)
    mem = _memory_chain(char)

    total = np.zeros(len(COUNTER_NAMES), dtype=np.float64)
    uops, fp_s, fp_v = [], [], []
    l1a, l2a, l3a = [], [], []
    dram_r, dram_w, remote = [], [], []
    stall_fr, flush, tlb_walks, bw_util, ipc_sock = [], [], [], [], []

    name_to_idx = {n: i for i, n in enumerate(COUNTER_NAMES)}

    for n_active in placement:
        if n_active == 0:
            # Idle socket: background housekeeping only.
            eff_cores = _BACKGROUND_DUTY
            ipc = 0.4
            bg = Characterization(ipc_base=0.4)
            bg_mem = _memory_chain(bg)
            rates = _per_core_rates(bg, bg_mem, ipc, op, cfg, 1)
            scale = eff_cores
            util = 0.0
            cur_char, cur_mem = bg, bg_mem
        else:
            ipc, util = _socket_ipc(char, mem, op, cfg, n_active)
            rates = _per_core_rates(char, mem, ipc, op, cfg, n_active)
            scale = float(n_active)
            cur_char, cur_mem = char, mem

        for key, val in rates.items():
            total[name_to_idx[key]] += val * scale

        inst_rate = ipc * scale  # instructions per chip-cycle
        uops.append(inst_rate * cur_char.uop_expansion)
        fp_ops = inst_rate * cur_char.fp_frac
        if cur_char.vector_width > 1:
            fp_v.append(fp_ops)
            fp_s.append(0.0)
        else:
            fp_v.append(0.0)
            fp_s.append(fp_ops)
        l1a.append(inst_rate * (cur_char.load_frac + cur_char.store_frac))
        l2a.append(cur_mem["L2_TCA"] * inst_rate)
        l3a.append(cur_mem["L3_TCA"] * inst_rate)
        fills_ps = cur_mem["dram_fills"] * inst_rate * op.frequency_hz
        wbs_ps = cur_mem["dram_writes"] * inst_rate * op.frequency_hz
        dram_r.append(fills_ps * cfg.cache_line_bytes)
        dram_w.append(wbs_ps * cfg.cache_line_bytes)
        remote.append(
            (fills_ps + wbs_ps) * cfg.cache_line_bytes * cur_char.numa_remote_frac
        )
        stall_per_inst = _stall_cycles_per_inst(cur_char, cur_mem, op, cfg)
        stall_fr.append(min(stall_per_inst * ipc, 0.95))
        flush.append(
            inst_rate
            * cur_char.branch_frac
            * cur_char.branch_cond_frac
            * cur_char.branch_mispred_rate
        )
        tlb_walks.append(
            inst_rate
            * (cur_char.tlb_dm_per_kinst + cur_char.tlb_im_per_kinst)
            / 1000.0
        )
        bw_util.append(util)
        ipc_sock.append(ipc)

    hidden = HiddenActivity(
        active_cores=placement,
        uops_per_cycle=tuple(uops),
        fp_scalar_per_cycle=tuple(fp_s),
        fp_vector_per_cycle=tuple(fp_v),
        vector_width=char.vector_width,
        l1_accesses_per_cycle=tuple(l1a),
        l2_accesses_per_cycle=tuple(l2a),
        l3_accesses_per_cycle=tuple(l3a),
        dram_read_bytes_per_s=tuple(dram_r),
        dram_write_bytes_per_s=tuple(dram_w),
        remote_bytes_per_s=tuple(remote),
        stall_frac=tuple(stall_fr),
        flush_per_cycle=tuple(flush),
        tlb_walks_per_cycle=tuple(tlb_walks),
        bw_utilization=tuple(bw_util),
        latent_efficiency=char.latent_efficiency,
        ipc_per_socket=tuple(ipc_sock),
    )
    return MicroarchState(counter_rates=total, hidden=hidden)


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def _dynamic_core_w(
    hidden: HiddenActivity,
    socket: int,
    op: OperatingPoint,
    p: PowerModelParams,
) -> float:
    """Dynamic power of one socket's cores (W)."""
    v_scale = (op.voltage_v / p.v_ref) ** 2
    f = op.frequency_hz
    n_active = hidden.active_cores[socket]
    stall = hidden.stall_frac[socket]

    width_factor = hidden.vector_width**p.vector_width_exponent

    # Effective active-cycle energy: stalled cycles are partially gated.
    gating = 1.0 - p.clock_gate_saving * stall
    per_cycle_nj = (
        n_active * p.e_core_active * gating
        + hidden.uops_per_cycle[socket] * p.e_uop
        + hidden.fp_scalar_per_cycle[socket] * p.e_fp_scalar
        + hidden.fp_vector_per_cycle[socket] * p.e_fp_vector * width_factor
        + hidden.l1_accesses_per_cycle[socket] * p.e_l1_access
        + hidden.l2_accesses_per_cycle[socket] * p.e_l2_access
        + hidden.l3_accesses_per_cycle[socket] * p.e_l3_access
        + hidden.flush_per_cycle[socket] * p.e_flush
        + hidden.tlb_walks_per_cycle[socket] * p.e_tlb_walk
    )
    latent = 1.0 + p.latent_sensitivity * (hidden.latent_efficiency - 1.0)
    return v_scale * f * per_cycle_nj * _NANO * latent


def _uncore_w(
    hidden: HiddenActivity,
    socket: int,
    op: OperatingPoint,
    p: PowerModelParams,
) -> float:
    """Uncore + memory power of one socket (W)."""
    v_scale = (op.voltage_v / p.v_ref) ** 2
    util = hidden.bw_utilization[socket]
    sat = 1.0
    if util > p.saturation_knee:
        sat += p.saturation_penalty * (util - p.saturation_knee) / (
            1.0 - p.saturation_knee
        )
    dram = (
        hidden.dram_read_bytes_per_s[socket] * p.e_dram_read_pj_per_byte
        + hidden.dram_write_bytes_per_s[socket] * p.e_dram_write_pj_per_byte
    ) * 1e-12 * sat
    qpi = hidden.remote_bytes_per_s[socket] * p.e_qpi_pj_per_byte * 1e-12
    return p.p_uncore_base * v_scale + dram + qpi + p.p_dram_background_w


def _socket_power_w(
    hidden: HiddenActivity,
    socket: int,
    op: OperatingPoint,
    p: PowerModelParams,
) -> Tuple[float, float, float, float, float]:
    """Power of one socket at the 12 V input, with thermal fixed point.

    Returns (total, dynamic, uncore, static, board, temperature) —
    packed as the tuple the caller re-assembles.
    """
    dyn = _dynamic_core_w(hidden, socket, op, p)
    unc = _uncore_w(hidden, socket, op, p)

    # Leakage depends on temperature which depends on total power:
    # iterate the fixed point (converges geometrically, 4 steps is
    # plenty for the gains involved).
    static = p.leakage_w_per_v * op.voltage_v
    temp = p.t_ambient_c
    for _ in range(4):
        internal = dyn + unc + static
        temp = p.t_ambient_c + p.thermal_resistance_k_per_w * internal
        static = (
            p.leakage_w_per_v
            * op.voltage_v
            * (1.0 + p.leakage_temp_coeff * (temp - p.t_reference_c))
        )
    internal = dyn + unc + static
    board = internal * (1.0 / p.vr_efficiency - 1.0) + p.p_board_const_w
    return internal + board, dyn, unc, static, temp


def compute_power(
    hidden: HiddenActivity,
    op: OperatingPoint,
    cfg: PlatformConfig,
    params: PowerModelParams = HASWELL_EP_POWER_PARAMS,
) -> PowerBreakdown:
    """Ground-truth node power for one phase execution."""
    totals, dyns, uncs, stats, boards, temps = [], [], [], [], [], []
    for s in range(cfg.sockets):
        total, dyn, unc, static, temp = _socket_power_w(hidden, s, op, params)
        totals.append(total)
        dyns.append(dyn)
        uncs.append(unc)
        stats.append(static)
        boards.append(total - dyn - unc - static)
        temps.append(temp)
    return PowerBreakdown(
        per_socket_w=tuple(totals),
        dynamic_core_w=tuple(dyns),
        uncore_w=tuple(uncs),
        static_w=tuple(stats),
        board_w=tuple(boards),
        temperature_c=tuple(temps),
    )
