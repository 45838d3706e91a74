"""Ground-truth bottom-up power model of the simulated platform.

This is the "real chip" the statistical method is trying to
characterize from the outside.  This module holds its coefficients and
result type; :func:`repro.hardware.fastsim.simulate_phases` evaluates
it (its scalar original is the test oracle ``tests/oracles/physics.py``).
The model gives the power drawn at the 12 V inputs of each socket
(where the paper's calibrated sensors sit) from the hidden activity of
:mod:`repro.hardware.microarch`:

* **Dynamic core power** — per-event switching energies scaled by
  :math:`(V/V_0)^2 f` (clock tree per active core with partial clock
  gating during stalls, µop retirement, scalar/vector FP with a
  *superlinear* width factor, cache access energies, mispredict
  flushes), multiplied by the workload's latent efficiency factor.
* **Uncore power** — ring/L3 base, DRAM traffic energy per byte (with a
  row-conflict penalty near bandwidth saturation), QPI energy for
  remote-NUMA traffic.
* **Static power** — leakage ∝ V with a temperature feedback loop
  (hotter socket → more leakage → hotter socket), solved by fixed-point
  iteration.
* **Board overhead** — voltage-regulator efficiency and constant board
  consumers behind the same 12 V rail.

The latent efficiency, the superlinear vector term, the thermal
feedback and the saturation penalty are deliberately *not* expressible
as a linear combination of counter rates × V²f — they are what bounds
the accuracy of Equation 1 at the ≈7.5 % MAPE the paper reports, and
what generates the systematic per-workload biases of Fig. 5a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["PowerModelParams", "PowerBreakdown", "HASWELL_EP_POWER_PARAMS"]


@dataclass(frozen=True)
class PowerModelParams:
    """Physical coefficients of the ground-truth model.

    Energies are in nanojoules per event at the reference voltage
    ``v_ref``; they scale with :math:`(V/V_{ref})^2`.
    """

    v_ref: float = 1.0

    # --- per-event switching energies (nJ) ------------------------------
    e_core_active: float = 0.75
    """Clock tree + always-on logic per active-core cycle."""
    clock_gate_saving: float = 0.45
    """Fraction of the active-cycle energy saved while stalled."""
    e_uop: float = 0.24
    e_fp_scalar: float = 0.10
    e_fp_vector: float = 0.05
    vector_width_exponent: float = 1.25
    """FP vector energy scales with width**exponent — superlinear,
    invisible to the counters (the AVX latent term)."""
    latent_sensitivity: float = 1.0
    """How strongly the workload's latent efficiency factor moves this
    chip's dynamic power.  Deep out-of-order CISC machines (x86) carry
    much unobserved microarchitectural state — the paper's "high
    intricacy of the x86 CISC architecture" — whereas simple in-order
    RISC cores couple power tightly to the counted events.  1.0 = full
    effect (x86); smaller values emulate ARM-class observability."""
    e_l1_access: float = 0.12
    e_l2_access: float = 1.30
    e_l3_access: float = 5.00
    e_flush: float = 25.0
    """Pipeline flush (mispredict) energy: ~15 cycles of discarded
    speculative work plus refill."""
    e_tlb_walk: float = 35.0
    """Page-table walk energy per TLB miss (multi-level memory walks)."""

    # --- uncore -----------------------------------------------------------
    p_uncore_base: float = 9.0
    """Ring + LLC + memory controller base power per socket (W) at
    ``v_ref``, scaling with V²."""
    e_dram_read_pj_per_byte: float = 300.0
    e_dram_write_pj_per_byte: float = 340.0
    saturation_knee: float = 0.85
    saturation_penalty: float = 0.20
    """Extra DRAM energy fraction at full bandwidth saturation (row
    conflicts, command overhead)."""
    e_qpi_pj_per_byte: float = 80.0
    p_dram_background_w: float = 2.5
    """DIMM background (refresh, PLL) per socket."""

    # --- static ---------------------------------------------------------------
    leakage_w_per_v: float = 13.0
    """Socket leakage at v_ref and reference temperature (W/V)."""
    leakage_temp_coeff: float = 0.009
    """Fractional leakage increase per Kelvin above reference."""
    t_ambient_c: float = 35.0
    t_reference_c: float = 50.0
    thermal_resistance_k_per_w: float = 0.15
    """Junction temperature rise per watt of socket power."""

    # --- board / measurement plane -----------------------------------------
    vr_efficiency: float = 0.91
    p_board_const_w: float = 4.5
    """Constant consumers behind each socket's 12 V rail."""

    def __post_init__(self) -> None:
        if not 0.5 < self.vr_efficiency <= 1.0:
            raise ValueError(f"implausible VR efficiency {self.vr_efficiency}")
        if self.v_ref <= 0:
            raise ValueError("v_ref must be positive")


#: Default parameterization for the simulated Xeon E5-2690v3.
HASWELL_EP_POWER_PARAMS = PowerModelParams()


@dataclass(frozen=True)
class PowerBreakdown:
    """Decomposition of the node power for one phase execution.

    ``measured_w`` is what the 12 V sensors see (sum over sockets);
    the component fields aid testing and the documentation examples.
    """

    per_socket_w: Tuple[float, ...]
    dynamic_core_w: Tuple[float, ...]
    uncore_w: Tuple[float, ...]
    static_w: Tuple[float, ...]
    board_w: Tuple[float, ...]
    temperature_c: Tuple[float, ...]

    @property
    def measured_w(self) -> float:
        return float(sum(self.per_socket_w))
