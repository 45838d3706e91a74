"""Unit tests for the ARM platform and the latent-sensitivity knob."""

import numpy as np
import pytest

from repro.hardware import (
    CORTEX_A15_CONFIG,
    CORTEX_A15_CURVE,
    CORTEX_A15_POWER_PARAMS,
    HASWELL_EP_CONFIG,
    Platform,
)
from repro.hardware.power import PowerModelParams
from repro.workloads import Characterization, get_workload
from tests.oracles.physics import compute_power, evaluate


class TestArmPlatform:
    def test_board_scale_power(self):
        p = Platform(CORTEX_A15_CONFIG, CORTEX_A15_POWER_PARAMS, power_offset_sigma_w=0.05)
        idle = p.execute(get_workload("idle"), 600, 1)
        busy = p.execute(get_workload("compute"), 1800, 4)
        assert 1.0 < idle.phases[0].power_breakdown.measured_w < 4.0
        assert 4.0 < busy.phases[0].power_breakdown.measured_w < 12.0

    def test_single_cluster(self):
        assert CORTEX_A15_CONFIG.sockets == 1
        assert CORTEX_A15_CONFIG.total_cores == 4
        with pytest.raises(ValueError):
            Platform(CORTEX_A15_CONFIG, CORTEX_A15_POWER_PARAMS).execute(
                get_workload("compute"), 1800, 8
            )

    def test_a15_pmu_has_six_slots(self):
        assert CORTEX_A15_CONFIG.programmable_slots == 6

    def test_dvfs_range(self):
        assert CORTEX_A15_CURVE.min_frequency_mhz == 600
        assert CORTEX_A15_CURVE.max_frequency_mhz == 1800

    def test_memory_wall_much_harsher(self):
        """LPDDR3 at 10.5 GB/s: four streaming cores saturate easily."""
        char = get_workload("memory_read").phases(4)[0].characterization
        op = CORTEX_A15_CURVE.operating_point(1800)
        h = evaluate(char, op, 4, CORTEX_A15_CONFIG).hidden
        assert h.bw_utilization[0] == pytest.approx(1.0)


class TestLatentSensitivity:
    def _dyn(self, sensitivity, latent):
        params = PowerModelParams(latent_sensitivity=sensitivity)
        char = Characterization(ipc_base=2.0, latent_efficiency=latent)
        op = Platform().cfg.curve.operating_point(2400)
        hidden = evaluate(char, op, 12, HASWELL_EP_CONFIG).hidden
        return compute_power(hidden, op, HASWELL_EP_CONFIG, params).dynamic_core_w[0]

    def test_full_sensitivity_passes_latent_through(self):
        assert self._dyn(1.0, 1.2) == pytest.approx(
            1.2 * self._dyn(1.0, 1.0), rel=1e-9
        )

    def test_reduced_sensitivity_dampens_latent(self):
        full = self._dyn(1.0, 1.2) / self._dyn(1.0, 1.0)
        damped = self._dyn(0.3, 1.2) / self._dyn(0.3, 1.0)
        assert damped == pytest.approx(1.06, rel=1e-6)
        assert damped < full

    def test_zero_sensitivity_ignores_latent(self):
        assert self._dyn(0.0, 1.3) == pytest.approx(
            self._dyn(0.0, 0.8), rel=1e-9
        )

    def test_arm_sensitivity_is_reduced(self):
        assert CORTEX_A15_POWER_PARAMS.latent_sensitivity < 0.5
