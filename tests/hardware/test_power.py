"""Unit tests for the ground-truth bottom-up power model."""

import pytest

from repro.hardware import (
    HASWELL_EP_CONFIG,
    HASWELL_EP_CURVE,
    HASWELL_EP_POWER_PARAMS,
    PowerModelParams,
)
from repro.workloads import Characterization, get_workload
from tests.oracles.physics import compute_power, evaluate

CFG = HASWELL_EP_CONFIG


def _power(workload_name, freq_mhz, threads, params=HASWELL_EP_POWER_PARAMS):
    w = get_workload(workload_name)
    char = w.phases(max(threads, 1))[0].characterization
    op = HASWELL_EP_CURVE.operating_point(freq_mhz)
    hidden = evaluate(char, op, threads, CFG).hidden
    return compute_power(hidden, op, CFG, params)


class TestRange:
    def test_idle_power_plausible(self):
        p = _power("idle", 1200, 0)
        assert 30.0 < p.measured_w < 80.0

    def test_full_load_plausible(self):
        p = _power("compute", 2600, 24)
        assert 120.0 < p.measured_w < 350.0

    def test_idle_below_any_load(self):
        idle = _power("idle", 2400, 0).measured_w
        for w in ("busywait", "compute", "memory_read", "matmul"):
            assert _power(w, 2400, 24).measured_w > idle + 20.0


class TestMonotonicity:
    def test_increases_with_threads(self):
        prev = 0.0
        for threads in (1, 4, 8, 16, 24):
            cur = _power("compute", 2400, threads).measured_w
            assert cur > prev
            prev = cur

    def test_increases_with_frequency(self):
        prev = 0.0
        for f in (1200, 1600, 2000, 2400, 2600):
            cur = _power("compute", f, 24).measured_w
            assert cur > prev
            prev = cur

    def test_superlinear_in_frequency(self):
        """Dynamic power ∝ V²f with V rising in f ⇒ superlinear."""
        p12 = _power("compute", 1200, 24).measured_w
        p26 = _power("compute", 2600, 24).measured_w
        idle12 = _power("idle", 1200, 0).measured_w
        idle26 = _power("idle", 2600, 0).measured_w
        dyn_ratio = (p26 - idle26) / (p12 - idle12)
        assert dyn_ratio > 2600 / 1200  # more than linear


class TestDecomposition:
    def test_components_sum_to_socket_power(self):
        p = _power("md", 2400, 24)
        for s in range(CFG.sockets):
            total = (
                p.dynamic_core_w[s]
                + p.uncore_w[s]
                + p.static_w[s]
                + p.board_w[s]
            )
            assert total == pytest.approx(p.per_socket_w[s], rel=1e-9)

    def test_measured_is_socket_sum(self):
        p = _power("md", 2400, 24)
        assert p.measured_w == pytest.approx(sum(p.per_socket_w))

    def test_idle_has_no_meaningful_core_dynamic(self):
        p = _power("idle", 2400, 0)
        assert p.dynamic_core_w[0] < 1.0

    def test_memory_workload_has_large_uncore(self):
        mem = _power("memory_read", 2400, 24)
        cpu = _power("busywait", 2400, 24)
        assert mem.uncore_w[0] > cpu.uncore_w[0] + 5.0

    def test_temperature_rises_with_load(self):
        idle = _power("idle", 2400, 0)
        busy = _power("compute", 2600, 24)
        assert busy.temperature_c[0] > idle.temperature_c[0] + 5.0
        # Leakage follows temperature.
        assert busy.static_w[0] > idle.static_w[0]


class TestLatentEffects:
    def test_latent_efficiency_scales_dynamic_power(self):
        base = Characterization(ipc_base=2.0, latent_efficiency=1.0)
        hot = base.with_updates(latent_efficiency=1.2)
        op = HASWELL_EP_CURVE.operating_point(2400)
        p_base = compute_power(evaluate(base, op, 24, CFG).hidden, op, CFG)
        p_hot = compute_power(evaluate(hot, op, 24, CFG).hidden, op, CFG)
        assert p_hot.dynamic_core_w[0] == pytest.approx(
            1.2 * p_base.dynamic_core_w[0], rel=0.02
        )

    def test_vector_width_superlinear(self):
        """AVX at the same FP op rate costs more than 2x SSE per op."""
        op = HASWELL_EP_CURVE.operating_point(2400)
        sse = Characterization(ipc_base=2.0, fp_frac=0.5, vector_width=2)
        avx = sse.with_updates(vector_width=4)
        p_sse = compute_power(evaluate(sse, op, 24, CFG).hidden, op, CFG)
        p_avx = compute_power(evaluate(avx, op, 24, CFG).hidden, op, CFG)
        assert p_avx.dynamic_core_w[0] > p_sse.dynamic_core_w[0]

    def test_saturation_penalty_applies(self):
        params_no_pen = PowerModelParams(saturation_penalty=0.0)
        with_pen = _power("memory_read", 2400, 24).measured_w
        without = _power("memory_read", 2400, 24, params_no_pen).measured_w
        assert with_pen > without


class TestParams:
    def test_rejects_bad_vr_efficiency(self):
        with pytest.raises(ValueError):
            PowerModelParams(vr_efficiency=0.3)

    def test_rejects_bad_vref(self):
        with pytest.raises(ValueError):
            PowerModelParams(v_ref=-1.0)
