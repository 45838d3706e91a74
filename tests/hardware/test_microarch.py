"""Unit tests for the microarchitecture model.

The counter-identity invariants here are what make the simulated PMC
data hang together the way real PMU data does — the multicollinearity
structure the paper's method has to cope with is a consequence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import HASWELL_EP_CONFIG, place_threads
from repro.hardware.dvfs import HASWELL_EP_CURVE
from repro.workloads import Characterization, get_workload
from tests.oracles.physics import evaluate

CFG = HASWELL_EP_CONFIG
OP24 = HASWELL_EP_CURVE.operating_point(2400)
OP12 = HASWELL_EP_CURVE.operating_point(1200)


def _state(char=None, op=OP24, threads=24):
    return evaluate(char or Characterization(), op, threads, CFG)


class TestPlacement:
    def test_compact_fill(self):
        assert place_threads(0, CFG) == (0, 0)
        assert place_threads(5, CFG) == (5, 0)
        assert place_threads(12, CFG) == (12, 0)
        assert place_threads(13, CFG) == (12, 1)
        assert place_threads(24, CFG) == (12, 12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            place_threads(25, CFG)
        with pytest.raises(ValueError):
            place_threads(-1, CFG)


class TestCounterIdentities:
    """Family identities that hold on real PMUs, per active workload."""

    @pytest.fixture(params=["compute", "memory_read", "md", "fma3d"])
    def state(self, request):
        w = get_workload(request.param)
        char = w.phases(24)[0].characterization
        return _state(char)

    def test_l1_totals(self, state):
        assert state.rate("L1_TCM") == pytest.approx(
            state.rate("L1_DCM") + state.rate("L1_ICM")
        )
        assert state.rate("L1_DCM") == pytest.approx(
            state.rate("L1_LDM") + state.rate("L1_STM")
        )

    def test_l2_totals(self, state):
        assert state.rate("L2_TCA") == pytest.approx(
            state.rate("L2_DCA") + state.rate("L2_ICA")
        )
        assert state.rate("L2_TCM") == pytest.approx(
            state.rate("L2_DCM") + state.rate("L2_ICM")
        )
        assert state.rate("L2_DCA") == pytest.approx(
            state.rate("L2_DCR") + state.rate("L2_DCW")
        )

    def test_branch_identities(self, state):
        assert state.rate("BR_CN") == pytest.approx(
            state.rate("BR_TKN") + state.rate("BR_NTK")
        )
        assert state.rate("BR_CN") == pytest.approx(
            state.rate("BR_MSP") + state.rate("BR_PRC")
        )
        assert state.rate("BR_INS") == pytest.approx(
            state.rate("BR_CN") + state.rate("BR_UCN")
        )

    def test_lst_is_ld_plus_sr(self, state):
        assert state.rate("LST_INS") == pytest.approx(
            state.rate("LD_INS") + state.rate("SR_INS")
        )

    def test_misses_bounded_by_accesses(self, state):
        assert state.rate("L2_TCM") <= state.rate("L2_TCA") + 1e-12
        assert state.rate("L3_TCM") <= state.rate("L3_TCA") + 1e-12

    def test_all_rates_nonnegative(self, state):
        assert np.all(state.counter_rates >= 0.0)

    def test_stall_fractions_bounded(self, state):
        n = sum(state.hidden.active_cores)
        # Per-core fractions × active cores.
        for c in ("STL_ICY", "STL_CCY", "FUL_CCY", "FUL_ICY", "RES_STL"):
            assert state.rate(c) <= n + 1e-9


class TestCycleCounters:
    def test_tot_cyc_counts_active_cores(self):
        # Idle sockets contribute a tiny OS-background duty (~0.002),
        # so the total is active threads plus that residue.
        for threads in (1, 8, 24):
            s = _state(threads=threads)
            assert s.rate("TOT_CYC") == pytest.approx(threads, abs=0.01)

    def test_ref_cyc_scales_with_reference_clock(self):
        s = _state(op=OP12, threads=12)
        expected = 12 * CFG.reference_clock_mhz / 1200
        assert s.rate("REF_CYC") == pytest.approx(expected, rel=1e-3)

    def test_idle_near_zero_activity(self):
        s = _state(threads=0)
        assert s.rate("TOT_CYC") < 0.01
        assert s.rate("TOT_INS") < 0.01
        assert s.hidden.active_cores == (0, 0)


class TestMemoryWall:
    def test_ipc_degrades_with_frequency_for_memory_bound(self):
        # ilbdc's indirect accesses defeat the prefetcher, so demand
        # DRAM latency (fixed in ns, growing in cycles with f) bites.
        char = get_workload("ilbdc").phases(24)[0].characterization
        ipc_low = evaluate(char, OP12, 1, CFG).hidden.ipc_per_socket[0]
        ipc_high = evaluate(char, OP24, 1, CFG).hidden.ipc_per_socket[0]
        assert ipc_high < ipc_low * 0.8

    def test_prefetch_coverage_softens_the_wall(self):
        # The streaming kernel (93 % prefetch coverage) degrades far
        # less with frequency than the prefetch-hostile ilbdc.
        stream = get_workload("memory_read").phases(1)[0].characterization
        s_lo = evaluate(stream, OP12, 1, CFG).hidden.ipc_per_socket[0]
        s_hi = evaluate(stream, OP24, 1, CFG).hidden.ipc_per_socket[0]
        assert 0.8 < s_hi / s_lo < 1.0

    def test_compute_ipc_frequency_invariant(self):
        char = get_workload("compute").phases(1)[0].characterization
        ipc_low = evaluate(char, OP12, 1, CFG).hidden.ipc_per_socket[0]
        ipc_high = evaluate(char, OP24, 1, CFG).hidden.ipc_per_socket[0]
        assert ipc_high == pytest.approx(ipc_low, rel=0.02)

    def test_bandwidth_saturation_with_threads(self):
        char = get_workload("memory_read").phases(24)[0].characterization
        one = evaluate(char, OP24, 1, CFG).hidden
        full = evaluate(char, OP24, 24, CFG).hidden
        assert one.bw_utilization[0] < 1.0
        assert full.bw_utilization[0] == pytest.approx(1.0)
        # Saturated: per-core IPC collapses.
        assert full.ipc_per_socket[0] < one.ipc_per_socket[0]

    def test_saturated_throughput_capped_at_peak(self):
        char = get_workload("memory_read").phases(24)[0].characterization
        h = evaluate(char, OP24, 24, CFG).hidden
        per_socket_gbs = (
            h.dram_read_bytes_per_s[0] + h.dram_write_bytes_per_s[0]
        ) / 1e9
        assert per_socket_gbs <= CFG.peak_dram_bw_gbs * 1.01


class TestScaling:
    def test_counters_scale_linearly_with_threads_below_saturation(self):
        char = get_workload("compute").phases(1)[0].characterization
        s1 = evaluate(char, OP24, 1, CFG)
        s8 = evaluate(char, OP24, 8, CFG)
        # Tolerance covers the constant OS-background contribution of
        # the idle socket.
        assert s8.rate("TOT_INS") == pytest.approx(8 * s1.rate("TOT_INS"), rel=1e-2)
        assert s8.rate("L2_TCA") == pytest.approx(8 * s1.rate("L2_TCA"), rel=1e-2)

    def test_second_socket_contributes(self):
        char = get_workload("compute").phases(1)[0].characterization
        s12 = evaluate(char, OP24, 12, CFG)
        s24 = evaluate(char, OP24, 24, CFG)
        assert s24.hidden.active_cores == (12, 12)
        assert s24.rate("TOT_INS") == pytest.approx(
            2 * s12.rate("TOT_INS"), rel=1e-2
        )


class TestHiddenActivity:
    def test_tlb_walks_follow_characterization(self):
        char = Characterization(tlb_dm_per_kinst=2.0, tlb_im_per_kinst=1.0)
        h = evaluate(char, OP24, 12, CFG).hidden
        ipc = h.ipc_per_socket[0]
        assert h.tlb_walks_per_cycle[0] == pytest.approx(
            12 * ipc * 3.0 / 1000.0, rel=1e-6
        )

    def test_vector_width_passthrough(self):
        char = Characterization(vector_width=4)
        assert evaluate(char, OP24, 1, CFG).hidden.vector_width == 4

    def test_remote_traffic_fraction(self):
        char = get_workload("bwaves").phases(24)[0].characterization
        h = evaluate(char, OP24, 24, CFG).hidden
        total = h.dram_read_bytes_per_s[0] + h.dram_write_bytes_per_s[0]
        assert h.remote_bytes_per_s[0] == pytest.approx(
            total * char.numa_remote_frac, rel=1e-6
        )


class TestPropertyInvariants:
    @given(
        ipc=st.floats(0.1, 3.9),
        load=st.floats(0.01, 0.4),
        l1m=st.floats(0.001, 0.3),
        l2m=st.floats(0.05, 0.9),
        l3m=st.floats(0.05, 0.9),
        cov=st.floats(0.05, 0.95),
        threads=st.integers(0, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_rates_finite_nonnegative_everywhere(
        self, ipc, load, l1m, l2m, l3m, cov, threads
    ):
        char = Characterization(
            ipc_base=ipc,
            load_frac=load,
            l1d_load_miss_rate=l1m,
            l2_miss_ratio=l2m,
            l3_miss_ratio=l3m,
            prefetch_coverage=cov,
        )
        s = evaluate(char, OP24, threads, CFG)
        assert np.all(np.isfinite(s.counter_rates))
        assert np.all(s.counter_rates >= 0.0)
        # PRF_DM + demand misses = all DRAM fills; both bounded by L3
        # accesses.
        assert s.rate("L3_TCM") <= s.rate("L3_TCA") + 1e-12
