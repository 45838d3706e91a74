"""Property-based tests on the simulated platform's physics.

These pin the qualitative physical laws the statistical results rest
on: power monotonicity in activity, voltage and frequency; counter
identities under arbitrary characterizations; sane bounds everywhere.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware import (
    HASWELL_EP_CONFIG,
    HASWELL_EP_CURVE,
    HASWELL_EP_POWER_PARAMS,
)
from repro.workloads import Characterization
from tests.oracles.physics import compute_power, evaluate

CFG = HASWELL_EP_CONFIG


def _char(ipc, load, store, branch, l1m, l2r, l3r, cov, wb):
    return Characterization(
        ipc_base=ipc,
        load_frac=load,
        store_frac=store,
        branch_frac=branch,
        l1d_load_miss_rate=l1m,
        l2_miss_ratio=l2r,
        l3_miss_ratio=l3r,
        prefetch_coverage=cov,
        writeback_ratio=wb,
    )


char_strategy = st.builds(
    _char,
    ipc=st.floats(0.1, 3.8),
    load=st.floats(0.02, 0.4),
    store=st.floats(0.01, 0.3),
    branch=st.floats(0.02, 0.25),
    l1m=st.floats(0.001, 0.3),
    l2r=st.floats(0.05, 0.9),
    l3r=st.floats(0.05, 0.9),
    cov=st.floats(0.05, 0.95),
    wb=st.floats(0.01, 1.0),
).filter(
    lambda c: c.load_frac + c.store_frac + c.branch_frac <= 0.95
)


class TestPowerPhysicsProperties:
    @given(char=char_strategy, threads=st.integers(1, 24))
    @settings(max_examples=50, deadline=None)
    def test_power_positive_and_bounded(self, char, threads):
        op = HASWELL_EP_CURVE.operating_point(2400)
        hidden = evaluate(char, op, threads, CFG).hidden
        p = compute_power(hidden, op, CFG, HASWELL_EP_POWER_PARAMS)
        assert 20.0 < p.measured_w < 500.0
        assert all(t < 120.0 for t in p.temperature_c)

    @given(char=char_strategy)
    @settings(max_examples=40, deadline=None)
    def test_power_monotone_in_threads(self, char):
        op = HASWELL_EP_CURVE.operating_point(2400)
        powers = []
        for threads in (1, 8, 16, 24):
            hidden = evaluate(char, op, threads, CFG).hidden
            powers.append(
                compute_power(hidden, op, CFG, HASWELL_EP_POWER_PARAMS).measured_w
            )
        assert all(b >= a - 1e-6 for a, b in zip(powers, powers[1:]))

    @given(char=char_strategy, threads=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_power_monotone_in_frequency(self, char, threads):
        powers = []
        for f in (1200, 2000, 2600):
            op = HASWELL_EP_CURVE.operating_point(f)
            hidden = evaluate(char, op, threads, CFG).hidden
            powers.append(
                compute_power(hidden, op, CFG, HASWELL_EP_POWER_PARAMS).measured_w
            )
        assert all(b >= a - 1e-6 for a, b in zip(powers, powers[1:]))

    @given(char=char_strategy, threads=st.integers(0, 24))
    @settings(max_examples=50, deadline=None)
    def test_counter_identities_universal(self, char, threads):
        op = HASWELL_EP_CURVE.operating_point(2000)
        s = evaluate(char, op, threads, CFG)
        assert s.rate("L1_TCM") == pytest.approx(
            s.rate("L1_DCM") + s.rate("L1_ICM"), rel=1e-9, abs=1e-12
        )
        assert s.rate("BR_CN") == pytest.approx(
            s.rate("BR_MSP") + s.rate("BR_PRC"), rel=1e-9, abs=1e-12
        )
        assert s.rate("L3_TCM") <= s.rate("L3_TCA") + 1e-12
        assert np.all(s.counter_rates >= 0.0)
        assert np.all(np.isfinite(s.counter_rates))

    @given(char=char_strategy)
    @settings(max_examples=30, deadline=None)
    def test_ipc_never_exceeds_issue_width(self, char):
        op = HASWELL_EP_CURVE.operating_point(2400)
        hidden = evaluate(char, op, 24, CFG).hidden
        assert all(0.0 <= ipc <= CFG.issue_width for ipc in hidden.ipc_per_socket)

    @given(char=char_strategy, threads=st.integers(1, 24))
    @settings(max_examples=30, deadline=None)
    def test_bandwidth_never_exceeds_peak(self, char, threads):
        op = HASWELL_EP_CURVE.operating_point(2600)
        hidden = evaluate(char, op, threads, CFG).hidden
        for s in range(CFG.sockets):
            gbs = (
                hidden.dram_read_bytes_per_s[s]
                + hidden.dram_write_bytes_per_s[s]
            ) / 1e9
            assert gbs <= CFG.peak_dram_bw_gbs * 1.01
