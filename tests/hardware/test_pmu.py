"""Unit tests for the PMU model and event scheduling."""

import numpy as np
import pytest

from repro.hardware import (
    COUNTER_NAMES,
    FIXED_COUNTERS,
    HASWELL_EP_CONFIG,
    PMU,
    EventSet,
    schedule_events,
)
from repro.hardware.dvfs import HASWELL_EP_CURVE
from repro.workloads import Characterization
from tests.oracles.physics import evaluate

CFG = HASWELL_EP_CONFIG


class TestEventSet:
    def test_valid(self):
        es = EventSet(events=("TOT_CYC", "PRF_DM"))
        assert es.programmable() == ("PRF_DM",)
        es.validate_against(CFG)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventSet(events=("PRF_DM", "PRF_DM"))

    def test_rejects_unknown(self):
        with pytest.raises(KeyError):
            EventSet(events=("NOT_REAL",))

    def test_rejects_too_many_programmable(self):
        es = EventSet(events=("PRF_DM", "BR_MSP", "TLB_IM", "CA_SNP", "L1_DCM"))
        with pytest.raises(ValueError, match="programmable slots"):
            es.validate_against(CFG)

    def test_fixed_counters_are_free(self):
        es = EventSet(
            events=tuple(FIXED_COUNTERS) + ("PRF_DM", "BR_MSP", "TLB_IM", "CA_SNP")
        )
        es.validate_against(CFG)  # 4 programmable + 3 fixed is fine


class TestScheduling:
    def test_all_counters_covered(self):
        plan = schedule_events(COUNTER_NAMES, CFG)
        covered = set()
        for es in plan:
            covered |= set(es.events)
        assert covered == set(COUNTER_NAMES)

    def test_minimal_run_count(self):
        plan = schedule_events(COUNTER_NAMES, CFG)
        n_prog = len(COUNTER_NAMES) - len(FIXED_COUNTERS)
        expected = -(-n_prog // CFG.programmable_slots)  # ceil
        assert len(plan) == expected
        # Paper's constraint: 51 programmable / 4 slots = 13 runs.
        assert len(plan) == 13

    def test_fixed_in_every_run(self):
        plan = schedule_events(COUNTER_NAMES, CFG)
        for es in plan:
            assert set(FIXED_COUNTERS) <= set(es.events)

    def test_each_programmable_scheduled_once(self):
        plan = schedule_events(COUNTER_NAMES, CFG)
        seen = []
        for es in plan:
            seen.extend(es.programmable())
        assert len(seen) == len(set(seen))

    def test_subset_scheduling(self):
        plan = schedule_events(["PRF_DM", "TOT_CYC"], CFG)
        assert len(plan) == 1
        assert "PRF_DM" in plan[0].events

    def test_fixed_only(self):
        plan = schedule_events(list(FIXED_COUNTERS), CFG)
        assert len(plan) == 1
        assert not plan[0].programmable()

    def test_deterministic(self):
        a = schedule_events(COUNTER_NAMES, CFG)
        b = schedule_events(COUNTER_NAMES, CFG)
        assert [es.events for es in a] == [es.events for es in b]


class TestCounting:
    @pytest.fixture()
    def rates(self):
        op = HASWELL_EP_CURVE.operating_point(2400)
        return evaluate(Characterization(), op, 12, CFG).counter_rates

    def test_counts_scale_with_rate_and_time(self, rates, rng):
        pmu = PMU(CFG, read_noise_sigma=0.0)
        es = EventSet(events=("TOT_CYC", "TOT_INS"))
        counts = pmu.count(es, rates, 2.4e9, 10.0, rng)
        expected_cyc = rates[COUNTER_NAMES.index("TOT_CYC")] * 2.4e9 * 10.0
        assert counts["TOT_CYC"] == pytest.approx(expected_cyc, rel=1e-9)

    def test_counts_are_integral_nonnegative(self, rates, rng):
        pmu = PMU(CFG)
        es = EventSet(events=("TOT_CYC", "PRF_DM", "BR_MSP"))
        counts = pmu.count(es, rates, 2.4e9, 1.0, rng)
        for v in counts.values():
            assert v >= 0.0
            assert v == np.floor(v)

    def test_only_programmed_events_returned(self, rates, rng):
        pmu = PMU(CFG)
        es = EventSet(events=("TOT_CYC", "PRF_DM"))
        counts = pmu.count(es, rates, 2.4e9, 1.0, rng)
        assert set(counts) == {"TOT_CYC", "PRF_DM"}

    def test_noise_within_expectation(self, rates, rng):
        pmu = PMU(CFG, read_noise_sigma=0.01)
        es = EventSet(events=("TOT_INS",))
        vals = [
            pmu.count(es, rates, 2.4e9, 1.0, np.random.default_rng(i))["TOT_INS"]
            for i in range(200)
        ]
        rel_std = np.std(vals) / np.mean(vals)
        assert 0.005 < rel_std < 0.02

    def test_bad_inputs(self, rates, rng):
        pmu = PMU(CFG)
        es = EventSet(events=("TOT_CYC",))
        with pytest.raises(ValueError):
            pmu.count(es, rates[:10], 2.4e9, 1.0, rng)
        with pytest.raises(ValueError):
            pmu.count(es, rates, -1.0, 1.0, rng)
        with pytest.raises(ValueError):
            pmu.count(es, rates, 2.4e9, 0.0, rng)
        with pytest.raises(ValueError):
            PMU(CFG, read_noise_sigma=-0.1)
