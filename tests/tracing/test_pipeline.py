"""Tests for the tracer, plugins and phase-profile extraction —
exercised together because they form the acquisition data path."""

import numpy as np
import pytest

from repro.hardware import EventSet, FIXED_COUNTERS
from repro.tracing import (
    ApapiPlugin,
    PowerPlugin,
    ScorePTracer,
    VoltagePlugin,
    PhaseTable,
    haecsim_profiles,
    postprocess_profiles,
    profile_block,
    profile_trace,
    trace_run,
)
from repro.workloads import get_workload
from tests.oracles.acquisition import tables_equal

EVENTS = EventSet(events=tuple(FIXED_COUNTERS) + ("PRF_DM",))


@pytest.fixture(scope="module")
def roco2_trace(platform):
    run = platform.execute(get_workload("compute"), 2400, 8)
    return run, trace_run(platform, run, EVENTS, sampling_interval_s=0.1)


@pytest.fixture(scope="module")
def spec_trace(platform):
    run = platform.execute(get_workload("md"), 2400, 24)
    return run, trace_run(platform, run, EVENTS, sampling_interval_s=0.5)


class TestTracer:
    def test_metadata(self, roco2_trace):
        run, trace = roco2_trace
        assert trace.meta["workload"] == "compute"
        assert trace.meta["frequency_mhz"] == 2400
        assert trace.meta["threads"] == 8

    def test_all_plugin_metrics_present(self, roco2_trace):
        _, trace = roco2_trace
        assert "power" in trace.metrics
        assert "voltage" in trace.metrics
        for name in EVENTS.events:
            assert f"papi:{name}" in trace.metrics

    def test_sample_grid_density(self, roco2_trace):
        run, trace = roco2_trace
        n = trace.metrics["power"].times_s.size
        expected = run.total_duration_s / 0.1
        assert abs(n - expected) <= 2

    def test_samples_within_run(self, roco2_trace):
        run, trace = roco2_trace
        for stream in trace.metrics.values():
            assert np.all(stream.times_s > 0)
            assert np.all(stream.times_s <= run.total_duration_s + 1e-9)

    def test_power_samples_near_truth(self, roco2_trace):
        run, trace = roco2_trace
        truth = run.phases[0].power_breakdown.measured_w
        mean = trace.metrics["power"].values.mean()
        assert mean == pytest.approx(truth, rel=0.02)

    def test_papi_rate_near_truth(self, roco2_trace):
        run, trace = roco2_trace
        truth_per_s = run.phases[0].state.rate("TOT_INS") * run.op.frequency_hz
        mean = trace.metrics["papi:TOT_INS"].values.mean()
        assert mean == pytest.approx(truth_per_s, rel=0.05)

    def test_tracer_validation(self, platform):
        with pytest.raises(ValueError):
            ScorePTracer(platform, [], sampling_interval_s=0.1)
        with pytest.raises(ValueError):
            ScorePTracer(platform, [PowerPlugin(platform)], sampling_interval_s=0.0)

    @pytest.mark.parametrize(
        "interval_s", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1]
    )
    def test_sampling_interval_must_be_finite_positive(self, platform, interval_s):
        with pytest.raises(ValueError, match="finite and positive"):
            ScorePTracer(
                platform, [PowerPlugin(platform)], sampling_interval_s=interval_s
            )

    def test_duplicate_metric_plugins_rejected(self, platform):
        with pytest.raises(ValueError, match="twice"):
            ScorePTracer(
                platform, [PowerPlugin(platform), PowerPlugin(platform)]
            )


class TestPhaseProfiles:
    def test_profile_per_phase(self, spec_trace):
        run, trace = spec_trace
        profiles = postprocess_profiles(trace)
        long_phases = [p for p in run.phases if p.duration_s >= 0.5]
        assert len(profiles) == len(long_phases)

    def test_profile_contents(self, roco2_trace):
        run, trace = roco2_trace
        table = haecsim_profiles(trace)
        assert len(table) == 1
        assert table.workloads == ("compute",)
        assert table.active_threads.tolist() == [8]
        assert table.power_w[0] == pytest.approx(
            run.phases[0].power_breakdown.measured_w, rel=0.02
        )
        assert table.voltage_v[0] == pytest.approx(
            run.phases[0].true_voltage_v, abs=0.005
        )
        assert set(table.counter_names) == set(EVENTS.events)
        assert not np.isnan(table.rates_per_s).any()

    def test_rate_per_cycle_normalization(self, roco2_trace):
        run, trace = roco2_trace
        table = haecsim_profiles(trace)
        cycles_per_s = table.rates_per_s[0, table.counter_names.index("TOT_CYC")]
        # TOT_CYC per cycle must equal the active core count.
        assert cycles_per_s / (table.frequency_mhz[0] * 1e6) == pytest.approx(
            8, rel=0.02
        )

    def test_haecsim_rejects_spec_traces(self, spec_trace):
        _, trace = spec_trace
        with pytest.raises(ValueError, match="synthetic"):
            haecsim_profiles(trace)

    def test_missing_metadata_rejected(self, roco2_trace):
        _, trace = roco2_trace
        broken = type(trace)(meta={"workload": "x"})
        with pytest.raises(ValueError, match="metadata"):
            profile_trace(broken)

    def test_short_phases_dropped(self, platform):
        run = platform.execute(get_workload("md"), 2400, 24)
        trace = trace_run(platform, run, EVENTS, sampling_interval_s=0.5)
        table = profile_trace(trace, min_duration_s=1e9)
        assert len(table) == 0
        assert table.run_offsets == (0, 0)


class TestTraceBlock:
    """A block of runs is the per-run traces, stacked: each run's
    samples and profiles do not depend on the rest of the block."""

    RUNS = (("compute", 2400, 8), ("md", 1200, 24), ("idle", 2400, 1))

    @pytest.fixture(scope="class")
    def tracer_and_runs(self, platform):
        tracer = ScorePTracer(
            platform,
            [
                PowerPlugin(platform),
                VoltagePlugin(platform),
                ApapiPlugin(platform, EVENTS),
            ],
        )
        runs = [
            platform.execute(get_workload(name), f, t, run_index=2)
            for name, f, t in self.RUNS
        ]
        return tracer, runs

    def test_block_runs_equal_single_traces(self, tracer_and_runs):
        tracer, runs = tracer_and_runs
        block = tracer.trace(runs)
        assert len(block.metas) == len(runs)
        for r, run in enumerate(runs):
            alone, stacked = tracer.trace(run), block.trace(r)
            assert stacked.meta == alone.meta
            assert stacked.events == alone.events
            assert list(stacked.metrics) == list(alone.metrics)
            for name, stream in alone.metrics.items():
                assert np.array_equal(stacked.metrics[name].times_s, stream.times_s)
                assert np.array_equal(stacked.metrics[name].values, stream.values)

    def test_block_profiles_equal_single_profiles(self, tracer_and_runs):
        tracer, runs = tracer_and_runs
        alone = [profile_trace(tracer.trace(run)) for run in runs]
        expected = PhaseTable.gather([(t, 0, len(t)) for t in alone])
        assert tables_equal(postprocess_profiles(tracer.trace(runs)), expected)
        assert tables_equal(profile_block(tracer.trace(runs)), expected)

    def test_haecsim_checks_every_run_of_a_block(self, tracer_and_runs):
        tracer, runs = tracer_and_runs
        kernels = [run for run in runs if run.suite == "roco2"]
        assert len(haecsim_profiles(tracer.trace(kernels))) == len(kernels)
        with pytest.raises(ValueError, match="synthetic"):
            haecsim_profiles(tracer.trace(runs))

    def test_empty_block_rejected(self, tracer_and_runs):
        tracer, _ = tracer_and_runs
        with pytest.raises(ValueError, match="at least one run"):
            tracer.trace([])
