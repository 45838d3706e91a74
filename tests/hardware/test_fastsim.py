"""Bit-identity and memoization tests for the batched acquisition
kernel (DESIGN.md §17).

The contract under test: every production layer — the vectorized
microarchitecture/power kernel, the phase-state memo, the batched
jitter, the shared-grid tracer — produces byte-identical results to
the scalar oracle in :mod:`tests.oracles.acquisition`."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.acquisition import campaign as campaign_module
from repro.acquisition.campaign import Campaign, CampaignPlan
from repro.hardware import (
    CORTEX_A15_CONFIG,
    CORTEX_A15_POWER_PARAMS,
    HASWELL_EP_CONFIG,
    SKYLAKE_SP_CONFIG,
    SKYLAKE_SP_POWER_PARAMS,
)
from repro.hardware.counters import COUNTER_NAMES
from repro.hardware.fastsim import PhaseStateMemo, simulate_phases
from repro.hardware.microarch import place_threads
from repro.hardware.platform import Platform
from repro.hardware.pmu import EventSet
from repro.hardware.power import HASWELL_EP_POWER_PARAMS
from repro.tracing.phases import profile_trace
from repro.tracing.plugins import (
    ApapiPlugin,
    MultiplexedApapiPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.scorep import ScorePTracer, trace_multiplexed_run, trace_run
from repro.workloads import get_workload
from repro.workloads.registry import all_workloads
from tests.oracles.acquisition import (
    build_dataset,
    merge_runs,
    profile_table,
    scalar_acquisition,
    scalar_execute,
    scalar_profile_trace,
    scalar_trace,
    tables_equal,
)
from tests.oracles.physics import compute_power, evaluate

FREQUENCIES = (1200, 1800, 2400)
THREAD_COUNTS = (1, 2, 8, 12, 13, 24)

#: Every platform config with its own power parameters.
PLATFORMS = (
    pytest.param(HASWELL_EP_CONFIG, HASWELL_EP_POWER_PARAMS, id="haswell-ep"),
    pytest.param(SKYLAKE_SP_CONFIG, SKYLAKE_SP_POWER_PARAMS, id="skylake-sp"),
    pytest.param(CORTEX_A15_CONFIG, CORTEX_A15_POWER_PARAMS, id="cortex-a15"),
)


def assert_states_equal(a, b):
    """MicroarchState equality, field by field (dataclass ``==`` is
    ambiguous on the ndarray member)."""
    assert np.array_equal(a.counter_rates, b.counter_rates)
    assert a.hidden == b.hidden


def assert_kernel_matches_oracle(chars, threads, op, cfg, params):
    """One ``simulate_phases`` batch against the scalar oracle, row by
    row; returns the number of rows checked."""
    batched = simulate_phases(chars, threads, op, cfg, params)
    assert len(batched) == len(chars)
    for char, t, (state, breakdown) in zip(chars, threads, batched):
        ref = evaluate(char, op, t, cfg)
        assert_states_equal(state, ref)
        assert breakdown == compute_power(ref.hidden, op, cfg, params)
    return len(batched)


def registry_rows(thread_counts):
    """Every registry phase at each thread count, as (chars, threads)."""
    chars, threads = [], []
    for wl in all_workloads():
        for t in thread_counts:
            for spec in wl.phases(t):
                chars.append(spec.characterization)
                threads.append(spec.active_threads)
    return chars, threads


class TestKernelBitIdentity:
    """simulate_phases vs the scalar evaluate/compute_power pair."""

    def test_full_registry_identical(self, platform):
        cfg = platform.cfg
        checked = 0
        for wl in all_workloads():
            for freq_mhz in FREQUENCIES:
                op = cfg.curve.operating_point(freq_mhz)
                for threads in THREAD_COUNTS:
                    specs = tuple(wl.phases(threads))
                    batched = simulate_phases(
                        [s.characterization for s in specs],
                        [s.active_threads for s in specs],
                        op,
                        cfg,
                        HASWELL_EP_POWER_PARAMS,
                    )
                    for spec, (state, breakdown) in zip(specs, batched):
                        ref_state = evaluate(
                            spec.characterization, op, spec.active_threads, cfg
                        )
                        ref_breakdown = compute_power(
                            ref_state.hidden, op, cfg, HASWELL_EP_POWER_PARAMS
                        )
                        assert_states_equal(state, ref_state)
                        assert breakdown == ref_breakdown
                        checked += 1
        assert checked > 500

    def test_single_phase_batch(self, platform):
        wl = get_workload("compute")
        op = platform.cfg.curve.operating_point(2400)
        (spec,) = tuple(wl.phases(8))
        ((state, breakdown),) = simulate_phases(
            [spec.characterization], [spec.active_threads], op, platform.cfg
        )
        ref = evaluate(spec.characterization, op, spec.active_threads, platform.cfg)
        assert_states_equal(state, ref)
        assert breakdown == compute_power(
            ref.hidden, op, platform.cfg, HASWELL_EP_POWER_PARAMS
        )

    @pytest.mark.parametrize("cfg, params", PLATFORMS)
    def test_every_pstate_identical(self, cfg, params):
        per_socket = cfg.cores_per_socket
        counts = sorted(
            {1, per_socket, min(per_socket + 1, cfg.total_cores), cfg.total_cores}
        )
        chars, threads = registry_rows(counts)
        for pstate in cfg.curve.pstates:
            op = cfg.curve.operating_point(pstate.frequency_mhz)
            assert_kernel_matches_oracle(chars, threads, op, cfg, params)

    @pytest.mark.parametrize("cfg, params", PLATFORMS)
    def test_all_idle_placement_identical(self, cfg, params):
        # Every socket of every row takes the background path.
        chars, _ = registry_rows((1,))
        threads = [0] * len(chars)
        for pstate in cfg.curve.pstates:
            op = cfg.curve.operating_point(pstate.frequency_mhz)
            assert_kernel_matches_oracle(chars, threads, op, cfg, params)

    @pytest.mark.parametrize("cfg, params", PLATFORMS[:2])
    def test_one_idle_socket_identical(self, cfg, params):
        # A full first socket and an idle second one, mixed in one
        # batch with rows that use both sockets.
        busy = cfg.cores_per_socket
        assert place_threads(busy, cfg)[1] == 0
        chars, _ = registry_rows((1,))
        threads = [busy if i % 2 else cfg.total_cores for i in range(len(chars))]
        for pstate in cfg.curve.pstates:
            op = cfg.curve.operating_point(pstate.frequency_mhz)
            assert_kernel_matches_oracle(chars, threads, op, cfg, params)


class TestExecuteBitIdentity:
    """Platform.execute vs the scalar oracle, jitter included."""

    @pytest.mark.parametrize("run_index", [0, 3])
    def test_execute_fast_equals_scalar(self, run_index):
        platform = Platform()
        for wl_name in ("compute", "memory_read", "idle", "md"):
            wl = get_workload(wl_name)
            for freq_mhz in (1200, 2400):
                for threads in (1, 13, 24):
                    fast = platform.execute(
                        wl, freq_mhz, threads, run_index=run_index
                    )
                    scalar = scalar_execute(
                        platform, wl, freq_mhz, threads, run_index=run_index
                    )
                    assert fast.workload_name == scalar.workload_name
                    assert fast.op == scalar.op
                    assert len(fast.phases) == len(scalar.phases)
                    for pf, ps in zip(fast.phases, scalar.phases):
                        assert pf.phase == ps.phase
                        assert pf.start_s == ps.start_s
                        assert pf.end_s == ps.end_s
                        assert_states_equal(pf.state, ps.state)
                        assert pf.power_breakdown == ps.power_breakdown
                        assert pf.true_voltage_v == ps.true_voltage_v

    def test_oracle_swap_replays_scalar_execute(self):
        platform = Platform()
        wl = get_workload("memory_write")
        fast = platform.execute(wl, 2400, 8)
        with scalar_acquisition():
            oracle_platform = Platform()
            scalar = oracle_platform.execute(wl, 2400, 8)
        # The swapped-in oracle bypasses the production memos.
        assert not oracle_platform._run_memo
        assert len(fast.phases) == len(scalar.phases)
        for pf, ps in zip(fast.phases, scalar.phases):
            assert_states_equal(pf.state, ps.state)
            assert pf.power_breakdown == ps.power_breakdown

    def test_explicit_phases_match_derived(self):
        platform = Platform()
        wl = get_workload("md")
        derived = platform.execute(wl, 2400, 24)
        explicit = platform.execute(
            wl, 2400, 24, phases=tuple(wl.phases(24))
        )
        for pf, ps in zip(derived.phases, explicit.phases):
            assert pf.phase == ps.phase
            assert_states_equal(pf.state, ps.state)
            assert pf.power_breakdown == ps.power_breakdown


class TestPhaseStateMemo:
    def test_event_set_reruns_hit_the_memo(self):
        """A campaign re-executes each experiment once per PMU event
        set; after the first run the memos must serve every repeat."""
        platform = Platform()
        wl = get_workload("md")
        platform.execute(wl, 2400, 24, run_index=0)
        misses_after_first = platform._phase_memo.misses
        assert (wl.name, 2400, 24) in platform._run_memo
        for run_index in (1, 2, 3):
            platform.execute(wl, 2400, 24, run_index=run_index)
        # Repeats replay the run skeleton: no new phase evaluations.
        assert platform._phase_memo.misses == misses_after_first
        # A rebuilt skeleton (fresh worker, evicted entry) is served
        # entirely from the phase-state memo.
        platform._run_memo.clear()
        platform.execute(wl, 2400, 24, run_index=4)
        assert platform._phase_memo.misses == misses_after_first
        assert platform._phase_memo.hits > 0

    def test_prime_run_skeletons_is_pure_warmup(self):
        """Cross-experiment priming batches all phase evaluations into
        one kernel call; executes after it are served entirely warm and
        are bit-identical to a cold platform's."""
        primed = Platform()
        experiments = [
            (get_workload("md"), 2400, 24),
            (get_workload("compute"), 1200, 8),
            (get_workload("idle"), 2400, 1),
        ]
        primed.prime_run_skeletons(experiments)
        misses_after_prime = primed._phase_memo.misses
        cold = Platform()
        for wl, freq_mhz, threads in experiments:
            assert (wl.name, freq_mhz, threads) in primed._run_memo
            warm = primed.execute(wl, freq_mhz, threads, run_index=1)
            ref = cold.execute(wl, freq_mhz, threads, run_index=1)
            for pf, ps in zip(warm.phases, ref.phases):
                assert_states_equal(pf.state, ps.state)
                assert pf.power_breakdown == ps.power_breakdown
                assert pf.true_voltage_v == ps.true_voltage_v
        assert primed._phase_memo.misses == misses_after_prime
        # Re-priming the same experiments is a no-op.
        primed.prime_run_skeletons(experiments)
        assert primed._phase_memo.misses == misses_after_prime

    def test_memoized_reexecution_is_identical(self):
        platform = Platform()
        wl = get_workload("compute")
        first = platform.execute(wl, 2400, 8, run_index=0)
        again = platform.execute(wl, 2400, 8, run_index=0)
        for pf, ps in zip(first.phases, again.phases):
            assert_states_equal(pf.state, ps.state)
            assert pf.power_breakdown == ps.power_breakdown

    def test_capacity_eviction_fifo(self):
        memo = PhaseStateMemo(capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.get("a") is None  # oldest evicted
        assert memo.get("b") == 2
        assert memo.get("c") == 3

    def test_clear_resets_entries_and_stats(self):
        memo = PhaseStateMemo()
        memo.put("a", 1)
        memo.get("a")
        memo.get("zzz")
        memo.clear()
        assert len(memo) == 0
        assert memo.hits == 0 and memo.misses == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PhaseStateMemo(capacity=0)


class TestTracerBitIdentity:
    """The shared-grid tracer vs the scalar recording oracle."""

    EVENTS = tuple(COUNTER_NAMES[:8])

    def assert_traces_equal(self, fast, scalar):
        assert fast.meta == scalar.meta
        assert fast.events == scalar.events
        assert list(fast.metrics) == list(scalar.metrics)
        for name in fast.metrics:
            a, b = fast.metrics[name], scalar.metrics[name]
            assert a.definition == b.definition
            assert np.array_equal(a.times_s, b.times_s)
            assert np.array_equal(a.values, b.values)

    def test_trace_run_identical(self, platform):
        run = platform.execute(get_workload("md"), 2400, 24)
        evset = EventSet(self.EVENTS)
        fast = trace_run(platform, run, evset)
        with scalar_acquisition():
            scalar = trace_run(platform, run, evset)
        self.assert_traces_equal(fast, scalar)
        assert tables_equal(
            profile_trace(fast), profile_table([scalar_profile_trace(scalar)])
        )

    def test_trace_multiplexed_identical(self, platform):
        run = platform.execute(get_workload("memory_read"), 1200, 8)
        fast = trace_multiplexed_run(platform, run, COUNTER_NAMES[:12])
        with scalar_acquisition():
            scalar = trace_multiplexed_run(platform, run, COUNTER_NAMES[:12])
        self.assert_traces_equal(fast, scalar)

    def test_fast_streams_share_one_times_array(self, platform):
        run = platform.execute(get_workload("md"), 2400, 24)
        trace = trace_run(platform, run, EventSet(self.EVENTS))
        assert len({id(m.times_s) for m in trace.metrics.values()}) == 1

    def test_oracle_swap_selects_scalar_path(self, platform):
        run = platform.execute(get_workload("compute"), 2400, 8)
        fast = trace_run(platform, run, EventSet(self.EVENTS))
        with scalar_acquisition():
            scalar = trace_run(platform, run, EventSet(self.EVENTS))
        self.assert_traces_equal(fast, scalar)
        # The oracle builds per-stream arrays, not a shared one.
        assert len({id(m.times_s) for m in scalar.metrics.values()}) > 1


class TestRngWordsPriming:
    """Campaign-level RNG priming is a pure derivation cache: primed
    and cold platforms draw byte-identical jitter and sensor streams."""

    EVENTS = tuple(COUNTER_NAMES[:8])
    RUNS = (
        ("md", 2400, 24, 0),
        ("md", 2400, 24, 1),
        ("compute", 1200, 8, 0),
    )

    def assert_metrics_equal(self, a_trace, b_trace):
        assert list(a_trace.metrics) == list(b_trace.metrics)
        for name in a_trace.metrics:
            a, b = a_trace.metrics[name], b_trace.metrics[name]
            assert np.array_equal(a.times_s, b.times_s)
            assert np.array_equal(a.values, b.values)

    def test_prime_rng_words_is_pure_warmup(self):
        primed = Platform()
        runs = [
            (get_workload(name), f, t, r) for name, f, t, r in self.RUNS
        ]
        primed.prime_rng_words(
            runs, ("PowerPlugin", "VoltagePlugin", "ApapiPlugin")
        )
        cold = Platform()
        for wl, freq_mhz, threads, run_index in runs:
            key = (wl.name, freq_mhz, threads, run_index)
            assert key in primed._rng_words
            warm_run = primed.execute(
                wl, freq_mhz, threads, run_index=run_index
            )
            ref_run = cold.execute(wl, freq_mhz, threads, run_index=run_index)
            # Jitter draws come from the primed "run" words: durations
            # and per-phase states must match a cold derivation.
            for pf, ps in zip(warm_run.phases, ref_run.phases):
                assert pf.duration_s == ps.duration_s
                assert_states_equal(pf.state, ps.state)
            evset = EventSet(self.EVENTS)
            warm = trace_run(primed, warm_run, evset)
            ref = trace_run(cold, ref_run, evset)
            self.assert_metrics_equal(warm, ref)

    def test_unprimed_plugin_falls_back_to_hashing(self):
        # Entry present but holding no words for the multiplexed
        # plugin: the tracer must fall back to the hashed derivation
        # and still match a cold platform bit for bit.
        primed = Platform()
        wl = get_workload("memory_read")
        primed.prime_rng_words(
            [(wl, 1200, 8, 0)], ("PowerPlugin", "VoltagePlugin")
        )
        cold = Platform()
        warm = trace_multiplexed_run(
            primed,
            primed.execute(wl, 1200, 8, run_index=0),
            COUNTER_NAMES[:12],
        )
        ref = trace_multiplexed_run(
            cold,
            cold.execute(wl, 1200, 8, run_index=0),
            COUNTER_NAMES[:12],
        )
        self.assert_metrics_equal(warm, ref)


def _oracle_dataset(plan):
    """The plan's dataset from the scalar oracle's own per-cell loop:
    ``scalar_execute`` → ``scalar_trace`` → ``scalar_profile_trace``
    for every cell of the grid, then the oracle's per-profile merge and
    assembly."""
    platform = Platform()
    profiles = []
    for cell in Campaign(platform, plan).cells():
        run = scalar_execute(
            platform,
            cell.workload,
            cell.frequency_mhz,
            cell.threads,
            run_index=cell.run_index,
        )
        if cell.event_set is None:
            counters = MultiplexedApapiPlugin(platform, plan.events)
        else:
            counters = ApapiPlugin(platform, cell.event_set)
        tracer = ScorePTracer(
            platform,
            [PowerPlugin(platform), VoltagePlugin(platform), counters],
            sampling_interval_s=plan.sampling_interval_s,
        )
        profiles.extend(scalar_profile_trace(scalar_trace(tracer, run)))
    return build_dataset(merge_runs(profiles), counter_names=plan.events)


def assert_datasets_identical(a, b):
    assert a.counter_names == b.counter_names
    assert np.array_equal(a.counters, b.counters)
    assert np.array_equal(a.power_w, b.power_w)
    assert np.array_equal(a.voltage_v, b.voltage_v)
    assert a.workloads == b.workloads
    assert a.phase_names == b.phase_names


class TestCampaignBitIdentity:
    """End-to-end: a small campaign dataset is byte-equal between the
    block kernel and the scalar oracle, whatever the block size."""

    PLAN = CampaignPlan(
        workloads=tuple(get_workload(w) for w in ("idle", "compute", "md")),
        frequencies_mhz=(1200, 2400),
        thread_counts_override=(1, 24),
        events=tuple(COUNTER_NAMES[:8]),
    )

    def test_small_campaign_dataset_identical(self):
        assert_datasets_identical(
            Campaign(Platform(), self.PLAN).run().dataset,
            _oracle_dataset(self.PLAN),
        )

    def test_campaign_loop_on_oracle_identical(self):
        # The whole campaign loop replayed on the swapped-in oracle,
        # blocks included (stacked scalar traces, per-run profiles).
        with scalar_acquisition():
            oracle = Campaign(Platform(), self.PLAN).run()
        assert oracle.report.clean
        assert_datasets_identical(
            Campaign(Platform(), self.PLAN).run().dataset, oracle.dataset
        )

    def test_time_division_campaign_identical(self):
        plan = dataclasses.replace(self.PLAN, multiplexing="time-division")
        assert_datasets_identical(
            Campaign(Platform(), plan).run().dataset, _oracle_dataset(plan)
        )

    @pytest.mark.parametrize("budget", [1, 250])
    def test_block_boundaries_invisible(self, monkeypatch, budget):
        # Budget 1 puts every run in a block of its own; 250 samples
        # cuts the plan into unevenly filled blocks.
        reference = Campaign(Platform(), self.PLAN).run().dataset
        assert campaign_module.BLOCK_SAMPLES > 250
        calls = []
        trace = ScorePTracer.trace

        def counting_trace(tracer, runs):
            calls.append(len(runs))
            return trace(tracer, runs)

        monkeypatch.setattr(campaign_module, "BLOCK_SAMPLES", budget)
        monkeypatch.setattr(ScorePTracer, "trace", counting_trace)
        campaign = Campaign(Platform(), self.PLAN)
        assert_datasets_identical(campaign.run().dataset, reference)
        assert sum(calls) == len(campaign.cells())
        if budget == 1:
            assert set(calls) == {1}
        else:
            assert len(set(calls)) > 1
