"""The block screen and ``validate_trace`` share one sample-level check:
the screen flags exactly the runs ``validate_trace`` rejects, with the
same ``kind``, whatever corrupted them."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    AcquisitionError,
    FaultInjector,
    FaultPlan,
    PLAUSIBLE_MAX_RATE_PER_S,
    STUCK_RUN_LENGTH,
    screen_block,
    validate_trace,
)
from repro.hardware import EventSet, FIXED_COUNTERS
from repro.tracing import ApapiPlugin, PowerPlugin, ScorePTracer, VoltagePlugin
from repro.tracing.otf2 import MetricDef, TraceBlock
from repro.workloads import get_workload
from tests.oracles.acquisition import stack_traces

EVENTS = EventSet(events=tuple(FIXED_COUNTERS) + ("PRF_DM",))

#: Fault plans whose corruptions the parity test replays: the chaos
#: mix at several intensities, and each sample-level fault alone so
#: every kind is reached (the chaos mix mostly shows up as dropout).
PLANS = {
    "chaos-0.1": FaultPlan.chaos(0.1),
    "chaos-0.25": FaultPlan.chaos(0.25),
    "chaos-1": FaultPlan.chaos(1.0),
    "nan": FaultPlan(nan_sample_rate=0.002),
    "stuck": FaultPlan(sensor_stuck_rate=0.5),
    "overflow": FaultPlan(counter_overflow_rate=0.3),
    "truncate": FaultPlan(trace_truncation_rate=1.0),
}


def rejections(traces):
    """Run index → the ``kind`` ``validate_trace`` raises for it."""
    out = {}
    for r, trace in enumerate(traces):
        try:
            validate_trace(trace)
        except AcquisitionError as exc:
            out[r] = exc.kind
    return out


@pytest.fixture(scope="module")
def clean_traces(platform):
    tracer = ScorePTracer(
        platform,
        [PowerPlugin(platform), VoltagePlugin(platform), ApapiPlugin(platform, EVENTS)],
    )
    runs = [
        platform.execute(get_workload(name), frequency_mhz, threads)
        for name in ("compute", "idle", "md", "memory_read")
        for frequency_mhz, threads in ((1200, 1), (2400, 24))
    ]
    block = tracer.trace(runs)
    return [block.trace(r) for r in range(len(runs))]


class TestScreenParity:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_screen_flags_what_validate_trace_rejects(
        self, clean_traces, fault_seed, name
    ):
        plan = dataclasses.replace(PLANS[name], fault_seed=fault_seed)
        injector = FaultInjector(plan, 7)
        for attempt in range(3):
            corrupted = [
                injector.corrupt_trace(trace, attempt=attempt)
                for trace in clean_traces
            ]
            assert screen_block(stack_traces(corrupted)) == rejections(corrupted)

    def test_every_kind_is_reached(self, clean_traces, fault_seed):
        kinds = set()
        for name in ("nan", "stuck", "overflow"):
            injector = FaultInjector(
                dataclasses.replace(PLANS[name], fault_seed=fault_seed), 7
            )
            for attempt in range(3):
                corrupted = [
                    injector.corrupt_trace(trace, attempt=attempt)
                    for trace in clean_traces
                ]
                kinds.update(screen_block(stack_traces(corrupted)).values())
        assert kinds == {"sensor-dropout", "sensor-stuck", "counter-overflow"}

    def test_clean_block_flags_nothing(self, clean_traces):
        assert screen_block(stack_traces(clean_traces)) == {}

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([100.0, 100.0, 101.0, float("nan")]),
                    st.sampled_from([1e6, 1e6, 2 * PLAUSIBLE_MAX_RATE_PER_S]),
                ),
                max_size=3 * STUCK_RUN_LENGTH,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_flat_runs_do_not_cross_run_boundaries(self, runs):
        # Few distinct power values make flat stretches common, also
        # across the seam between two runs: such a stretch is a flat
        # line in neither run, and the screen must not flag it.
        offsets = [0]
        for samples in runs:
            offsets.append(offsets[-1] + len(samples))
        values = np.array(
            [s for samples in runs for s in samples], dtype=np.float64
        ).reshape(-1, 2).T
        block = TraceBlock(
            metas=tuple({"run_index": r} for r in range(len(runs))),
            intervals=tuple(() for _ in runs),
            defs=(
                MetricDef(PowerPlugin.METRIC, "W"),
                MetricDef(f"{ApapiPlugin.PREFIX}PRF_DM", "events/s"),
            ),
            values=values,
            times=tuple(
                np.arange(1.0, len(samples) + 1.0) for samples in runs
            ),
            offsets=tuple(offsets),
        )
        traces = [block.trace(r) for r in range(len(runs))]
        assert screen_block(block) == rejections(traces)
