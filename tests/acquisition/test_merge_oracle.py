"""The columnar merge against the per-profile oracle, on random tables.

``merge_runs`` groups a :class:`~repro.tracing.phases.PhaseTable` by
(workload, frequency, threads, phase) and reduces each group size in
one pass; the oracle (``tests/oracles/acquisition.py``) is the original
dict-of-lists merge over one ``PhaseProfile`` per row.  Each example
draws experiments whose runs may lose phases, whose counters are
recorded in 1 … k of the runs (or none), and whose repeated counters
spread just below, at or just above the 25 % disagreement threshold,
with up to 14 runs so the pairwise summation's unrolled path is
reached.  The merged columns, the recorded issues, the coverage map
and the dataset must equal the oracle's bit for bit; a phase whose
runs disagree on the active thread count must raise the oracle's
``ValueError``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acquisition.postprocess import build_dataset, counter_coverage, merge_runs
from tests.oracles import acquisition as oracle

COUNTERS = ("TOT_CYC", "TOT_INS", "PRF_DM", "L3_TCM", "BR_MSP")
PHASES = ("p0", "p1", "p2")
EXPERIMENTS = [
    (workload, frequency, threads)
    for workload in ("compute", "md")
    for frequency in (1200, 2400)
    for threads in (1, 8)
]
#: Multipliers of a counter's base rate: two runs at 1 and 1.2857…
#: are a 25 % spread (2·(b − a)/(a + b)), so these straddle it.
FACTORS = (1.0, 1.0, 1.01, 1.2857, 1.28571428571, 1.2858, 1.5, 3.0)


@st.composite
def phase_tables(draw):
    """(per-run profile lists, whether an active-thread count was
    corrupted)."""
    experiments = draw(
        st.lists(st.sampled_from(EXPERIMENTS), min_size=1, max_size=3, unique=True)
    )
    corrupt = draw(st.booleans()) and draw(st.booleans())
    runs = []
    for workload, frequency, threads in experiments:
        n_runs = draw(st.integers(1, 14))
        phases = draw(st.lists(st.sampled_from(PHASES), min_size=1, unique=True))
        active = {p: draw(st.integers(1, threads)) for p in phases}
        # Per counter, the runs that record it (possibly none).
        recorded = {
            c: draw(st.sets(st.integers(0, n_runs - 1), max_size=n_runs))
            for c in COUNTERS
        }
        base = {
            (p, c): draw(st.floats(1e3, 1e10))
            for p in phases
            for c in COUNTERS
        }
        for run_index in range(n_runs):
            kept = [p for p in phases if draw(st.integers(0, 5)) > 0]
            profiles = []
            for phase in kept:
                counters = {
                    c: base[phase, c] * draw(st.sampled_from(FACTORS))
                    for c in COUNTERS
                    if run_index in recorded[c]
                }
                profiles.append(
                    oracle.PhaseProfile(
                        workload=workload,
                        suite="roco2" if workload == "compute" else "spec_omp2012",
                        frequency_mhz=frequency,
                        threads=threads,
                        run_index=run_index,
                        phase_name=phase,
                        start_s=0.0,
                        end_s=1.0,
                        active_threads=active[phase],
                        power_w=draw(st.floats(10.0, 300.0)),
                        voltage_v=draw(st.floats(0.6, 1.3)),
                        counter_rates_per_s=counters,
                    )
                )
            runs.append(profiles)
    # Blocks interleave the runs of different experiments.
    runs = draw(st.permutations(runs))
    if corrupt and any(runs):
        r = draw(st.sampled_from([r for r, run in enumerate(runs) if run]))
        i = draw(st.integers(0, len(runs[r]) - 1))
        victim = runs[r][i]
        runs[r] = list(runs[r])
        runs[r][i] = replace(victim, active_threads=victim.active_threads + 1)
    return runs, corrupt


def _bits(x: float) -> str:
    return float(x).hex()


def _oracle_rows(merged):
    return [
        (
            m.workload,
            m.suite,
            m.frequency_mhz,
            m.threads,
            m.phase_name,
            m.active_threads,
            _bits(m.power_w),
            _bits(m.voltage_v),
            {c: _bits(v) for c, v in m.counter_rates_per_s.items()},
        )
        for m in merged
    ]


def _production_rows(merged):
    return [
        (
            merged.workloads[i],
            merged.suites[i],
            int(merged.frequency_mhz[i]),
            int(merged.threads[i]),
            merged.phase_names[i],
            int(merged.active_threads[i]),
            _bits(merged.power_w[i]),
            _bits(merged.voltage_v[i]),
            {
                c: _bits(v)
                for c, v in zip(merged.counter_names, merged.rates_per_s[i])
                if not np.isnan(v)
            },
        )
        for i in range(len(merged))
    ]


def _dataset_or_error(build, merged, names):
    try:
        ds = build(merged, require_complete=False, counter_names=names)
    except ValueError as exc:
        return str(exc)
    return (
        ds.counters.tobytes(),
        ds.power_w.tobytes(),
        ds.voltage_v.tobytes(),
        ds.frequency_mhz.tobytes(),
        ds.threads.tobytes(),
        ds.workloads,
        ds.suites,
        ds.phase_names,
        ds.counter_names,
    )


@given(phase_tables())
@settings(max_examples=200, deadline=None)
def test_merge_equals_per_profile_oracle(drawn):
    runs, corrupt = drawn
    table = oracle.profile_table(runs)
    profiles = oracle.table_profiles(table)
    expected_issues, issues = [], []
    try:
        expected = oracle.merge_runs(
            profiles,
            on_phase_mismatch="record",
            on_counter_disagreement="record",
            issues=expected_issues,
        )
    except ValueError as exc:
        assert corrupt and "inconsistent active thread counts" in str(exc)
        with pytest.raises(ValueError) as raised:
            merge_runs(table, issues=issues)
        assert str(raised.value) == str(exc)
        return
    merged = merge_runs(table, issues=issues)
    assert _production_rows(merged) == _oracle_rows(expected)
    assert issues == expected_issues

    coverage = counter_coverage(merged, COUNTERS)
    n = len(expected)
    assert coverage == {
        c: (sum(1 for m in expected if c in m.counter_rates_per_s) / n if n else 0.0)
        for c in COUNTERS
    }
    for names in (COUNTERS, COUNTERS[:2], ("TOT_CYC",)):
        assert _dataset_or_error(build_dataset, merged, names) == _dataset_or_error(
            oracle.build_dataset, expected, names
        )


def test_campaign_sized_groups_reduce_like_np_mean():
    """Thirteen runs (the paper's event-set count) take the unrolled
    pairwise sum; each mean still equals ``np.mean`` over the list."""
    rng = np.random.default_rng(7)
    runs = [
        [
            oracle.PhaseProfile(
                workload="md", suite="spec_omp2012", frequency_mhz=2400,
                threads=24, run_index=r, phase_name=f"p{k}", start_s=0.0,
                end_s=1.0, active_threads=24,
                power_w=float(rng.uniform(50, 250)), voltage_v=1.0,
                counter_rates_per_s={"TOT_CYC": float(rng.uniform(1e9, 1.01e9))},
            )
            for k in range(40)
        ]
        for r in range(13)
    ]
    merged = merge_runs(oracle.profile_table(runs))
    for k in range(40):
        powers = [run[k].power_w for run in runs]
        cycles = [run[k].counter_rates_per_s["TOT_CYC"] for run in runs]
        assert _bits(merged.power_w[k]) == _bits(np.mean(powers))
        assert _bits(merged.rates_per_s[k, 0]) == _bits(np.asarray(cycles).mean())
