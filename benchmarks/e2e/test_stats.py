"""Self-tests of the benchmark's order statistics, host scaling, digests and span totals.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import statistics

import pytest

from benchmarks.e2e import calibrate, stats, tracing


@pytest.mark.parametrize("n", [1, 5, 10])
def test_no_tail_percentile_below_eleven_samples(n):
    assert stats.tail_percentile(n) is None


@pytest.mark.parametrize("n, expected", [(11, 9), (20, 52), (120, 92), (170, 94), (1000, 99)])
def test_tail_percentile_known_values(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", range(11, 400))
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    p = stats.tail_percentile(n)
    values = [float(v) for v in range(n)]
    beyond = sum(v > stats.percentile(values, p) for v in values)
    assert beyond >= 10
    if p < 100:
        above = stats.percentile(values, p + 1)
        assert sum(v > above for v in values) < 10


def test_percentile_matches_inclusive_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3, 2.3]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    for k, expected in enumerate(deciles, start=1):
        assert stats.percentile(values, 10 * k) == pytest.approx(expected)
    assert stats.percentile(values, 0) == min(values)
    assert stats.percentile(values, 100) == max(values)


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.2]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_host_scale_maps_the_mean_kernel_time_to_the_reference():
    reference_s = calibrate.REFERENCE_MS / 1000.0
    assert calibrate.scale([reference_s] * 5) == pytest.approx(1.0)
    # Slow spells over half the samples: the host ran at 3/4 speed.
    assert calibrate.scale([reference_s, 5 * reference_s / 3] * 4) == pytest.approx(0.75)


RUNNER_OUTPUT = """\
========================================================================
table1  ({t1} s)
========================================================================
TABLE I selected counters
  CA_SNP   0.91
fig4  ({t2} s)
scenario 1:random-workloads      13.98%
ran 2 experiment(s) in {total} s (serial×1)
"""


def test_digest_ignores_only_timing_lines():
    cold = RUNNER_OUTPUT.format(t1="1.1", t2="0.0", total="1.2")
    warm = RUNNER_OUTPUT.format(t1="0.0", t2="12.3", total="0.1")
    assert stats.paper_digest(cold) == stats.paper_digest(warm)
    changed = warm.replace("13.98%", "13.99%")
    assert stats.paper_digest(changed) != stats.paper_digest(warm)


def test_digest_keeps_lines_that_only_resemble_timing():
    base = RUNNER_OUTPUT.format(t1="1.1", t2="0.0", total="1.2")
    for extra in ("table1  (1.1 s) extra", "table1 (1.1 s)", "ran 2 experiments in 1.2 s"):
        assert stats.paper_digest(base + extra + "\n") != stats.paper_digest(base)


def test_layer_totals_self_time_excludes_children():
    spans = [
        [0, "root", 0.0, 10.0, None],
        [1, "a", 1.0, 5.0, 0],
        [2, "b", 2.0, 3.0, 1],
        [3, "a", 3.5, 4.5, 1],  # recursion: busy counts the outer span only
        [4, "b", 6.0, 9.0, 0],
        [5, "other-root", 20.0, 21.0, None],
    ]
    totals = tracing.layer_totals(spans, roots=["root"])
    assert set(totals) == {"root", "a", "b"}
    assert totals["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert totals["a"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert totals["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert sum(r["self_s"] for r in totals.values()) == 10.0
    assert tracing.layer_totals(spans)["other-root"]["self_s"] == 1.0


def test_recorder_round_trips_spans(tmp_path):
    recorder = tracing.Recorder()
    double = recorder.wrap(lambda x: 2 * x, "layer.double")
    with recorder.span("root"):
        assert double(21) == 42
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(str(path))
    spans, written = tracing.load_jsonl(str(path))
    assert [(s[0], s[1], s[4]) for s in spans] == [(0, "root", None), (1, "layer.double", 0)]
    assert spans[0][2] <= spans[1][2] <= spans[1][3] <= spans[0][3] <= written
