"""Self-tests of ``compare``'s verdicts on synthetic samples.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json

import pytest

from benchmarks.e2e import compare

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.8, 99.2, 100.1]


def shifted(values, delta):
    return [v + delta for v in values]


def test_clear_gain_lower_is_better():
    verdict, detail = compare.judge(PARENT, shifted(PARENT, -20.0), "lower", 0.1)
    assert verdict == "gain"
    assert detail["wins"] == 10
    assert detail["change_vs_parent"] == pytest.approx(-0.2, abs=1e-3)


def test_clear_gain_higher_is_better():
    verdict, _ = compare.judge(PARENT, shifted(PARENT, 20.0), "higher", 0.1)
    assert verdict == "gain"


def test_gain_needs_nine_wins_in_ten():
    change = shifted(PARENT, -20.0)
    change[0] = change[1] = 200.0  # two losses: 8/10 wins
    verdict, detail = compare.judge(PARENT, change, "lower", 0.1)
    assert detail["wins"] == 8
    assert verdict != "gain"


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[:9] = shifted(PARENT[:9], -20.0)  # 9 wins, 1 tie
    verdict, detail = compare.judge(PARENT, change, "lower", 0.1)
    assert detail["wins"] == 9
    assert verdict == "gain"
    change[8] = PARENT[8]  # 8 wins, 2 ties
    assert compare.judge(PARENT, change, "lower", 0.1)[0] != "gain"


def test_gain_needs_a_gap_wider_than_the_parent_iqr():
    # Always a little better, but by less than the parent's own spread.
    verdict, detail = compare.judge(PARENT, shifted(PARENT, -0.3), "lower", 0.1)
    assert detail["wins"] == 10
    assert detail["parent_iqr"] > 0.3
    assert verdict == "within bound"


def test_regression_beyond_the_bound():
    verdict, _ = compare.judge(PARENT, shifted(PARENT, 15.0), "lower", 0.1)
    assert verdict == "regression"
    verdict, _ = compare.judge(PARENT, shifted(PARENT, -15.0), "higher", 0.1)
    assert verdict == "regression"


def test_worsening_within_the_bound():
    verdict, _ = compare.judge(PARENT, shifted(PARENT, 5.0), "lower", 0.1)
    assert verdict == "within bound"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 95.0]
    verdict, _ = compare.judge(noisy, shifted(noisy, 5.0), "lower", 0.1)
    assert verdict == "unresolved"


def test_noisy_but_every_change_run_better_is_resolved():
    noisy = [100.0, 130.0, 105.0, 125.0, 110.0, 120.0, 102.0, 128.0, 115.0, 118.0]
    change = [v - 40.0 for v in noisy]
    assert max(change) < min(noisy)
    verdict, _ = compare.judge(noisy, change, "lower", 0.1)
    assert verdict == "gain"


def test_metric_without_bound_is_informational():
    assert compare.judge(PARENT, shifted(PARENT, 50.0), "lower", None)[0] == "info"


SPEC = {
    "end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
    "per_layer": [{"name": "layer_s", "unit": "s", "better": "lower"}],
}


def write_runs(path, values, starts, failed=0, failed_runs=()):
    """Records as ``run --out`` writes them; a failed run has no metrics."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (value, start) in enumerate(zip(values, starts)):
            n_failed = failed if i not in failed_runs else max(failed, 1)
            result = {
                "correct": n_failed == 0,
                "attempted": 10,
                "failed": n_failed,
                "metrics": (
                    {} if n_failed else {"p50_ms": {"value": value, "unit": "ms"}}
                ),
            }
            fh.write(json.dumps({"workload": "fit", "seed": 1, "seconds": 15,
                                 "trace": 0, "started_unix": start,
                                 "result": result}) + "\n")


def alternating_starts(n, parent):
    # Pair i runs parent first when i is even: parent at 2i / 2i+1.
    return [2 * i + (i % 2 if parent else 1 - i % 2) for i in range(n)]


def test_main_accepts_ten_alternating_pairs(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_runs(parent, PARENT, alternating_starts(10, True))
    write_runs(change, shifted(PARENT, 1.0), alternating_starts(10, False))
    assert compare.main(str(parent), str(change), SPEC) == 0
    assert "within bound" in capsys.readouterr().out


def test_main_flags_a_regression(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_runs(parent, PARENT, alternating_starts(10, True))
    write_runs(change, shifted(PARENT, 30.0), alternating_starts(10, False))
    assert compare.main(str(parent), str(change), SPEC) == 1


def test_main_flags_more_failed_operations(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_runs(parent, PARENT, alternating_starts(10, True))
    write_runs(change, shifted(PARENT, -30.0), alternating_starts(10, False), failed=1)
    assert compare.main(str(parent), str(change), SPEC) == 1
    assert "failing" in capsys.readouterr().out


@pytest.mark.parametrize("bad_run", [0, 3])
def test_main_refuses_a_failed_parent_run(tmp_path, capsys, bad_run):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_runs(parent, PARENT, alternating_starts(10, True), failed_runs=(bad_run,))
    write_runs(change, PARENT, alternating_starts(10, False))
    assert compare.main(str(parent), str(change), SPEC) == 2
    assert f"parent run(s) [{bad_run}] failed" in capsys.readouterr().out


def test_main_refuses_too_few_pairs(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_runs(parent, PARENT[:9], alternating_starts(9, True))
    write_runs(change, PARENT[:9], alternating_starts(9, False))
    assert compare.main(str(parent), str(change), SPEC) == 2


def test_main_refuses_one_sided_order(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_runs(parent, PARENT, [2 * i for i in range(10)])
    write_runs(change, PARENT, [2 * i + 1 for i in range(10)])
    assert compare.main(str(parent), str(change), SPEC) == 2
