"""The reproduction's acceptance tests: the DESIGN.md shape targets.

Each test asserts one of the paper's qualitative/quantitative claims on
the regenerated evaluation.  These run on the session-cached full
campaign, so they are fast after the first build.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    table1,
    table2,
    table3,
    table4,
)
from repro.hardware.counters import describe


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, selection_dataset):
        return table1.run(selection_dataset)

    def test_six_counters_selected(self, result):
        assert len(result.steps) == 6

    def test_first_counter_is_memory_related(self, result):
        group = describe(result.steps[0].counter).group
        assert group in ("coherence", "prefetch", "cache_l3", "cache_l2")

    def test_r2_reaches_high_value(self, result):
        assert result.steps[-1].rsquared > 0.985

    def test_vif_of_six_stays_moderate(self, result):
        vifs = [s.mean_vif for s in result.steps[1:]]
        assert max(vifs) <= 6.0

    def test_adj_r2_tracks_r2(self, result):
        for s in result.steps:
            assert s.rsquared - s.rsquared_adj < 0.005

    def test_extended_selection_blows_vif(self, result):
        """The paper's CA_SNP anomaly: a later counter adds little R²
        but pushes the mean VIF past the multicollinearity threshold."""
        pos = result.extended.first_unstable_step()
        assert pos is not None and pos <= 10
        unstable = result.extended.steps[pos - 1]
        before = result.extended.steps[pos - 2]
        assert unstable.mean_vif > 10.0
        assert unstable.rsquared - before.rsquared < 0.01

    def test_render_mentions_paper(self, result):
        text = result.render()
        assert "PRF_DM" in text  # paper column present
        assert "26.42" in text or "VIF" in text


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, selection_dataset):
        return fig2.run(selection_dataset)

    def test_monotone(self, result):
        assert result.is_monotone()

    def test_adj_gap_small(self, result):
        assert result.max_r2_adj_gap() < 0.01

    def test_series_lengths(self, result):
        assert len(result.r2_series) == 6
        assert len(result.adj_r2_series) == 6


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, full_dataset, selected_counters):
        return table2.run(full_dataset, counters=selected_counters)

    def test_mape_in_paper_band(self, result):
        mn, mx, mean = result.summary()["MAPE"]
        assert 5.0 < mean < 9.5
        assert mn <= mean <= mx

    def test_r2_high(self, result):
        assert result.summary()["R2"][2] > 0.94

    def test_adj_r2_within_a_hair(self, result):
        # The paper: mean Adj.R² only 0.0004 below mean R².
        assert 0.0 <= result.r2_adj_gap() < 0.002

    def test_folds_stable(self, result):
        mn, mx, _ = result.summary()["R2"]
        assert mx - mn < 0.01


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, full_dataset, selected_counters):
        return fig3.run(full_dataset, counters=selected_counters)

    def test_all_20_workloads_scored(self, result):
        assert len(result.per_workload_mape) == 20

    def test_spread_at_least_3x(self, result):
        _, worst = result.worst()
        _, best = result.best()
        assert worst > 3.0 * best

    def test_ilbdc_is_worst_spec_benchmark(self, result):
        spec_mapes = {
            w: v
            for w, v in result.per_workload_mape.items()
            if result.suites[w] == "spec_omp2012"
        }
        assert max(spec_mapes, key=spec_mapes.get) == "ilbdc"


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self, full_dataset, selected_counters):
        return fig4.run(full_dataset, counters=selected_counters)

    def test_ordering_matches_paper(self, result):
        assert result.ordering_matches_paper()

    def test_scenario2_degradation_factor(self, result):
        # Paper: 15.10 / 7.55 ≈ 2.0.
        assert 1.5 < result.scenario2_over_cv_ratio() < 3.0

    def test_scenario2_mape_band(self, result):
        from repro.core.scenarios import SCENARIO_NAMES

        assert 11.0 < result.mapes[SCENARIO_NAMES[1]] < 20.0


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, full_dataset, selected_counters):
        return fig5.run(full_dataset, counters=selected_counters)

    def test_md_and_nab_overestimated(self, result):
        biased = result.systematic_bias_workloads()
        assert biased.get("md", 0.0) > 0.0
        assert biased.get("nab", 0.0) > 0.0

    def test_scenario3_unbiased_overall(self, result):
        assert abs(result.overall_bias_b()) < 2.0

    def test_heteroscedastic_residuals(self, result):
        assert result.heteroscedasticity_correlation() > 0.1

    def test_scatter_points_per_experiment(self, result, full_dataset):
        spec_experiments = [
            k for k in full_dataset.experiment_keys()
            if full_dataset.filter(workloads=[k[0]]).suites[0] == "spec_omp2012"
        ]
        assert len(result.scatter_a) == len(spec_experiments)

    def test_to_dict_equals_per_experiment_masks(self, result):
        """The one-pass grouping of ``experiment_scatter`` gives the
        dict that one boolean mask per experiment gave."""

        def masked_scatter(scenario):
            v = scenario.validation
            keys = list(
                zip(v.workloads, v.frequency_mhz.astype(int).tolist(), v.threads.tolist())
            )
            rows = []
            for key in v.experiment_keys():
                m = np.array([k == key for k in keys])
                rows.append(
                    (
                        *key[:1],
                        v.suites[int(np.flatnonzero(m)[0])],
                        *key[1:],
                        float(v.power_w[m].mean()),
                        float(scenario.predicted[m].mean()),
                    )
                )
            return [dict(zip(fig5._SCATTER_COLUMNS, r)) for r in rows]

        exported = result.to_dict()
        assert exported["scatter_a"] == masked_scatter(result.scenario2)
        assert exported["scatter_b"] == masked_scatter(result.scenario3)
        assert len(exported["scatter_b"]) == 415


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, selection_dataset, selected_counters):
        return table3.run(selection_dataset, counters=selected_counters)

    def test_first_counter_high_pcc(self, result):
        assert result.first_counter_pcc() > 0.7

    def test_later_counters_weak(self, result):
        # At least half the later counters carry weak individual
        # correlation — they contribute unique information instead.
        weak = result.weak_counters(threshold=0.6)
        assert len(weak) >= 3


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, selection_dataset, selected_counters):
        return fig6.run(selection_dataset, counters=selected_counters)

    def test_every_counter_scored(self, result):
        assert len(result.pcc) == 54

    def test_selection_is_not_top_pcc_list(self, result):
        ranks = result.selected_rank_by_pcc()
        # If selection were just "take the strongest", all ranks would
        # be 1..6.  At least one selected counter must rank far lower.
        assert max(ranks.values()) > 6

    def test_family_blocks(self, result):
        """Counter families have similar PCC (small within-family
        spread) for at least some families."""
        spreads = result.family_spread()
        assert min(spreads.values()) < 0.1


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, selection_dataset):
        return table4.run(selection_dataset)

    def test_different_selection_than_all_workloads(self, result):
        assert result.differs_from_all_workloads()

    def test_synthetic_fit_looks_deceptively_good(self, result):
        # Table IV: R² on the homogeneous synthetic data is sky-high.
        assert result.synthetic_selection.steps[-1].rsquared > 0.99

    def test_synthetic_selection_is_unstable_on_real_workloads(
        self, result, full_dataset
    ):
        """The paper's deeper point (Section V / [18]): "a low VIF was
        no guarantee for a stable model".  The synthetic-selected
        counter set fits the synthetic data nearly perfectly yet
        generalizes poorly to SPEC."""
        from repro.core import scenario_cv_all, scenario_synthetic_to_spec

        synth_counters = result.synthetic_selection.selected
        unstable = scenario_synthetic_to_spec(full_dataset, synth_counters)
        baseline = scenario_cv_all(
            full_dataset, result.all_workload_selection.selected
        )
        assert unstable.mape > 1.5 * baseline.mape
