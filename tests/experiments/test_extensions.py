"""Extension claims beyond the paper, each an executed shape check.

Every bullet of EXPERIMENTS.md's "Extensions beyond the paper" section
names one test here and quotes the number it produces at the default
root seed; ``test_experiments_doc.py`` keeps those references
resolvable.  Each claim runs over the whole workload registry (or the
full paper campaign built from it), never a hand-picked subset.
"""

import numpy as np
import pytest

from repro.acquisition import Campaign, CampaignPlan, PowerDataset, run_campaign
from repro.core import PowerModel, scenario_cv_all, select_events
from repro.hardware import (
    CORTEX_A15_CONFIG,
    CORTEX_A15_POWER_PARAMS,
    PAPER_FREQUENCIES_MHZ,
    SKYLAKE_SP_CONFIG,
    SKYLAKE_SP_POWER_PARAMS,
    Platform,
)
from repro.hardware.rapl import RaplMeter
from repro.seeding import derive_rng
from repro.stats.metrics import bias, mape
from repro.stats.selection_criteria import CRITERIA
from repro.workloads import (
    DEFAULT_SPACE,
    WIDE_SPACE,
    all_workloads,
    generate_workloads,
    get_workload,
)


class TestSelectionCriteria:
    """Section VI's future work: other criteria for Algorithm 1."""

    @pytest.fixture(scope="class")
    def ablation(self, selection_dataset, full_dataset):
        variants = {name: {"criterion": name} for name in sorted(CRITERIA)}
        variants["r2+vif<=5"] = {"criterion": "r2", "max_vif": 5.0}
        out = {}
        for name, kwargs in variants.items():
            sel = select_events(selection_dataset, 6, **kwargs)
            cv = scenario_cv_all(full_dataset, sel.selected)
            out[name] = (sel, cv.mape)
        return out

    def test_every_criterion_yields_a_healthy_model(self, ablation):
        for name, (_, cv_mape) in ablation.items():
            assert cv_mape < 12.0, f"criterion {name} produced a bad model"

    def test_vif_constrained_greedy_respects_its_bound(self, ablation):
        sel, _ = ablation["r2+vif<=5"]
        assert sel.steps[-1].mean_vif <= 5.0


class TestCrossGeneration:
    """Haswell-EP coefficients applied to a simulated Skylake-SP node."""

    @pytest.fixture(scope="class")
    def transfer(self, full_dataset, selected_counters):
        skylake = run_campaign(
            Platform(SKYLAKE_SP_CONFIG, SKYLAKE_SP_POWER_PARAMS),
            all_workloads(),
            [1200, 1600, 2000, 2400],
        )
        sk_selected = select_events(skylake.filter(frequency_mhz=2000), 6).selected
        hw_model = PowerModel(selected_counters).fit(full_dataset)
        sk_model = PowerModel(sk_selected).fit(skylake)
        return {
            "haswell -> haswell (CV)": scenario_cv_all(
                full_dataset, selected_counters
            ).mape,
            "haswell -> skylake": hw_model.evaluate(skylake)["mape"],
            "skylake -> skylake (CV)": scenario_cv_all(skylake, sk_selected).mape,
            "skylake -> haswell": sk_model.evaluate(full_dataset)["mape"],
        }

    def test_native_modeling_works_on_both_generations(self, transfer):
        assert transfer["haswell -> haswell (CV)"] < 10.0
        assert transfer["skylake -> skylake (CV)"] < 12.0

    def test_coefficients_do_not_transfer(self, transfer):
        assert transfer["haswell -> skylake"] > 2.0 * transfer["haswell -> haswell (CV)"]
        assert transfer["skylake -> haswell"] > 2.0 * transfer["skylake -> skylake (CV)"]


class TestArmVsX86:
    """Section IV-B: Walker et al.'s ARM models (2.8 %/3.8 %) beat x86."""

    @pytest.fixture(scope="class")
    def mapes(self, full_dataset, selected_counters):
        # Sensor noise floor scaled to the watt-level board.
        arm = run_campaign(
            Platform(
                CORTEX_A15_CONFIG, CORTEX_A15_POWER_PARAMS, power_offset_sigma_w=0.05
            ),
            all_workloads(),
            [600, 1000, 1400, 1800],
            thread_counts=[1, 2, 4],
        )
        arm_selected = select_events(arm.filter(frequency_mhz=1400), 6).selected
        return (
            scenario_cv_all(arm, arm_selected).mape,
            scenario_cv_all(full_dataset, selected_counters).mape,
        )

    def test_arm_clearly_more_accurate_than_x86(self, mapes):
        arm_mape, x86_mape = mapes
        assert arm_mape < 0.7 * x86_mape

    def test_arm_lands_near_the_paper_band(self, mapes):
        arm_mape, _ = mapes
        assert 1.5 < arm_mape < 5.5


def _rapl_dataset(platform: Platform, sensor_ds: PowerDataset) -> PowerDataset:
    """``sensor_ds`` with its power column replaced by the RAPL reading
    of the matching phase (each experiment re-executed once)."""
    meter = RaplMeter(platform)
    rapl_power_w = np.empty(sensor_ds.n_samples)
    per_experiment = {}
    for i in range(sensor_ds.n_samples):
        key = (
            sensor_ds.workloads[i],
            int(sensor_ds.frequency_mhz[i]),
            int(sensor_ds.threads[i]),
        )
        if key not in per_experiment:
            run = platform.execute(get_workload(key[0]), key[1], key[2])
            per_experiment[key] = {
                p.phase.name: meter.measure_phase(p) for p in run.phases
            }
        rapl_power_w[i] = per_experiment[key][sensor_ds.phase_names[i]]
    return PowerDataset(
        counters=sensor_ds.counters,
        power_w=rapl_power_w,
        voltage_v=sensor_ds.voltage_v,
        frequency_mhz=sensor_ds.frequency_mhz,
        threads=sensor_ds.threads,
        workloads=sensor_ds.workloads,
        suites=sensor_ds.suites,
        phase_names=sensor_ds.phase_names,
    )


class TestMeasurementPlanes:
    """Training target: calibrated 12 V sensors vs on-chip RAPL."""

    @pytest.fixture(scope="class")
    def planes(self, platform, full_dataset, selected_counters):
        rapl_ds = _rapl_dataset(platform, full_dataset)
        sensor_model = PowerModel(selected_counters).fit(full_dataset)
        rapl_model = PowerModel(selected_counters).fit(rapl_ds)
        wall = full_dataset.power_w
        sensor_pred = sensor_model.predict(full_dataset)
        rapl_pred = rapl_model.predict(full_dataset)
        return {
            "sensor vs wall": (mape(wall, sensor_pred), bias(wall, sensor_pred)),
            "rapl vs wall": (mape(wall, rapl_pred), bias(wall, rapl_pred)),
            "rapl vs rapl": (
                mape(rapl_ds.power_w, rapl_model.predict(rapl_ds)),
                bias(rapl_ds.power_w, rapl_model.predict(rapl_ds)),
            ),
        }

    def test_rapl_model_is_self_consistent(self, planes):
        assert planes["rapl vs rapl"][0] < 10.0

    def test_rapl_model_underestimates_wall_power(self, planes):
        assert planes["rapl vs wall"][1] < -5.0
        assert planes["rapl vs wall"][0] > planes["sensor vs wall"][0]


class TestTrainingDiversity:
    """The paper's stability conclusion: synthetic kernels are not
    diverse enough.  Train on generated workloads, validate on SPEC."""

    @pytest.fixture(scope="class")
    def spec_mapes(self, full_dataset, selected_counters):
        spec = full_dataset.filter(suite="spec_omp2012")
        roco = full_dataset.filter(suite="roco2")
        out = {
            "roco2 kernels (10)": PowerModel(selected_counters)
            .fit(roco)
            .evaluate(spec)["mape"]
        }
        for label, space, n in (
            ("generated narrow (8)", DEFAULT_SPACE, 8),
            ("generated narrow (24)", DEFAULT_SPACE, 24),
            ("generated wide (24)", WIDE_SPACE, 24),
        ):
            workloads = generate_workloads(
                n, space=space, seed=1234, thread_counts=(1, 8, 24)
            )
            # A platform memoizes runs by workload name and every
            # generated set is named gen000..., so each set needs its own.
            train = run_campaign(Platform(), workloads, [1200, 2000, 2600])
            fitted = PowerModel(selected_counters).fit(train)
            out[label] = fitted.evaluate(spec)["mape"]
        return out

    def test_more_generated_workloads_do_not_hurt(self, spec_mapes):
        assert spec_mapes["generated narrow (24)"] <= 1.2 * spec_mapes["generated narrow (8)"]

    def test_wide_generated_set_beats_narrow_and_roco2(self, spec_mapes):
        wide = spec_mapes["generated wide (24)"]
        assert wide < spec_mapes["generated narrow (24)"]
        assert wide < spec_mapes["roco2 kernels (10)"]


class TestAcquisitionModes:
    """The paper's 13 runs per experiment vs PAPI-style time-division
    multiplexing in a single run."""

    @pytest.fixture(scope="class")
    def modes(self, full_dataset, selected_counters):
        plans = {
            mode: CampaignPlan(
                workloads=tuple(all_workloads()),
                frequencies_mhz=tuple(PAPER_FREQUENCIES_MHZ),
                multiplexing=mode,
            )
            for mode in ("multi-run", "time-division")
        }
        td = Campaign(Platform(), plans["time-division"])
        td_result = td.run()
        assert td_result.report.clean
        td_ds = td_result.dataset
        td_selected = select_events(td_ds.filter(frequency_mhz=2400), 6).selected
        return {
            # The paper campaign is the multi-run campaign of this plan.
            "multi-run": (
                Campaign(Platform(), plans["multi-run"]).runs_per_experiment,
                scenario_cv_all(full_dataset, selected_counters).mape,
            ),
            "time-division": (
                td.runs_per_experiment,
                scenario_cv_all(td_ds, td_selected).mape,
            ),
        }

    def test_time_division_is_13x_cheaper(self, modes):
        assert modes["time-division"][0] == 1
        assert modes["multi-run"][0] == 13

    def test_time_division_accuracy_is_comparable(self, modes):
        multi_mape = modes["multi-run"][1]
        assert 0.4 * multi_mape < modes["time-division"][1] < 1.6 * multi_mape


class TestSelectionStability:
    """Jackknife: re-run Algorithm 1 with four workloads dropped."""

    @pytest.fixture(scope="class")
    def jackknife(self, selection_dataset):
        n_rounds, n_drop = 8, 4
        full = select_events(selection_dataset, 6).selected
        names = list(dict.fromkeys(selection_dataset.workloads))
        counts = {}
        overlaps = []
        for round_idx in range(n_rounds):
            rng = derive_rng(0x4A41434B, "round", round_idx)  # "JACK"
            dropped = set(rng.choice(names, size=n_drop, replace=False).tolist())
            subset = selection_dataset.filter(
                workloads=[n for n in names if n not in dropped]
            )
            picked = select_events(subset, 6).selected
            overlaps.append(len(set(picked) & set(full)) / 6.0)
            for c in picked:
                counts[c] = counts.get(c, 0) + 1
        return full, {c: k / n_rounds for c, k in counts.items()}, overlaps

    def test_anchor_counter_is_robust(self, jackknife):
        full, share, _ = jackknife
        assert share.get(full[0], 0.0) >= 0.75

    def test_selection_tail_depends_on_training_set(self, jackknife):
        _, _, overlaps = jackknife
        assert 0.4 < np.mean(overlaps) < 1.0


class TestCounterBudget:
    """Sweep #Events from 1 to 10 around the paper's fixed choice of 6."""

    @pytest.fixture(scope="class")
    def budget_mapes(self, selection_dataset, full_dataset):
        extended = select_events(selection_dataset, 10)
        return [
            scenario_cv_all(full_dataset, extended.selected[:k]).mape
            for k in range(1, 11)
        ]

    def test_more_counters_help_early(self, budget_mapes):
        assert budget_mapes[3] < budget_mapes[0]

    def test_returns_flatten_past_six(self, budget_mapes):
        early_gain = budget_mapes[0] - budget_mapes[2]
        late_gain = budget_mapes[5] - budget_mapes[9]
        assert late_gain < early_gain
