"""Tests for the experiment data cache and the CLI runner."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import data as expdata
from repro.experiments import runner
from repro.experiments.runner import EXPERIMENTS, PAPER_ARTIFACTS, main


class TestDataCache:
    def test_memory_cache_returns_same_object(self):
        a = expdata.full_dataset()
        b = expdata.full_dataset()
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        expdata.clear_memory_cache()
        try:
            fresh = expdata.full_dataset(frequencies_mhz=(2400,))
            assert (
                len(list(tmp_path.glob("campaign_*.npz"))) == 1
            )
            expdata.clear_memory_cache()
            reloaded = expdata.full_dataset(frequencies_mhz=(2400,))
            assert np.allclose(fresh.power_w, reloaded.power_w)
        finally:
            expdata.clear_memory_cache()

    def test_selection_dataset_is_fixed_frequency(self, selection_dataset):
        assert set(selection_dataset.frequency_mhz) == {2400}

    def test_selected_counters_are_six_valid_names(
        self, selected_counters, full_dataset
    ):
        assert len(selected_counters) == 6
        assert all(c in full_dataset.counter_names for c in selected_counters)


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_single_experiment_runs(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "paper" in out

    def test_default_runs_the_paper_artifacts_only(self, capsys, monkeypatch):
        ran = []

        def record(name, seed):
            ran.append(name)
            return SimpleNamespace(render=lambda: ""), 0.0

        monkeypatch.setattr(runner, "_run_experiment", record)
        assert main([]) == 0
        assert ran == list(PAPER_ARTIFACTS) and len(ran) == 9
        assert "serve" not in ran
        ran.clear()
        assert main(["serve"]) == 0
        assert ran == ["serve"]

    def test_help_says_serve_runs_by_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "'serve' runs only when named" in " ".join(capsys.readouterr().out.split())

    def test_registry_covers_all_artifacts(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "serve",
        }
