"""``repro-experiments --export-dir``: one strict-JSON file per artifact
run, written from the same result object the runner printed."""

import importlib
import json
import typing

import pytest

from repro.experiments.runner import EXPERIMENTS, PAPER_ARTIFACTS, main

#: Experiment id → module of its ``run``.
MODULES = {**{name: name for name in PAPER_ARTIFACTS}, "serve": "serve_demo"}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _export(out, names):
    """Run ``main`` on ``names`` with ``--export-dir out``, counting the
    calls of every paper artifact's ``run``."""
    calls = dict.fromkeys(PAPER_ARTIFACTS, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in PAPER_ARTIFACTS:
            module = importlib.import_module(f"repro.experiments.{name}")

            def counted(*args, _run=module.run, _name=name, **kwargs):
                calls[_name] += 1
                return _run(*args, **kwargs)

            mp.setattr(module, "run", counted)
        assert main([*names, "--export-dir", str(out)]) == 0
    return calls


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory, full_dataset):
        out = tmp_path_factory.mktemp("export")
        return out, _export(out, [])

    def test_every_artifact_exported(self, exported):
        out, _calls = exported
        assert {p.name for p in out.iterdir()} == {f"{n}.json" for n in PAPER_ARTIFACTS}

    def test_each_artifact_computed_once(self, exported):
        _out, calls = exported
        assert calls == dict.fromkeys(PAPER_ARTIFACTS, 1)

    def test_export_is_strict_json(self, exported):
        out, _calls = exported
        for name in PAPER_ARTIFACTS:
            assert isinstance(_strict(out / f"{name}.json"), dict)

    def test_table1_json_contents(self, exported):
        steps = _strict(exported[0] / "table1.json")["steps"]
        assert len(steps) == 6
        assert steps[0]["mean_vif"] is None  # n/a on the first step
        assert 0.8 < steps[0]["r2"] < 1.0

    def test_table2_json_structure(self, exported):
        payload = _strict(exported[0] / "table2.json")
        assert set(payload["summary"]) == {"R2", "Adj.R2", "MAPE"}
        assert len(payload["fold_mape"]) == 10
        assert payload["summary"]["MAPE"]["min"] <= payload["summary"]["MAPE"]["mean"]

    def test_fig6_covers_all_counters(self, exported):
        pcc = _strict(exported[0] / "fig6.json")["pcc"]
        assert len(pcc) == 54
        assert all(-1.0 <= v <= 1.0 for v in pcc.values())

    def test_fig5_scatter_columns(self, exported):
        rows = _strict(exported[0] / "fig5.json")["scatter_a"]
        assert rows
        assert rows[0]["actual_w"] > 0
        assert rows[0]["suite"] == "spec_omp2012"

    def test_registry_matches_runner_artifacts(self):
        assert set(MODULES) == set(EXPERIMENTS)
        for module_name in MODULES.values():
            module = importlib.import_module(f"repro.experiments.{module_name}")
            result_type = typing.get_type_hints(module.run)["return"]
            assert callable(result_type.render) and callable(result_type.to_dict)

    def test_cli_flag(self, tmp_path, capsys, full_dataset):
        calls = _export(tmp_path, ["table3", "fig2"])
        out = capsys.readouterr().out
        assert "exported 2 files" in out
        assert {p.name for p in tmp_path.iterdir()} == {"table3.json", "fig2.json"}
        assert calls == {**dict.fromkeys(PAPER_ARTIFACTS, 0), "table3": 1, "fig2": 1}
