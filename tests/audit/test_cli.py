"""``repraudit`` CLI: exit codes, reporters, model-file auditing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.audit.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.core.model import FittedPowerModel
from repro.core.persistence import save_model
from repro.stats.ols import fit_ols

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _saved_model(path: Path, *, perfect: bool) -> Path:
    from repro.core.features import feature_names

    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 10.0, size=(60, 3))
    # σ=5 keeps R² an honest ~0.8 — well clear of the AU009
    # suspicious-perfection bound.
    noise = np.zeros(60) if perfect else 5.0 * rng.normal(size=60)
    y = x @ np.array([2.0, 3.0, 1.0]) + noise
    ols = fit_ols(
        y, x, intercept=False, cov_type="HC3", exog_names=feature_names(())
    )
    model = FittedPowerModel(counters=(), ols=ols, cov_type="HC3")
    save_model(model, path, gate="off")
    return path


@pytest.fixture
def sound_model(tmp_path):
    return _saved_model(tmp_path / "sound.json", perfect=False)


@pytest.fixture
def fail_model(tmp_path):
    return _saved_model(tmp_path / "fail.json", perfect=True)


class TestExitCodes:
    def test_sound_model_exits_clean(self, sound_model, capsys):
        assert main([str(sound_model)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_fail_model_exits_findings(self, fail_model, capsys):
        assert main([str(fail_model)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "AU009" in out
        assert "verdict: fail" in out

    def test_missing_file_exits_usage(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == EXIT_USAGE
        assert "repraudit: error:" in capsys.readouterr().err

    def test_corrupt_file_exits_usage(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        assert main([str(bad)]) == EXIT_USAGE
        assert "repraudit: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            "[1, 2]",
            '{"format": "repro-power-model/1", "counters": 5, "coefficients": {}}',
        ],
        ids=["not-an-object", "counters-not-a-list"],
    )
    def test_malformed_model_file_exits_usage(self, tmp_path, capsys, content):
        """A well-formed JSON file that is not a model is a usage error,
        reported in one line rather than as an escaped exception."""
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        assert main([str(bad)]) == EXIT_USAGE
        assert "repraudit: error:" in capsys.readouterr().err


    def test_model_file_without_rsquared_exits_usage(
        self, sound_model, capsys
    ):
        """A sound model whose file lost ``fit.rsquared`` is reported
        as a malformed file, not graded AU009 fail on a NaN R²."""
        payload = json.loads(sound_model.read_text())
        del payload["fit"]["rsquared"]
        sound_model.write_text(json.dumps(payload))
        assert main([str(sound_model)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "fit.rsquared" in captured.err
        assert "AU009" not in captured.out


class TestReporters:
    def test_json_report_parses(self, fail_model, capsys):
        main([str(fail_model), "-f", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "fail"
        assert payload["artifacts_checked"] == 1
        assert payload["artifacts"] == [fail_model.name]
        assert any(f["rule"] == "AU009" for f in payload["findings"])

    def test_output_file_written(self, sound_model, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        main([str(sound_model), "-f", "json", "--output", str(out_file)])
        on_disk = json.loads(out_file.read_text())
        assert on_disk == json.loads(capsys.readouterr().out)

    def test_artifact_name_is_file_name(self, sound_model, capsys):
        main([str(sound_model)])
        # clean report: artifact named after the file, not a raw path
        assert "1 artifacts" in capsys.readouterr().out


class TestStrictGate:
    def test_strict_demands_pass(self, tmp_path, capsys):
        # A sound-but-small model: n=14 on k=3 trips AU004 minor, which
        # the default gate tolerates and --strict does not.
        from repro.core.features import feature_names

        rng = np.random.default_rng(5)
        x = rng.uniform(1.0, 10.0, size=(14, 3))
        y = x @ np.array([2.0, 3.0, 1.0]) + 5.0 * rng.normal(size=14)
        ols = fit_ols(
            y, x, intercept=False, cov_type="HC3",
            exog_names=feature_names(()),
        )
        path = tmp_path / "small.json"
        save_model(
            FittedPowerModel(counters=(), ols=ols, cov_type="HC3"),
            path,
            gate="off",
        )
        assert main([str(path)]) == EXIT_CLEAN
        assert main([str(path), "--strict"]) == EXIT_FINDINGS
        capsys.readouterr()


class TestEntryPoint:
    def test_python_dash_m_invocation(self, fail_model):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.audit", str(fail_model)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == EXIT_FINDINGS
        assert "AU009" in proc.stdout
