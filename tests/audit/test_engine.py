"""Context builders, end-to-end wiring and the reference audit."""

import json

from repro.audit import (
    audit_model,
    audit_reference,
    model_context,
    run_audit,
    scenario_context,
    workflow_contexts,
)
from repro.audit.cli import _render
from repro.core.model import PowerModel
from repro.core.scenarios import SCENARIO_NAMES
from repro.core.workflow import run_workflow


class TestModelContext:
    def test_context_from_fitted_model(self, small_dataset):
        counters = small_dataset.counter_names[:2]
        model = PowerModel(counters).fit(small_dataset)
        ctx = model_context(model, small_dataset)
        assert ctx.kind == "model"
        assert ctx.cov_type == "HC3"
        assert ctx.exog is not None
        assert ctx.exog.shape[0] == small_dataset.n_samples
        assert ctx.n_params == len(counters) + 3  # alphas + β, γ, δ
        assert ctx.mape_pct is not None

    def test_audit_model_on_paper_data_passes(self, small_dataset):
        counters = small_dataset.counter_names[:1]
        model = PowerModel(counters).fit(small_dataset)
        report = audit_model(model, small_dataset)
        assert report.verdict == "pass"

    def test_small_sample_model_is_graded_minor(self, small_dataset):
        # Two counters on 48 rows sits just under 10 obs/param: the
        # audit grades it, it does not block it.
        model = PowerModel(small_dataset.counter_names[:2]).fit(
            small_dataset
        )
        report = audit_model(model, small_dataset)
        assert report.verdict == "minor"
        assert {f.rule_id for f in report.findings} == {"AU004"}
        assert report.gate_passed()


class TestWorkflowWiring:
    def test_workflow_attaches_audit(self, small_dataset):
        result = run_workflow(
            dataset=small_dataset, n_events=1, frequencies_mhz=(1200, 2400)
        )
        assert result.audit is not None
        # 10-fold CV on 48 rows holds out 4 per fold — an honest minor.
        assert result.audit.verdict in ("pass", "minor")
        assert result.audit.gate_passed()
        assert "model" in result.audit.artifacts
        assert "selection" in result.audit.artifacts
        assert "validation:cv" in result.audit.artifacts
        assert "audit verdict:" in result.summary()

    def test_workflow_contexts_carry_warnings(self, small_dataset):
        result = run_workflow(
            dataset=small_dataset,
            n_events=2,
            frequencies_mhz=(1200, 2400),
        )
        object.__setattr__(result, "warnings", ("degraded: something",))
        contexts = workflow_contexts(result)
        assert any(c.kind == "workflow" for c in contexts)
        report = run_audit(contexts)
        assert any(f.rule_id == "AU010" for f in report.findings)


class TestScenarioContext:
    def test_cv_scenario_carries_fold_shape(self, small_dataset):
        from repro.core.scenarios import scenario_cv_all

        counters = small_dataset.counter_names[:2]
        res = scenario_cv_all(small_dataset, counters, n_splits=5)
        ctx = scenario_context(res, n_params=5)
        assert ctx.n_splits == 5
        assert ctx.n_samples == small_dataset.n_samples


class TestReferenceAudit:
    def test_reference_workflows_audit_pass(self):
        """`python -m repro.audit --strict` in-process: the counter
        selection, the Table I model and the four Fig. 4 scenarios of
        the default seed audit a strict pass."""
        report = audit_reference()
        assert report.verdict == "pass"
        assert report.gate_passed(strict=True)
        assert report.artifacts == ("model", "selection") + tuple(
            f"scenario:{name}" for name in SCENARIO_NAMES
        )
        assert set(report.rules_run) == {
            f"AU{i:03d}" for i in range(2, 14) if i != 12
        }

    def test_fold_fallbacks_grade_au011(self, monkeypatch):
        """The scenarios' CV warnings reach the reference audit: with
        every fold declined by the Gram solver, AU011 grades minor."""
        from repro.stats.fastfit import FoldGramSolver

        monkeypatch.setattr(
            FoldGramSolver, "solve_fold", lambda self, train, test: None
        )
        report = audit_reference()
        assert report.verdict == "minor"
        assert not report.gate_passed(strict=True)
        assert report.artifacts[-1] == "workflow"
        # Scenarios 3 and 4 each decline all ten folds; the two equal
        # findings merge into one.
        assert [
            (f.artifact, f.rule_id, f.severity) for f in report.findings
        ] == [("workflow", "AU011", "minor")]
        assert "10/10 CV folds" in report.findings[0].message


class TestGoldenReport:
    """The JSON report shape is pinned: downstream CI consumers parse it."""

    @staticmethod
    def _deterministic_report():
        from repro.audit import AuditContext

        contexts = [
            AuditContext(artifact="model", r2=1.0),
            AuditContext(artifact="cv", kind="cv", n_samples=30,
                         n_splits=10, n_params=2),
            AuditContext(artifact="scenario:x", r2=0.97, mape_pct=35.0),
        ]
        return run_audit(contexts)

    def test_json_report_matches_golden(self, pytestconfig):
        golden_path = (
            pytestconfig.rootpath / "tests" / "audit" / "golden_audit.json"
        )
        rendered = _render(self._deterministic_report(), "json")
        assert json.loads(rendered) == json.loads(golden_path.read_text())

    def test_text_report_shape(self):
        text = _render(self._deterministic_report(), "text")
        assert "repraudit:" in text
        assert text.strip().endswith("verdict: fail")

    def test_clean_text_report_shape(self):
        report = run_audit([model_context_clean()])
        text = _render(report, "text")
        assert "repraudit: clean (1 artifacts)" in text
        assert text.strip().endswith("verdict: pass")


def model_context_clean():
    from repro.audit import AuditContext

    return AuditContext(artifact="model", r2=0.95, mape_pct=6.0)
