"""Verdict algebra and report shapes of the audit framework."""

import pytest

from repro.audit import AuditFinding, AuditReport
from repro.audit.framework import severity_rank, worst_severity


def finding(severity, rule="AU004", artifact="model"):
    return AuditFinding(
        artifact=artifact, rule_id=rule, severity=severity, message="m"
    )


class TestSeverityScale:
    def test_order(self):
        assert (
            severity_rank("pass")
            < severity_rank("minor")
            < severity_rank("major")
            < severity_rank("fail")
        )

    def test_worst_of_empty_is_pass(self):
        assert worst_severity([]) == "pass"

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            severity_rank("catastrophic")

    def test_finding_severity_validated(self):
        with pytest.raises(ValueError, match="minor/major/fail"):
            finding("pass")


class TestAuditReport:
    def test_empty_report_passes(self):
        report = AuditReport(findings=(), artifacts=("model",))
        assert report.verdict == "pass"
        assert report.clean
        assert report.gate_passed()
        assert report.gate_passed(strict=True)

    def test_verdict_is_worst_finding(self):
        report = AuditReport(
            findings=(finding("minor"), finding("major", rule="AU002"))
        )
        assert report.verdict == "major"
        assert not report.gate_passed()

    def test_minor_passes_default_gate_but_not_strict(self):
        report = AuditReport(findings=(finding("minor"),))
        assert report.verdict == "minor"
        assert report.gate_passed()
        assert not report.gate_passed(strict=True)

    def test_fail_fails_every_gate(self):
        report = AuditReport(findings=(finding("fail", rule="AU009"),))
        assert report.worst_at_least("fail")
        assert not report.gate_passed()

    def test_finding_format_line(self):
        line = finding("major").format()
        assert line == "model: AU004 [major] m"
