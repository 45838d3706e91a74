"""``repraudit`` command line: ``python -m repro.audit [models...]``.

With no arguments the paper-reference workflows are audited (counter
selection, fitted model, four validation scenarios).  With paths, each
is loaded as a saved model JSON (:mod:`repro.core.persistence`) and
audited individually.

Exit codes: 0 when the gate passes, 1 on gating findings, 2 on usage
or I/O error.  The default gate tolerates ``minor`` findings;
``--strict`` requires a ``pass`` verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from repro.audit.engine import model_context, run_audit
from repro.audit.framework import AuditReport
from repro.audit.reference import reference_contexts
from repro.seeding import DEFAULT_SEED

__all__ = ["main", "build_parser", "EXIT_CLEAN", "EXIT_FINDINGS", "EXIT_USAGE"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repraudit",
        description=(
            "Statistical-rigor audit over fitted artifacts: residual "
            "assumptions, sample adequacy, collinearity, uncertainty "
            "reporting and degraded-data provenance, graded on the "
            "pass/minor/major/fail verdict scale."
        ),
    )
    parser.add_argument(
        "models", nargs="*", metavar="MODEL_JSON",
        help=(
            "saved model files to audit (default: audit the paper's "
            "reference workflows)"
        ),
    )
    parser.add_argument(
        "-f", "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="also write the report to this file",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="require a 'pass' verdict (default gate tolerates 'minor')",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="root seed for the reference workflows (default: %(default)s)",
    )
    return parser


def _render(report: AuditReport, fmt: str) -> str:
    findings = report.findings
    checked = len(report.artifacts)
    if fmt == "json":
        return json.dumps(
            {
                "version": 1,
                "artifacts_checked": checked,
                "findings": [f.to_dict() for f in findings],
                "count": len(findings),
                "verdict": report.verdict,
                "artifacts": list(report.artifacts),
                "rules_run": list(report.rules_run),
            },
            indent=2,
            sort_keys=True,
        )
    lines = [f.format() for f in findings]
    if findings:
        by_rule = sorted(Counter(f.rule_id for f in findings).items())
        breakdown = ", ".join(f"{rule} ×{count}" for rule, count in by_rule)
        lines.append("")
        lines.append(
            f"repraudit: {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} in {checked} artifacts "
            f"({breakdown})"
        )
    else:
        lines.append(f"repraudit: clean ({checked} artifacts)")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.models:
            from repro.core.persistence import load_model

            contexts = []
            for raw in args.models:
                path = Path(raw)
                model = load_model(path)
                contexts.append(
                    model_context(model, artifact=path.name)
                )
        else:
            contexts = reference_contexts(seed=args.seed)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"repraudit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = run_audit(contexts)
    rendered = _render(report, args.format)
    print(rendered)
    if args.output:
        from repro.io.atomic import atomic_write_text

        atomic_write_text(Path(args.output), rendered + "\n")
    return (
        EXIT_CLEAN if report.gate_passed(strict=args.strict) else EXIT_FINDINGS
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
