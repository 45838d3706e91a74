"""The CI ``chaos`` job re-runs the fault-tolerance tests under three
``REPRO_FAULT_SEED`` values.  It names its test paths by hand, so a
module whose tests take the ``fault_seed`` fixture but is missing from
that list would only ever run under seed 0."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def chaos_paths():
    """Test paths of the chaos job's pytest command in the CI workflow."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    start = next(
        i for i, line in enumerate(lines) if "python -m pytest" in line
        and "tests/faults" in line
    )
    paths = []
    for line in lines[start:]:
        words = line.split()
        if words and words[0].endswith(":"):
            break
        paths.extend(word for word in words if word.startswith("tests/"))
    return paths


def _parametrizes_fault_seed(function: ast.FunctionDef) -> bool:
    """Whether ``function`` gets ``fault_seed`` from its own
    ``pytest.mark.parametrize`` rather than from the fixture."""
    return any(
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Attribute)
        and decorator.func.attr == "parametrize"
        and decorator.args
        and isinstance(decorator.args[0], ast.Constant)
        and "fault_seed" in str(decorator.args[0].value)
        for decorator in function.decorator_list
    )


def fault_seed_modules():
    """Test modules with a function (test or fixture) taking the
    ``fault_seed`` fixture."""
    out = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        if any(
            isinstance(node, ast.FunctionDef)
            and node.name != "fault_seed"
            and any(arg.arg == "fault_seed" for arg in node.args.args)
            and not _parametrizes_fault_seed(node)
            for node in ast.walk(tree)
        ):
            out.append(path.relative_to(ROOT).as_posix())
    return out


def test_chaos_job_names_every_fault_seed_module():
    paths = chaos_paths()
    assert "tests/faults" in paths
    modules = fault_seed_modules()
    assert "tests/faults/test_watchdog.py" in modules
    assert "tests/acquisition/test_resilient_campaign.py" in modules
    missing = [
        module
        for module in modules
        if not any(
            module == path or module.startswith(path.rstrip("/") + "/")
            for path in paths
        )
    ]
    assert not missing, f"CI chaos job does not run {missing}"
