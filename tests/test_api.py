"""Public-API surface tests: everything advertised must resolve."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.stats",
    "repro.hardware",
    "repro.workloads",
    "repro.tracing",
    "repro.acquisition",
    "repro.core",
    "repro.experiments",
]


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.__all__ lists missing {name}"

    def test_top_level_quickstart_symbols(self):
        import repro

        for name in (
            "Platform",
            "run_workflow",
            "PowerModel",
            "select_events",
            "all_workloads",
            "run_campaign",
            "PowerDataset",
        ):
            assert hasattr(repro, name)

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_docstrings_on_public_callables(self):
        """Every public function/class re-exported at top level must be
        documented."""
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


class TestImportFootprint:
    def test_import_leaves_multiprocessing_unloaded(self):
        """``import repro`` pulls in no process-pool machinery: every
        fan-out is a serial loop.  Numpy and scipy do not load the
        module themselves, so a hit means a repro module imports it."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"
