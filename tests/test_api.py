"""Public-API surface tests: everything advertised must resolve."""

import ast
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
    #: Modules ``import repro`` may add to a fresh interpreter: ≈215
    #: with numpy's, while loading scipy.stats would add ≈490 more.
    MODULE_BUDGET = 400

    _SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

    @staticmethod
    def _probe(code: str):
        """Run ``code`` in a fresh interpreter and return its last
        stdout line, parsed as a Python literal."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        return ast.literal_eval(out.stdout.strip().splitlines()[-1])

    def test_import_leaves_multiprocessing_unloaded(self):
        """``import repro`` pulls in no process-pool machinery: every
        fan-out is a serial loop.  Numpy does not load the module
        itself, so a hit means a repro module imports it."""
        loaded = self._probe(
            "import sys, repro; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing'))"
        )
        assert loaded == []

    def test_import_loads_no_scipy_and_stays_in_budget(self):
        scipy_mods, added = self._probe(
            "import sys; before = set(sys.modules); import repro; "
            f"print(({self._SCIPY}, len(set(sys.modules) - before)))"
        )
        assert scipy_mods == []
        assert added <= self.MODULE_BUDGET

    def test_ols_workflow_loads_no_scipy(self):
        scipy_mods = self._probe(
            "import sys\n"
            "from repro.core.workflow import run_workflow\n"
            "from repro.workloads import generate_workloads\n"
            "run_workflow(workloads=generate_workloads(6, seed=1),\n"
            "             frequencies_mhz=[1200, 2400], n_events=3, seed=3)\n"
            f"print({self._SCIPY})"
        )
        assert scipy_mods == []

    def test_pvalues_load_scipy_stats_on_first_use(self):
        before, pvalues, after = self._probe(
            "import sys\n"
            "import numpy as np\n"
            "from repro.stats import fit_ols\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal(size=(40, 2))\n"
            "res = fit_ols(x @ [1.0, -2.0] + rng.normal(size=40), x)\n"
            "before = 'scipy.stats' in sys.modules\n"
            "p = res.pvalues\n"
            "print((before, [float(v) for v in p], 'scipy.stats' in sys.modules))"
        )
        assert before is False
        assert after is True
        assert len(pvalues) == 3
        assert all(0.0 <= p <= 1.0 for p in pvalues)
