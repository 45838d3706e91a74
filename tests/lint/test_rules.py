"""Per-rule fixtures: every rule flags a seeded violation and passes a
known-good twin of the same code."""

from __future__ import annotations

import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_source
from repro.lint.rules import (
    CacheVersionDiscipline,
    NoFloatEquality,
    NonAtomicCacheWrite,
    NoUnseededRng,
    RequireAllowPickleFalse,
    NoRawLinalgSolvers,
    NoUnauditedReport,
    NoUnboundedQueue,
    SilentBroadExcept,
    UnitSuffixConsistency,
)

SRC = Path("src/repro/somewhere.py")


def run_rule(rule, code, path=SRC, config=None):
    return lint_source(
        textwrap.dedent(code), path, config or LintConfig(), [rule]
    )


def ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
class TestRL001UnseededRng:
    def test_flags_module_state_call(self):
        bad = """
            import numpy as np
            def jitter():
                return np.random.normal(0.0, 1.0)
        """
        assert ids(run_rule(NoUnseededRng(), bad)) == ["RL001"]

    def test_flags_seedless_default_rng(self):
        bad = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert ids(run_rule(NoUnseededRng(), bad)) == ["RL001"]

    def test_flags_from_import_alias(self):
        bad = """
            from numpy.random import default_rng
            rng = default_rng()
        """
        assert ids(run_rule(NoUnseededRng(), bad)) == ["RL001"]

    def test_passes_seeded_default_rng(self):
        good = """
            import numpy as np
            rng = np.random.default_rng(12345)
            draws = rng.normal(0.0, 1.0, size=10)
        """
        assert run_rule(NoUnseededRng(), good) == []

    def test_seeding_module_is_exempt(self):
        code = """
            import numpy as np
            def derive_rng(seed):
                return np.random.default_rng()
        """
        assert run_rule(NoUnseededRng(), code, path=Path("src/repro/seeding.py")) == []


# ---------------------------------------------------------------------------
class TestRL002AllowPickle:
    def test_flags_missing_kwarg(self):
        bad = """
            import numpy as np
            data = np.load("cache.npz")
        """
        assert ids(run_rule(RequireAllowPickleFalse(), bad)) == ["RL002"]

    def test_flags_allow_pickle_true(self):
        bad = """
            import numpy as np
            data = np.load("cache.npz", allow_pickle=True)
        """
        assert ids(run_rule(RequireAllowPickleFalse(), bad)) == ["RL002"]

    def test_passes_explicit_false(self):
        good = """
            import numpy as np
            data = np.load("cache.npz", allow_pickle=False)
        """
        assert run_rule(RequireAllowPickleFalse(), good) == []

    def test_resolves_import_alias(self):
        bad = """
            import numpy
            data = numpy.load("cache.npz")
        """
        assert ids(run_rule(RequireAllowPickleFalse(), bad)) == ["RL002"]


# ---------------------------------------------------------------------------
class TestRL003UnitSuffix:
    def test_flags_bare_quantity_assignment(self):
        bad = """
            power = counters @ coefficients
        """
        assert ids(run_rule(UnitSuffixConsistency(), bad)) == ["RL003"]

    def test_flags_bare_quantity_parameter_and_loop_var(self):
        bad = """
            def report(voltage, samples):
                for freq in samples:
                    pass
        """
        assert ids(run_rule(UnitSuffixConsistency(), bad)) == ["RL003", "RL003"]

    def test_flags_compound_name_ending_in_stem(self):
        bad = """
            total_power = a + b
        """
        assert ids(run_rule(UnitSuffixConsistency(), bad)) == ["RL003"]

    def test_passes_suffixed_names(self):
        good = """
            power_w = counters @ coefficients
            def report(voltage_v, frequency_mhz):
                energy_j = power_w * 2.0
        """
        assert run_rule(UnitSuffixConsistency(), good) == []

    def test_passes_non_quantity_compound(self):
        good = """
            power_breakdown = make_breakdown()
            power_model = fit()
        """
        assert run_rule(UnitSuffixConsistency(), good) == []

    def test_flags_mixed_time_base_arithmetic(self):
        bad = """
            total = rate_per_cycle + rate_per_second
        """
        found = run_rule(UnitSuffixConsistency(), bad)
        assert ids(found) == ["RL003"]
        assert "time base" in found[0].message

    def test_flags_mixed_time_base_comparison(self):
        bad = """
            ok = miss_per_cycle < miss_per_second
        """
        assert ids(run_rule(UnitSuffixConsistency(), bad)) == ["RL003"]

    def test_passes_single_time_base(self):
        good = """
            total_per_cycle = a_per_cycle + b_per_cycle
        """
        assert run_rule(UnitSuffixConsistency(), good) == []


# ---------------------------------------------------------------------------
class TestRL004FloatEquality:
    def test_flags_float_literal_comparison(self):
        bad = """
            def check(x):
                return x == 0.5
        """
        assert ids(run_rule(NoFloatEquality(), bad)) == ["RL004"]

    def test_flags_unit_suffixed_names(self):
        bad = """
            drift = measured_w != predicted_w
        """
        assert ids(run_rule(NoFloatEquality(), bad)) == ["RL004"]

    def test_passes_isclose(self):
        good = """
            import numpy as np
            def check(measured_w, predicted_w):
                return np.isclose(measured_w, predicted_w, atol=1e-9)
        """
        assert run_rule(NoFloatEquality(), good) == []

    def test_passes_integer_comparison(self):
        good = """
            ok = threads == 24 and frequency_mhz == 2400
        """
        assert run_rule(NoFloatEquality(), good) == []

    def test_inline_suppression_with_reason(self):
        code = """
            if denom == 0.0:  # replint: ignore[RL004] -- exact-zero guard
                denom = 1.0
        """
        assert run_rule(NoFloatEquality(), code) == []

    def test_pytest_approx_is_exempt(self):
        good = """
            import pytest
            assert measured_w == pytest.approx(42.0)
        """
        assert run_rule(NoFloatEquality(), good) == []


# ---------------------------------------------------------------------------
def _git(cwd, *args):
    subprocess.run(
        ["git", "-C", str(cwd), *args],
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(cwd),
            "PATH": __import__("os").environ["PATH"],
        },
    )


@pytest.fixture()
def physics_repo(tmp_path):
    """A miniature repo with physics modules and a DATA_VERSION file."""
    (tmp_path / "src/repro/hardware").mkdir(parents=True)
    (tmp_path / "src/repro/experiments").mkdir(parents=True)
    physics = tmp_path / "src/repro/hardware/power.py"
    version = tmp_path / "src/repro/experiments/data.py"
    physics.write_text("LEAKAGE_W = 1.0\n")
    version.write_text("DATA_VERSION = 3\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestRL005CacheVersion:
    def test_flags_physics_change_without_bump(self, physics_repo):
        (physics_repo / "src/repro/hardware/power.py").write_text(
            "LEAKAGE_W = 2.0\n"
        )
        findings = CacheVersionDiscipline().check_repo(physics_repo, LintConfig())
        assert ids(findings) == ["RL005"]
        assert "DATA_VERSION" in findings[0].message

    def test_passes_physics_change_with_bump(self, physics_repo):
        (physics_repo / "src/repro/hardware/power.py").write_text(
            "LEAKAGE_W = 2.0\n"
        )
        (physics_repo / "src/repro/experiments/data.py").write_text(
            "DATA_VERSION = 4\n"
        )
        assert CacheVersionDiscipline().check_repo(physics_repo, LintConfig()) == []

    def test_passes_clean_tree(self, physics_repo):
        assert CacheVersionDiscipline().check_repo(physics_repo, LintConfig()) == []

    def test_passes_non_physics_change(self, physics_repo):
        (physics_repo / "README.md").write_text("docs only\n")
        _git(physics_repo, "add", "-A")
        assert CacheVersionDiscipline().check_repo(physics_repo, LintConfig()) == []

    def test_silent_outside_git(self, tmp_path):
        assert CacheVersionDiscipline().check_repo(tmp_path, LintConfig()) == []


# ---------------------------------------------------------------------------
class TestRL006AtomicWrite:
    def test_flags_direct_savez(self):
        bad = """
            import numpy as np
            def save(path, arr):
                np.savez_compressed(path, arr=arr)
        """
        assert ids(run_rule(NonAtomicCacheWrite(), bad)) == ["RL006"]

    def test_flags_open_for_write(self):
        bad = """
            def dump(path):
                with open(path, "w") as fh:
                    fh.write("x")
        """
        assert ids(run_rule(NonAtomicCacheWrite(), bad)) == ["RL006"]

    def test_flags_path_write_text(self):
        bad = """
            def dump(path):
                path.write_text("x")
        """
        assert ids(run_rule(NonAtomicCacheWrite(), bad)) == ["RL006"]

    def test_passes_read_modes(self):
        good = """
            def load(path):
                with open(path) as fh:
                    return fh.read()
        """
        assert run_rule(NonAtomicCacheWrite(), good) == []

    def test_passes_atomic_helpers(self):
        good = """
            from repro.io.atomic import atomic_open, atomic_savez
            def save(path, arr):
                atomic_savez(path, arr=arr)
                with atomic_open(path, "w") as fh:
                    fh.write("x")
        """
        assert run_rule(NonAtomicCacheWrite(), good) == []

    def test_helper_module_itself_is_exempt(self):
        code = """
            def atomic_write_text(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """
        assert (
            run_rule(
                NonAtomicCacheWrite(), code, path=Path("src/repro/io/atomic.py")
            )
            == []
        )


# ---------------------------------------------------------------------------
class TestRL007SilentExcept:
    def test_flags_bare_except_pass(self):
        bad = """
            def f():
                try:
                    risky()
                except:
                    pass
        """
        assert ids(run_rule(SilentBroadExcept(), bad)) == ["RL007"]

    def test_flags_broad_except_returning_default(self):
        bad = """
            def f():
                try:
                    return risky()
                except Exception:
                    return None
        """
        assert ids(run_rule(SilentBroadExcept(), bad)) == ["RL007"]

    def test_flags_broad_type_in_tuple(self):
        bad = """
            def f():
                try:
                    risky()
                except (ValueError, Exception):
                    pass
        """
        assert ids(run_rule(SilentBroadExcept(), bad)) == ["RL007"]

    def test_passes_narrow_handler(self):
        good = """
            def f(path):
                try:
                    path.unlink()
                except OSError:
                    pass
        """
        assert run_rule(SilentBroadExcept(), good) == []

    def test_passes_reraise(self):
        good = """
            def f():
                try:
                    risky()
                except Exception:
                    cleanup()
                    raise
        """
        assert run_rule(SilentBroadExcept(), good) == []

    def test_passes_raise_from(self):
        good = """
            def f():
                try:
                    risky()
                except Exception as exc:
                    raise RuntimeError("wrapped") from exc
        """
        assert run_rule(SilentBroadExcept(), good) == []

    def test_passes_logger_call(self):
        good = """
            def f(logger):
                try:
                    risky()
                except Exception:
                    logger.exception("risky() failed")
        """
        assert run_rule(SilentBroadExcept(), good) == []

    def test_passes_warnings_warn(self):
        good = """
            import warnings
            def f():
                try:
                    risky()
                except Exception as exc:
                    warnings.warn(str(exc))
        """
        assert run_rule(SilentBroadExcept(), good) == []

    def test_inline_suppression_honoured(self):
        code = """
            def f():
                try:
                    risky()
                except Exception:  # replint: ignore[RL007] -- best-effort probe
                    pass
        """
        assert run_rule(SilentBroadExcept(), code) == []


# ---------------------------------------------------------------------------
class TestRL008RawLinalg:
    def test_flags_np_linalg_solve(self):
        bad = """
            import numpy as np
            def fit(gram, rhs):
                return np.linalg.solve(gram, rhs)
        """
        assert ids(run_rule(NoRawLinalgSolvers(), bad)) == ["RL008"]

    def test_flags_inv_via_from_import(self):
        bad = """
            from numpy.linalg import inv
            def precision(cov):
                return inv(cov)
        """
        assert ids(run_rule(NoRawLinalgSolvers(), bad)) == ["RL008"]

    def test_flags_scipy_cholesky(self):
        bad = """
            import scipy.linalg as sla
            def root(gram):
                return sla.cholesky(gram)
        """
        assert ids(run_rule(NoRawLinalgSolvers(), bad)) == ["RL008"]

    def test_passes_rank_revealing_primitives(self):
        good = """
            import numpy as np
            def decompose(x, y):
                u, s, vt = np.linalg.svd(x, full_matrices=False)
                beta = np.linalg.lstsq(x, y, rcond=None)[0]
                return np.linalg.pinv(x), np.linalg.matrix_rank(x), beta
        """
        assert run_rule(NoRawLinalgSolvers(), good) == []

    def test_passes_unrelated_solve_name(self):
        good = """
            def solve(puzzle):
                return sorted(puzzle)
            answer = solve([3, 1, 2])
        """
        assert run_rule(NoRawLinalgSolvers(), good) == []

    def test_exempt_inside_guarded_layer(self):
        code = """
            import numpy as np
            def safe_solve(a, b):
                return np.linalg.solve(a, b)
        """
        exempt = Path("src/repro/stats/linalg.py")
        assert run_rule(NoRawLinalgSolvers(), code, path=exempt) == []

    def test_inline_suppression_honoured(self):
        code = """
            import numpy as np
            def kernel(a, b):
                return np.linalg.solve(a, b)  # replint: ignore[RL008] -- benchmarked hot path, inputs pre-validated
        """
        assert run_rule(NoRawLinalgSolvers(), code) == []


# ---------------------------------------------------------------------------
class TestRL011UnauditedReport:
    GATED = Path("src/repro/core/report.py")

    def test_flags_gated_module_without_audit_import(self):
        bad = """
            def render_table(rows):
                return "|".join(map(str, rows))
        """
        assert ids(run_rule(NoUnauditedReport(), bad, path=self.GATED)) == [
            "RL011"
        ]

    def test_passes_with_audit_submodule_import(self):
        good = """
            from repro.audit.framework import AuditReport

            def render_audit(report: AuditReport) -> str:
                return report.verdict
        """
        assert run_rule(NoUnauditedReport(), good, path=self.GATED) == []

    def test_passes_with_plain_package_import(self):
        good = """
            import repro.audit

            def gate(model):
                return repro.audit.audit_model(model).verdict
        """
        assert run_rule(NoUnauditedReport(), good, path=self.GATED) == []

    def test_persistence_module_is_gated_by_default(self):
        bad = """
            import json

            def save_model(model, path):
                path.write_text(json.dumps(model))
        """
        gated = Path("src/repro/core/persistence.py")
        assert ids(run_rule(NoUnauditedReport(), bad, path=gated)) == [
            "RL011"
        ]

    def test_only_configured_modules_are_checked(self):
        code = """
            def helper():
                return 1
        """
        cold = Path("src/repro/core/model.py")
        assert run_rule(NoUnauditedReport(), code, path=cold) == []

    def test_audit_lookalike_import_does_not_satisfy_gate(self):
        bad = """
            import repro.auditing_helpers

            def render(rows):
                return rows
        """
        assert ids(run_rule(NoUnauditedReport(), bad, path=self.GATED)) == [
            "RL011"
        ]


# ---------------------------------------------------------------------------
class TestRL013UnboundedQueue:
    def test_flags_capacityless_queue(self):
        bad = """
            import queue

            q = queue.Queue()
        """
        assert ids(run_rule(NoUnboundedQueue(), bad)) == ["RL013"]

    def test_flags_unbounding_constants(self):
        bad = """
            import queue

            a = queue.Queue(0)
            b = queue.Queue(maxsize=None)
            c = queue.Queue(-1)
        """
        assert ids(run_rule(NoUnboundedQueue(), bad)) == ["RL013"] * 3

    def test_flags_capacityless_deque(self):
        bad = """
            from collections import deque

            buffer = deque()
            window = deque(maxlen=None)
        """
        assert ids(run_rule(NoUnboundedQueue(), bad)) == ["RL013"] * 2

    def test_flags_aliased_and_asyncio_queues(self):
        bad = """
            import asyncio
            from queue import Queue as Q

            a = asyncio.Queue()
            b = Q()
        """
        assert ids(run_rule(NoUnboundedQueue(), bad)) == ["RL013"] * 2

    def test_flags_simplequeue_always(self):
        # SimpleQueue has no maxsize parameter at all.
        bad = """
            import queue

            q = queue.SimpleQueue()
        """
        assert ids(run_rule(NoUnboundedQueue(), bad)) == ["RL013"]

    def test_passes_bounded_constructions(self):
        good = """
            import queue
            from collections import deque

            a = queue.Queue(100)
            b = queue.Queue(maxsize=8)
            c = deque(maxlen=16)
            d = deque([1, 2], 5)
            e = deque(items, maxlen=cap)
        """
        assert run_rule(NoUnboundedQueue(), good) == []

    def test_serve_layer_is_exempt(self):
        code = """
            from collections import deque

            pending = deque()
        """
        exempt = Path("src/repro/serve/queue.py")
        assert run_rule(NoUnboundedQueue(), code, path=exempt) == []

    def test_configured_modules_override(self):
        code = """
            import queue

            q = queue.Queue()
        """
        config = LintConfig(queue_modules=("*/custom/buffer.py",))
        custom = Path("src/custom/buffer.py")
        assert run_rule(NoUnboundedQueue(), code, path=custom, config=config) == []
        assert ids(run_rule(NoUnboundedQueue(), code, config=config)) == ["RL013"]
