"""Source invariants that no behavioural test sees being broken.

One ``ast.parse`` pass over ``src/`` and ``tests/`` feeds the checks
below.  Each was kept because a bug of its class, seeded into the
tree, failed no other tier-1 test; bug classes the test suite catches
(a unit slip in Eq. 1 moves the Table-I pin, a physics change without
a ``DATA_VERSION`` bump fails the same pin) have no check here.

* ``unseeded-rng``: a ``np.random.<fn>()`` module-state call or a
  seedless ``default_rng()``.  The draw does not descend from the root
  seed, so a run stops being reproducible.
* ``raw-write``: ``np.save*``, ``open()`` for writing or
  ``.write_text``/``.write_bytes`` in ``src/``.  A crash mid-write
  publishes a truncated artifact; durable writes go through
  :mod:`repro.io.atomic`.
* ``silent-broad-except``: ``except:`` or ``except Exception`` in
  ``src/`` whose body neither raises nor warns nor logs.  The fault is
  lost instead of being counted.
* ``raw-linalg``: ``numpy.linalg``/``scipy.linalg`` ``solve``, ``inv``,
  ``cholesky``, ``tensorsolve`` or ``tensorinv``.  They raise or amplify
  noise on a degraded design; fits go through :mod:`repro.stats.linalg`.
* ``src-imports-tests``: a module in ``src/`` importing ``tests`` or
  ``tests.*`` (the oracles live there).  Tier-1 runs with ``tests/``
  on the path, so the import passes every test and breaks only an
  installed package.

Intentional exceptions are listed in :data:`EXEMPT` by file and
enclosing function.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (file, enclosing function) -> the checks that may fire there.
EXEMPT: Dict[Tuple[str, str], Tuple[str, ...]] = {
    # The atomic-write helpers are the one home of raw write primitives.
    ("src/repro/io/atomic.py", "atomic_open"): ("raw-write",),
    ("src/repro/io/atomic.py", "atomic_savez"): ("raw-write",),
    # The guarded layer itself: it catches LinAlgError and degrades.
    ("src/repro/stats/linalg.py", "try_cholesky"): ("raw-linalg",),
    # A failing shard write or step trips the shard's breaker: the
    # refusal shows up in ShardReport, the rows get a counted
    # stateless answer.
    ("src/repro/serve/app.py", "SnapshotWorker.run"): ("silent-broad-except",),
    ("src/repro/serve/app.py", "FleetService.process"): ("silent-broad-except",),
}

#: Tests may write fixture files and catch broadly while probing errors.
_SRC_ONLY = {"raw-write", "silent-broad-except", "src-imports-tests"}
_SAVERS = {"numpy.save", "numpy.savez", "numpy.savez_compressed"}
_SOLVERS = {"solve", "inv", "cholesky", "tensorsolve", "tensorinv"}
_LOG_METHODS = {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}


class Finding(NamedTuple):
    check: str
    path: str
    line: int
    scope: str


def _aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the dotted name it was imported as."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """``np.random.normal`` -> ``numpy.random.normal`` when ``np`` is numpy."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _open_mode(call: ast.Call) -> Optional[str]:
    """The literal mode of an ``open()`` call; ``None`` when dynamic."""
    args = call.args
    mode: Optional[ast.AST] = None
    if len(args) > 1:
        mode = args[1]
    elif args and isinstance(call.func, ast.Attribute):  # Path.open(mode)
        mode = args[0]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _call_checks(call: ast.Call, aliases: Dict[str, str]) -> Iterator[str]:
    name = _dotted(call.func, aliases) or ""
    attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
    if name.startswith("numpy.random.") and name.count(".") == 2:
        fn = name.rsplit(".", 1)[1]
        if fn[0].islower() and (fn != "default_rng" or not (call.args or call.keywords)):
            yield "unseeded-rng"
    if name in _SAVERS or attr in ("write_text", "write_bytes"):
        yield "raw-write"
    if name == "open" or attr == "open":
        mode = _open_mode(call)
        if mode is None or set(mode) & set("wax"):
            yield "raw-write"
    for prefix in ("numpy.linalg.", "scipy.linalg."):
        if name.startswith(prefix) and name[len(prefix):] in _SOLVERS:
            yield "raw-linalg"


def _imports_tests(node: ast.AST) -> bool:
    """``import tests…`` or ``from tests… import …``."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module or ""]
    else:
        return False
    return any(m == "tests" or m.startswith("tests.") for m in modules)


def _silent_broad(handler: ast.ExceptHandler, aliases: Dict[str, str]) -> bool:
    """``except:``/``except Exception`` whose body never raises or reports."""
    if handler.type is not None:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        names = {(_dotted(t, aliases) or "").rsplit(".", 1)[-1] for t in types}
        if not names & {"Exception", "BaseException"}:
            return False
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return False
        if isinstance(node, ast.Call):
            name = _dotted(node.func, aliases) or ""
            if name == "warnings.warn" or name.startswith("logging."):
                return False
            if isinstance(node.func, ast.Attribute) and node.func.attr in _LOG_METHODS:
                return False
    return True


def scan(tree: ast.Module, path: str) -> List[Finding]:
    """Every check that fires in one parsed file, with its scope."""
    aliases = _aliases(tree)
    in_src = path.startswith("src/")
    found: List[Finding] = []
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        checks: List[str] = []
        if isinstance(node, ast.Call):
            checks = list(_call_checks(node, aliases))
        elif isinstance(node, ast.ExceptHandler) and _silent_broad(node, aliases):
            checks = ["silent-broad-except"]
        elif _imports_tests(node):
            checks = ["src-imports-tests"]
        for check in checks:
            if in_src or check not in _SRC_ONLY:
                found.append(Finding(check, path, node.lineno, scope or "<module>"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def tree_findings() -> List[Finding]:
    """One parse of every Python file under ``src/`` and ``tests/``."""
    found: List[Finding] = []
    for top in ("src", "tests"):
        for file in sorted((ROOT / top).rglob("*.py")):
            path = file.relative_to(ROOT).as_posix()
            found.extend(scan(ast.parse(file.read_text(), filename=path), path))
    return found


def test_tree_is_clean():
    findings = tree_findings()
    bad = [f for f in findings if f.check not in EXEMPT.get((f.path, f.scope), ())]
    assert not bad, "\n".join(f"{f.path}:{f.line} ({f.scope}): {f.check}" for f in bad)
    used = {(f.path, f.scope) for f in findings}
    assert not set(EXEMPT) - used, f"stale exemptions: {sorted(set(EXEMPT) - used)}"


BAD = {
    "unseeded-rng": "import numpy as np\nrng = np.random.default_rng()\n",
    "raw-write": (
        "import numpy as np\n"
        "def store(path, data):\n"
        "    np.savez(path, data=data)\n"
    ),
    "silent-broad-except": (
        "def notify(hook):\n"
        "    try:\n"
        "        hook()\n"
        "    except Exception:\n"
        "        pass\n"
    ),
    "raw-linalg": (
        "import numpy as np\n"
        "def vif(sub, r):\n"
        "    return r @ np.linalg.solve(sub, r)\n"
    ),
    "src-imports-tests": (
        "from repro.hardware.fastsim import simulate_phases\n"
        "def reference(char, op, cfg):\n"
        "    from tests.oracles.physics import evaluate\n"
        "    return evaluate(char, op, 1, cfg)\n"
    ),
}

GOOD = {
    "unseeded-rng": (
        "from repro.seeding import derive_rng\n"
        "rng = derive_rng(7, 'serve')\n"
        "import numpy as np\n"
        "other = np.random.default_rng(3)\n"
    ),
    "raw-write": (
        "from repro.io.atomic import atomic_savez\n"
        "def store(path, data):\n"
        "    atomic_savez(path, data=data)\n"
        "    with open(path, 'rb') as fh:\n"
        "        return fh.read()\n"
    ),
    "silent-broad-except": (
        "import warnings\n"
        "def notify(hook):\n"
        "    try:\n"
        "        hook()\n"
        "    except Exception as exc:\n"
        "        warnings.warn(str(exc))\n"
        "    try:\n"
        "        hook()\n"
        "    except OSError:\n"
        "        pass\n"
    ),
    "raw-linalg": (
        "import numpy as np\n"
        "from repro.stats.linalg import safe_pinv\n"
        "def vif(sub, r):\n"
        "    return r @ safe_pinv(sub) @ r + np.linalg.norm(r)\n"
    ),
    "src-imports-tests": (
        "import testfixtures\n"
        "from repro.hardware import fastsim\n"
        "from . import tests_common\n"
        "from .tests import helpers\n"
    ),
}


@pytest.mark.parametrize("check", sorted(BAD))
def test_check_fires_on_seeded_bug(check):
    found = scan(ast.parse(BAD[check]), "src/repro/seeded.py")
    assert [f.check for f in found] == [check]


@pytest.mark.parametrize("check", sorted(GOOD))
def test_check_passes_clean_code(check):
    assert scan(ast.parse(GOOD[check]), "src/repro/seeded.py") == []
