"""``[tool.replint]`` configuration loaded from ``pyproject.toml``.

All knobs have defaults tuned for this repository, so the linter works
out of the box on any checkout; the pyproject section only needs to
list deviations (disabled rules, per-path ignores).

Example::

    [tool.replint]
    disable = ["RL004"]

    [tool.replint.per-path-ignores]
    "tests/*" = ["RL004", "RL006"]
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - 3.9/3.10 fallback
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None  # degrade to defaults; warn in loader

__all__ = ["LintConfig", "find_pyproject"]

#: Unit suffixes a physical-quantity name may carry (RL003).
DEFAULT_UNIT_SUFFIXES: Tuple[str, ...] = (
    "w", "mw", "kw",               # power
    "v", "mv",                     # voltage
    "j", "kj", "pj",               # energy
    "hz", "khz", "mhz", "ghz",     # frequency
    "c", "k",                      # temperature
    "s", "ms", "us", "ns",         # time
    "per_cycle", "per_second", "per_s",  # rates (Eq. 1)
)

#: Bare quantity stems that must not appear unsuffixed (RL003).
DEFAULT_QUANTITY_STEMS: Tuple[str, ...] = (
    "power",
    "voltage",
    "energy",
    "frequency",
    "freq",
    "temperature",
)

#: Name suffixes treated as float-typed for RL004.
DEFAULT_FLOAT_SUFFIXES: Tuple[str, ...] = (
    "_w", "_mw", "_kw", "_v", "_mv", "_j", "_kj", "_pj",
    "_s", "_ms", "_c", "_per_cycle", "_per_second", "_per_s",
)

#: Modules allowed to construct RNG state without a literal seed (RL001).
DEFAULT_SEEDING_MODULES: Tuple[str, ...] = ("*/seeding.py", "seeding.py")

#: Modules allowed to call raw write primitives (RL006): the atomic
#: write helpers themselves.
DEFAULT_ATOMIC_MODULES: Tuple[str, ...] = ("*/repro/io/atomic.py",)

#: Modules allowed to call raw ``numpy.linalg`` solvers (RL008): the
#: guarded linear-algebra layer itself.
DEFAULT_LINALG_MODULES: Tuple[str, ...] = (
    "*/stats/linalg.py",
    "stats/linalg.py",
)

#: Directories whose changes alter campaign physics (RL005).
DEFAULT_PHYSICS_PATHS: Tuple[str, ...] = (
    "src/repro/hardware/",
    "src/repro/workloads/",
)

DEFAULT_VERSION_FILE = "src/repro/experiments/data.py"
DEFAULT_VERSION_SYMBOL = "DATA_VERSION"

#: Audit-gated modules (RL011): files that render or persist fitted
#: results and therefore must consult the :mod:`repro.audit` gate.
DEFAULT_AUDIT_GATED_MODULES: Tuple[str, ...] = (
    "*/core/report.py",
    "*/core/persistence.py",
)

#: Modules allowed to build raw queues/deques without a capacity
#: (RL013): the serving layer's bounded-queue abstraction itself,
#: which must count every drop instead of letting ``deque(maxlen=...)``
#: evict silently.
DEFAULT_QUEUE_MODULES: Tuple[str, ...] = (
    "*/repro/serve/*",
    "repro/serve/*",
)


@dataclass
class LintConfig:
    """Resolved replint configuration."""

    enable: Optional[Set[str]] = None
    """If set, only these rule ids run."""
    disable: Set[str] = field(default_factory=set)
    per_path_ignores: Dict[str, List[str]] = field(default_factory=dict)
    unit_suffixes: Tuple[str, ...] = DEFAULT_UNIT_SUFFIXES
    quantity_stems: Tuple[str, ...] = DEFAULT_QUANTITY_STEMS
    float_suffixes: Tuple[str, ...] = DEFAULT_FLOAT_SUFFIXES
    seeding_modules: Tuple[str, ...] = DEFAULT_SEEDING_MODULES
    atomic_modules: Tuple[str, ...] = DEFAULT_ATOMIC_MODULES
    linalg_modules: Tuple[str, ...] = DEFAULT_LINALG_MODULES
    physics_paths: Tuple[str, ...] = DEFAULT_PHYSICS_PATHS
    version_file: str = DEFAULT_VERSION_FILE
    version_symbol: str = DEFAULT_VERSION_SYMBOL
    audit_gated_modules: Tuple[str, ...] = DEFAULT_AUDIT_GATED_MODULES
    queue_modules: Tuple[str, ...] = DEFAULT_QUEUE_MODULES

    # ------------------------------------------------------------------
    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.disable:
            return False
        if self.enable is not None:
            return rule_id in self.enable
        return True

    @staticmethod
    def _match(posix_path: str, pattern: str) -> bool:
        # Repo-relative patterns ("tests/*") must also match when the
        # linter is handed absolute paths, hence the */ fallback.
        return fnmatch.fnmatch(posix_path, pattern) or fnmatch.fnmatch(
            posix_path, f"*/{pattern}"
        )

    def ignored_for_path(self, posix_path: str) -> Set[str]:
        """Rule ids ignored for the given file path."""
        out: Set[str] = set()
        for pattern, ids in self.per_path_ignores.items():
            if self._match(posix_path, pattern):
                out.update(ids)
        return out

    def path_matches_any(self, posix_path: str, patterns: Sequence[str]) -> bool:
        return any(self._match(posix_path, p) for p in patterns)

    # ------------------------------------------------------------------
    @classmethod
    def from_pyproject(cls, pyproject: Optional[Path]) -> "LintConfig":
        """Load ``[tool.replint]`` (missing file/section → defaults)."""
        cfg = cls()
        if pyproject is None or not pyproject.is_file() or _toml is None:
            return cfg
        with pyproject.open("rb") as fh:
            data = _toml.load(fh)
        section = data.get("tool", {}).get("replint", {})
        if not isinstance(section, dict):
            return cfg
        if "enable" in section:
            cfg.enable = {str(r).upper() for r in section["enable"]}
        if "disable" in section:
            cfg.disable = {str(r).upper() for r in section["disable"]}
        ignores = section.get("per-path-ignores", {})
        if isinstance(ignores, dict):
            cfg.per_path_ignores = {
                str(pat): [str(r).upper() for r in ids]
                for pat, ids in ignores.items()
            }
        for toml_key, attr in (
            ("unit-suffixes", "unit_suffixes"),
            ("quantity-stems", "quantity_stems"),
            ("float-suffixes", "float_suffixes"),
            ("seeding-modules", "seeding_modules"),
            ("atomic-modules", "atomic_modules"),
            ("linalg-modules", "linalg_modules"),
            ("physics-paths", "physics_paths"),
            ("audit-gated-modules", "audit_gated_modules"),
            ("queue-modules", "queue_modules"),
        ):
            if toml_key in section:
                setattr(cfg, attr, tuple(str(v) for v in section[toml_key]))
        if "version-file" in section:
            cfg.version_file = str(section["version-file"])
        if "version-symbol" in section:
            cfg.version_symbol = str(section["version-symbol"])
        return cfg


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    start = start.resolve()
    for candidate in [start, *start.parents]:
        path = candidate / "pyproject.toml"
        if path.is_file():
            return path
    return None
