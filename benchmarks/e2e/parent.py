"""The benchmark's parent process: runs workloads in fresh child processes.

This process never imports ``repro``.  Every measured operation runs in
a child interpreter with a pinned environment: the serial executor,
``PYTHONHASHSEED=0``, one BLAS thread, and a ``REPRO_CACHE_DIR``,
``TMPDIR`` and snapshot directory inside a scratch directory of the
checkout that is removed at exit.  So ``setup_s`` includes the import,
and no cache or memory carries over between workloads.

Usage (from the root of a checkout)::

    python -m benchmarks.e2e run [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--spans FILE] [--out FILE]
    python -m benchmarks.e2e compare PARENT.jsonl CHANGE.jsonl

``run`` prints a report per workload and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric of ``BENCHMARK.json``, or with
``--trace 1`` every per-layer metric).  It exits 1 when an output is
wrong, 2 when the checkout cannot be benchmarked and 3 when a child
outruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import calibrate, stats, tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = Path(__file__).with_name("baseline.json")
WORK_PREFIX = ".e2e-work-"

WORKLOADS = ("paper-cold", "paper-warm", "fit", "serve-soak")
DEFAULT_SEED = 20170529
SETUP_REPEATS = 3
MIN_PAPER_RUNS = 3
MIN_TRACED_RUNS = 2
LATENCY_LIMIT_MS = 250.0
"""Serve p90 limit: half a node's 0.5 s sampling interval."""

#: Interpreter settings a caller's environment could carry into a child.
_PYTHON_SETTINGS = frozenset({
    "PYTHONPATH", "PYTHONHASHSEED", "PYTHONSTARTUP", "PYTHONOPTIMIZE",
    "PYTHONDEVMODE", "PYTHONWARNINGS", "PYTHONMALLOC", "PYTHONTRACEMALLOC",
    "PYTHONPROFILEIMPORTTIME", "PYTHONDONTWRITEBYTECODE", "PYTHONNOUSERSITE",
})

_IMPORT_PROBE = (
    "import sys, time\n"
    "import repro\n"
    "elapsed = time.perf_counter() - float(sys.argv[1])\n"
    "if not repro.__file__.startswith(sys.argv[2]):\n"
    "    sys.exit('repro imported from ' + repro.__file__)\n"
    "print(repr(elapsed))\n"
)

#: Per-layer metric → (span layer, field).  Values are per operation:
#: per CLI run (paper), per round of 10 OLS + 1 Huber fits (fit), per
#: timed tick (serve); ``import.repro`` and ``serve.restore`` are per
#: process start.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "import.repro_s": ("import.repro", "self_s"),
    "process.self_s": ("process", "self_s"),
    "process.exit_s": ("process.exit", "self_s"),
    "acquisition.campaign_s": ("acquisition.campaign", "self_s"),
    "hardware.prime_s": ("hardware.prime", "self_s"),
    "hardware.simulate_s": ("hardware.simulate", "self_s"),
    "hardware.simulate.calls": ("hardware.simulate", "calls"),
    "tracing.trace_s": ("tracing.trace", "self_s"),
    "tracing.trace.calls": ("tracing.trace", "calls"),
    "tracing.postprocess_s": ("tracing.postprocess", "self_s"),
    "acquisition.merge_s": ("acquisition.merge", "self_s"),
    "experiments.cache_write_s": ("experiments.cache_write", "self_s"),
    "experiments.cache_read_s": ("experiments.cache_read", "self_s"),
    "experiments.run_self_s": ("experiments.run", "self_s"),
    "experiments.render_s": ("experiments.render", "self_s"),
    "core.selection.ols_s": ("core.selection.ols", "self_s"),
    "core.selection.huber_s": ("core.selection.huber", "self_s"),
    "core.model_fit_s": ("core.model_fit", "self_s"),
    "core.model_fit.calls": ("core.model_fit", "calls"),
    "core.scenarios_s": ("core.scenarios", "self_s"),
    "audit.run_s": ("audit.run", "self_s"),
    "fit.workflow_self_s": ("fit.workflow", "self_s"),
    "serve.submit_s": ("serve.submit", "self_s"),
    "serve.process_self_s": ("serve.process", "self_s"),
    "serve.make_batch_s": ("serve.make_batch", "self_s"),
    "serve.step_batch_s": ("serve.step_batch", "self_s"),
    "serve.snapshot_s": ("serve.snapshot", "self_s"),
    "serve.restore_s": ("serve.restore", "self_s"),
}
PER_PROCESS_LAYERS = ("import.repro", "serve.restore")

#: Layers a traced run of each workload must reach at least once (so a
#: refactor cannot silently zero one), and layers it must not reach.
EXPECTED_LAYERS = {
    "paper-cold": (
        "import.repro", "acquisition.campaign", "hardware.prime",
        "hardware.simulate", "tracing.trace", "tracing.postprocess",
        "acquisition.merge", "experiments.cache_write", "core.selection.ols",
        "core.model_fit", "core.scenarios", "experiments.run",
        "experiments.render",
    ),
    "paper-warm": (
        "import.repro", "experiments.cache_read", "core.selection.ols",
        "core.model_fit", "core.scenarios", "experiments.run",
        "experiments.render",
    ),
    "fit": (
        "import.repro", "fit.workflow", "core.selection.ols",
        "core.selection.huber", "core.model_fit", "core.scenarios", "audit.run",
    ),
    "serve-soak": (
        "import.repro", "serve.submit", "serve.process", "serve.make_batch",
        "serve.step_batch", "serve.snapshot", "serve.restore",
    ),
}
FORBIDDEN_LAYERS = {"paper-warm": ("acquisition.campaign", "experiments.cache_write")}


class SetupError(Exception):
    """The checkout cannot be benchmarked (exit status 2)."""


class ChildTimeout(Exception):
    """A child outran its time limit and was killed (exit status 3)."""


@dataclass
class Child:
    """One finished child process."""

    returncode: int
    start_s: float
    """``time.perf_counter()`` just before the spawn."""
    end_s: float
    """``time.perf_counter()`` just after the reap."""
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class Outcome:
    """One workload's measurements and checks."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one operation; record ``problem`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def load_spec(path: Path = SPEC_PATH) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path.name}: {exc}") from exc


def load_pins(path: Path = BASELINE_PATH) -> Dict[str, str]:
    """Pinned paper-output digests by seed."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))["paper_digest"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read the digest pins: {exc}") from exc


class Harness:
    """Spawns and reaps the children of one workload run."""

    def __init__(self, seed: int, seconds: float) -> None:
        src = ROOT / "src" / "repro" / "__init__.py"
        if not src.is_file():
            raise SetupError(f"no package source at {src.parent}")
        self.seed = seed
        self.seconds = seconds
        # A fit or serve child measures for ``seconds`` after a few
        # seconds of set-up, and an open loop that falls behind runs on
        # until its backlog drains: twice the run time covers both.
        self.child_timeout_s = 2.0 * seconds + 60.0
        # Inside the checkout: the benchmark reads and writes nothing
        # outside it.
        self.workdir = Path(tempfile.mkdtemp(prefix=WORK_PREFIX, dir=ROOT))
        (self.workdir / "tmp").mkdir()
        self._n = 0
        self.kernel_s: List[float] = []
        """Calibration kernel times of this run (see ``calibrate``)."""

    def host_scale(self, lines: List[str]) -> float:
        """The run's reference-host factor; describes it in ``lines``."""
        factor = calibrate.scale(self.kernel_s)
        lines.append(
            _timing_line("host speed: calibration kernel",
                         [s * 1000.0 for s in self.kernel_s])
            + f"; reference {calibrate.REFERENCE_MS:g} ms, so the metrics' "
            f"times are the times above x {factor:.4f}"
        )
        return factor

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def scratch_path(self, stem: str) -> Path:
        """A new, unused path in the scratch directory."""
        self._n += 1
        return self.workdir / f"{stem}-{self._n}"

    def fresh_dir(self, stem: str) -> Path:
        path = self.scratch_path(stem)
        path.mkdir()
        return path

    def _env(self, cache_dir: Optional[Path], benchmark_code: bool) -> Dict[str, str]:
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith(("REPRO_", "OMP_", "OPENBLAS_", "MKL_"))
            and k not in _PYTHON_SETTINGS
        }
        path = [str(ROOT / "src")] + ([str(ROOT)] if benchmark_code else [])
        env.update(
            PYTHONPATH=os.pathsep.join(path),
            PYTHONHASHSEED="0",
            REPRO_PARALLEL="serial",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            TMPDIR=str(self.workdir / "tmp"),
            MPLCONFIGDIR=str(self.workdir / "tmp"),
            REPRO_CACHE_DIR=str(cache_dir or self.fresh_dir("cache")),
        )
        return env

    def spawn(
        self,
        argv: Sequence[str],
        *,
        cache_dir: Optional[Path] = None,
        benchmark_code: bool = False,
    ) -> Child:
        """Time the calibration kernel, then run ``python argv`` (``{t0}``
        replaced by the spawn time) and reap it with ``os.wait4`` for its
        peak RSS."""
        self.kernel_s += calibrate.sample()
        env = self._env(cache_dir, benchmark_code)
        out_path = self.scratch_path("stdout")
        err_path = self.scratch_path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            args = [sys.executable] + [a.replace("{t0}", repr(t0)) for a in argv]
            proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=out, stderr=err)
            timed_out = threading.Event()

            def kill_on_timeout() -> None:
                timed_out.set()
                proc.kill()

            watchdog = threading.Timer(self.child_timeout_s, kill_on_timeout)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end_s = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            raise ChildTimeout(
                f"{' '.join(argv[:3])} ... did not finish within "
                f"{self.child_timeout_s:g} s and was killed"
            )
        child = Child(
            returncode=proc.returncode,
            start_s=t0,
            end_s=end_s,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )
        out_path.unlink()
        err_path.unlink()
        return child

    def import_probe(self) -> Optional[float]:
        """Set-up of a paper run: fresh interpreter + ``import repro``."""
        child = self.spawn(
            ["-c", _IMPORT_PROBE, "{t0}", str(ROOT / "src")]
        )
        if child.returncode != 0:
            return None
        return float(child.stdout.strip())


def _describe_failure(child: Child) -> str:
    tail = child.stderr.strip().splitlines()[-3:]
    return f"exit {child.returncode}: " + " | ".join(tail)


def _timing_line(name: str, values_ms: Sequence[float], unit: str = "ms") -> str:
    n = len(values_ms)
    q1, q2, q3 = stats.quartiles(values_ms)
    line = (
        f"  {name}: N={n} mean={stats.mean(values_ms):.3f} {unit} "
        f"p50={q2:.3f} {unit} p90={stats.percentile(values_ms, 90):.3f} {unit} "
        f"IQR={q1:.3f}..{q3:.3f} {unit}"
    )
    tail = stats.tail_percentile(n)
    if tail is None:
        line += f"; no percentile has 10 samples beyond it at N={n}"
    else:
        line += f"; p{tail}={stats.percentile(values_ms, tail):.3f} {unit} (10+ beyond)"
    return line


# ----------------------------------------------------------------------
# paper-cold / paper-warm: the experiments runner CLI, whole
# ----------------------------------------------------------------------
def _runner_args(seed: int) -> List[str]:
    return [*tracing.PAPER_EXPERIMENTS, "--seed", str(seed)]


class _PaperRuns:
    def __init__(self, h: Harness, out: Outcome, warm: bool) -> None:
        self.h, self.out, self.warm = h, out, warm
        self.cache = h.fresh_dir("cache")
        self.pin = load_pins().get(str(h.seed))
        self.reference: Optional[str] = None

    def run(self, traced: bool = False) -> Tuple[Child, Optional[Path], Path]:
        cache = self.cache if self.warm else self.h.fresh_dir("cache")
        spans = self.h.scratch_path("spans")
        if traced:
            argv = ["-m", "benchmarks.e2e.child", "cli", "--t0", "{t0}",
                    "--spans", str(spans), "--", *_runner_args(self.h.seed)]
        else:
            argv = ["-m", "repro.experiments.runner", *_runner_args(self.h.seed)]
        child = self.h.spawn(argv, cache_dir=cache, benchmark_code=traced)
        problem = None
        if child.returncode != 0:
            problem = f"paper run {_describe_failure(child)}"
        else:
            digest = stats.paper_digest(child.stdout)
            self.reference = self.reference or digest
            if self.pin is not None and digest != self.pin:
                problem = (f"paper output digest {digest} != pinned {self.pin} "
                           f"for seed {self.h.seed}")
            elif digest != self.reference:
                problem = (f"paper output digest {digest} differs from this "
                           f"set's first run {self.reference}")
        self.out.check(problem is None, problem)
        return child, (spans if traced else None), cache

    def done_with(self, cache: Path) -> None:
        if not self.warm:
            shutil.rmtree(cache, ignore_errors=True)


def run_paper(h: Harness, warm: bool, traced: bool) -> Outcome:
    out = Outcome()
    runs = _PaperRuns(h, out, warm)
    setups = [] if traced else [h.import_probe() for _ in range(SETUP_REPEATS)]
    if None in setups:
        out.check(False, "import probe failed")
        return out
    # Untimed warm-up (OS file cache, bytecode); for paper-warm it also
    # fills the campaign cache, and its cold output is the reference the
    # warm runs must reproduce.
    _, _, cache = runs.run()
    runs.done_with(cache)

    plain: List[Child] = []
    traced_runs: List[Tuple[Child, Path, Path]] = []
    deadline = time.perf_counter() + h.seconds
    while True:
        if traced:
            enough = min(len(plain), len(traced_runs)) >= MIN_TRACED_RUNS
        else:
            enough = len(plain) >= MIN_PAPER_RUNS
        if enough and time.perf_counter() >= deadline:
            break
        if traced and len(traced_runs) < len(plain):
            child, spans, cache = runs.run(traced=True)
            traced_runs.append((child, spans, cache))
            if child.returncode == 0:
                out.metrics["experiments.cache_bytes"] = float(
                    sum(p.stat().st_size for p in cache.glob("*.npz"))
                )
        else:
            child, _, cache = runs.run()
            plain.append(child)
        runs.done_with(cache)
    if not out.correct:
        return out

    walls_ms = [c.wall_s * 1000.0 for c in plain]
    if not traced:
        out.lines += [
            f"  setup: N={len(setups)} fresh interpreters + import repro, "
            f"median {stats.median(setups):.4f} s",
            _timing_line("CLI run wall", walls_ms),
            f"  output digest (timing lines stripped): {runs.reference}",
        ]
        factor = h.host_scale(out.lines)
        out.metrics.update(
            setup_s=stats.median(setups) * factor,
            mean_ms=stats.mean(walls_ms) * factor,
            throughput_per_s=1000.0 / (stats.mean(walls_ms) * factor),
            peak_rss_mb=stats.median([c.rss_mb for c in plain]),
        )
        return out

    # Span ids restart in every run: key them by (run, id).  The child's
    # root span opens at the spawn; writing the spans and the
    # interpreter's shut-down, up to the reap, get spans of their own.
    tagged = []
    for i, (child, path, _cache) in enumerate(traced_runs):
        spans, written = tracing.load_jsonl(str(path))
        spans += [[len(spans), "trace.write", spans[0][3], written, None],
                  [len(spans) + 1, "process.exit", written, child.end_s, None]]
        for sid, name, start, end, parent in spans:
            out.spans.append({"run": i, "id": sid, "name": name, "start": start,
                              "end": end, "parent": parent})
            tagged.append([(i, sid), name, start, end,
                           None if parent is None else (i, parent)])
    totals = tracing.layer_totals(tagged)
    traced_walls = [c.wall_s for c, _, _ in traced_runs]
    _layer_metrics(
        out,
        totals,
        totals,
        n_ops=len(traced_runs),
        n_processes=len(traced_runs),
        wall_s=sum(traced_walls) / len(traced_walls),
        op="run",
        overhead_s=stats.median(traced_walls) - stats.median([c.wall_s for c in plain]),
    )
    return out


# ----------------------------------------------------------------------
# fit / serve-soak: one long-lived child each
# ----------------------------------------------------------------------
def _service_child(
    h: Harness, kind: str, seconds: float, *, setup_only: bool = False,
    spans: Optional[Path] = None,
) -> Tuple[Child, Optional[dict]]:
    result = h.scratch_path("result")
    argv = ["-m", "benchmarks.e2e.child", kind, "--t0", "{t0}",
            "--seed", str(h.seed), "--seconds", repr(seconds),
            "--result", str(result), "--workdir", str(h.fresh_dir("state"))]
    if setup_only:
        argv.append("--setup-only")
    if spans is not None:
        argv += ["--spans", str(spans)]
    child = h.spawn(argv, benchmark_code=True)
    if child.returncode != 0 or not result.is_file():
        return child, None
    return child, json.loads(result.read_text(encoding="utf-8"))


def _fit_rounds_s(result: dict) -> List[float]:
    ols, huber = result["ols_s"], result["huber_s"]
    per = len(ols) // len(huber)
    return [sum(ols[i * per:(i + 1) * per]) + h for i, h in enumerate(huber)]


def _check_fit(out: Outcome, result: dict) -> None:
    out.attempted += result["calls"]
    out.failed += result["mismatches"]
    if result["mismatches"]:
        out.problems.append(
            f"{result['mismatches']} fit(s) selected other counters or "
            "reached another CV MAPE than the first fit of their kind"
        )


def _check_serve(out: Outcome, result: dict) -> None:
    out.attempted += result["healthy_attempted"]
    out.failed += result["healthy_failed"]
    if result["healthy_failed"]:
        out.problems.append(
            f"{result['healthy_failed']} healthy-node sample(s) got no "
            "stateful estimate (shed, rejected or answered stateless)"
        )
    out.check(
        result["probes_match"],
        "a healthy probe node's drift report differs from its serial replay",
    )


def _fit_report(out: Outcome, result: dict) -> Tuple[List[float], float]:
    ols_ms = [s * 1000.0 for s in result["ols_s"]]
    huber_ms = [s * 1000.0 for s in result["huber_s"]]
    out.lines += [
        f"  selected counters: {', '.join(result['selected'])}",
        _timing_line("OLS run_workflow", ols_ms),
        _timing_line("Huber run_workflow", huber_ms),
    ]
    fit_time_s = sum(result["ols_s"]) + sum(result["huber_s"])
    return ols_ms, (len(ols_ms) + len(huber_ms)) / fit_time_s


def _serve_report(out: Outcome, result: dict) -> Tuple[List[float], float]:
    for phase, values in result["latency_s"].items():
        values_ms = [s * 1000.0 for s in values]
        verdict = (
            "meets" if stats.percentile(values_ms, 90) <= LATENCY_LIMIT_MS
            else "MISSES"
        )
        out.lines.append(
            _timing_line(f"tick latency at {phase} (open loop)", values_ms)
            + f"; {verdict} the p90 <= {LATENCY_LIMIT_MS:g} ms limit"
        )
    capacity = result["closed_rows"] / sum(result["closed_s"])
    late_ms = [s * 1000.0 for s in result["generator_late_s"]]
    service_ms = [s * 1000.0 for s in result["service_s"]]
    out.lines += [
        _timing_line("tick service time (closed loop)",
                     [s * 1000.0 for s in result["closed_s"]]),
        _timing_line("tick service time (every timed tick)", service_ms),
        f"  capacity: {capacity:.1f} node-samples/s over "
        f"{len(result['closed_s'])} back-to-back ticks",
        f"  generator lateness: p90={stats.percentile(late_ms, 90):.3f} ms "
        f"over {len(late_ms)} open-loop ticks",
        f"  healthy samples: {result['healthy_attempted']}, "
        f"without a stateful estimate: {result['healthy_failed']}",
    ]
    return service_ms, capacity


def run_service(h: Harness, workload: str, traced: bool) -> Outcome:
    kind = "fit" if workload == "fit" else "serve"
    check = _check_fit if kind == "fit" else _check_serve
    report = _fit_report if kind == "fit" else _serve_report
    out = Outcome()
    if not traced:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            child, result = _service_child(h, kind, 0.0, setup_only=True)
            if not out.check(result is not None, f"{kind} set-up {_describe_failure(child)}"):
                return out
            setups.append(result["setup_s"])
        child, result = _service_child(h, kind, h.seconds)
        if not out.check(result is not None, f"{kind} run {_describe_failure(child)}"):
            return out
        setups.append(result["setup_s"])
        check(out, result)
        out.lines.append(f"  setup: {len(setups)} fresh processes, "
                         f"median {stats.median(setups):.4f} s")
        op_ms, throughput = report(out, result)
        h.kernel_s += result["kernel_s"]
        factor = h.host_scale(out.lines)
        out.metrics.update(
            setup_s=stats.median(setups) * factor,
            mean_ms=stats.mean(op_ms) * factor,
            throughput_per_s=throughput / factor,
            peak_rss_mb=child.rss_mb,
        )
        return out

    # Half the time untraced, half traced: the difference in the median
    # operation is the tracing overhead.
    plain_child, plain = _service_child(h, kind, h.seconds / 2)
    spans_path = h.scratch_path("spans")
    child, result = _service_child(h, kind, h.seconds / 2, spans=spans_path)
    for c, r in ((plain_child, plain), (child, result)):
        if not out.check(r is not None, f"{kind} run {_describe_failure(c)}"):
            return out
        check(out, r)
    spans, _ = tracing.load_jsonl(str(spans_path))
    out.spans = [dict(zip(("id", "name", "start", "end", "parent"), s), run=0)
                 for s in spans]
    if kind == "fit":
        ops_plain, ops_traced = _fit_rounds_s(plain), _fit_rounds_s(result)
        n_ops, op, roots = result["rounds"], "round", ["fit.round"]
        wall_s = sum(ops_traced) / n_ops
    else:
        ops_plain, ops_traced = plain["closed_s"], result["closed_s"]
        n_ops, op = result["timed_ticks"], "tick"
        roots = ["serve.tick", "bench.generate"]
        wall_s = result["busy_window_s"] / n_ops
        late_ms = [s * 1000.0 for s in result["generator_late_s"]]
        out.metrics.update({
            "serve.step_batch_rows": result["closed_rows"] / len(result["closed_s"]),
            "serve.snapshot_writes": result["snapshot_writes"] / n_ops,
            "serve.queue_shed": float(result["queue_shed"]),
            "serve.queue_max_depth": float(result["queue_max_depth"]),
            "serve.dropped_malformed": result["dropped_malformed"] / n_ops,
            "serve.stateless_served": float(result["stateless_served"]),
            "serve.stateful_ratio": 1.0 - result["healthy_failed"] / result["healthy_attempted"],
            "serve.gen_late_p90_ms": stats.percentile(late_ms, 90),
        })
    _layer_metrics(
        out,
        tracing.layer_totals(spans, roots=roots),
        tracing.layer_totals(spans),
        n_ops=n_ops,
        n_processes=1,
        wall_s=wall_s,
        op=op,
        overhead_s=stats.median(ops_traced) - stats.median(ops_plain),
    )
    return out


def _layer_metrics(
    out: Outcome,
    op_totals: Dict[str, Dict[str, float]],
    all_totals: Dict[str, Dict[str, float]],
    *,
    n_ops: int,
    n_processes: int,
    wall_s: float,
    op: str,
    overhead_s: float,
) -> None:
    """Per-layer metrics from the traced spans, plus the self-time table."""
    for metric, (layer, field_) in LAYER_METRICS.items():
        if layer in PER_PROCESS_LAYERS:
            row, n = all_totals.get(layer), n_processes
        else:
            row, n = op_totals.get(layer), n_ops
        out.metrics[metric] = row[field_] / n if row else 0.0
    out.metrics["trace.overhead_s"] = overhead_s
    out.lines.append(tracing.render_table(op_totals, n_ops, wall_s, op))
    coverage = sum(r["self_s"] for r in op_totals.values()) / n_ops / wall_s
    if abs(coverage - 1.0) > 0.05:
        out.lines.append(
            f"  WARNING: layer self times sum to {100 * coverage:.1f} % of "
            "the traced wall time (more than 5 % off)"
        )
    out.lines.append(f"  trace overhead: {overhead_s:+.4f} s/{op} against untraced")


def _check_layers(out: Outcome, workload: str) -> None:
    fired = {s["name"] for s in out.spans}
    for layer in EXPECTED_LAYERS[workload]:
        out.check(layer in fired, f"traced run never reached layer {layer}")
    for layer in FORBIDDEN_LAYERS.get(workload, ()):
        out.check(layer not in fired, f"traced run reached layer {layer}")


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    h = Harness(seed, seconds)
    try:
        if workload.startswith("paper-"):
            out = run_paper(h, warm=workload == "paper-warm", traced=traced)
        else:
            out = run_service(h, workload, traced)
        if traced and out.correct:
            _check_layers(out, workload)
        return out
    finally:
        h.close()


def result_json(out: Outcome, spec: dict, traced: bool) -> dict:
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    if out.correct:
        missing = [m["name"] for m in declared if m["name"] not in out.metrics]
        if missing and not traced:
            raise RuntimeError(f"metrics not measured: {missing}")
        # A layer the workload never reaches reads 0.
        metrics = {
            m["name"]: {"value": out.metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        }
    return {
        "correct": out.correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.correct else max(out.failed, 1),
        "metrics": metrics,
    }


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace)
    workloads = args.workload or list(WORKLOADS)
    results = {}
    all_spans: List[dict] = []
    for workload in workloads:
        started = time.time()
        out = run_workload(workload, args.seed, seconds, traced)
        result = result_json(out, spec, traced)
        results[workload] = result
        print(f"== {workload}  seed={args.seed}  seconds={seconds:g}  "
              f"trace={int(traced)}")
        print("\n".join(out.lines))
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"  attempted={result['attempted']} failed={result['failed']} "
              f"correct={str(result['correct']).lower()}")
        for problem in out.problems[:10]:
            print(f"  FAILED: {problem}")
        all_spans += [dict(s, workload=workload) for s in out.spans]
        if args.out:
            record = {"workload": workload, "seed": args.seed, "seconds": seconds,
                      "trace": int(traced), "started_unix": started, "result": result}
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in all_spans:
                fh.write(json.dumps(span) + "\n")
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured time per workload (default: run_seconds "
                          "of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run reporting the per-layer metrics")
    run.add_argument("--spans", help="write the traced spans here (JSON lines)")
    run.add_argument("--out", help="append one JSON record per workload run")
    cmp_ = sub.add_parser("compare", help="compare two sets of recorded runs")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    return parser


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that kill and reap the
    # running child and remove the scratch directory.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # The calibration kernel loads numpy here: one BLAS thread, as in
    # the children.
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        if args.command == "compare":
            from benchmarks.e2e import compare

            return compare.main(args.parent, args.change, load_spec())
        return cmd_run(args)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    except ChildTimeout as exc:
        print(f"benchmark timed out: {exc}", file=sys.stderr)
        return 3
