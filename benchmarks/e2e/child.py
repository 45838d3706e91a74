"""Benchmark child processes: the only benchmark code that imports ``repro``.

The parent process starts each as ``python -m benchmarks.e2e.child KIND ...``
in a fresh interpreter and passes ``--t0``, its ``time.perf_counter()``
just before the spawn (the system-wide monotonic clock on Linux), so a
child's set-up time includes interpreter start-up and the import.

Kinds:

``cli``
    One traced run of the paper experiments runner; arguments after
    ``--`` go to the runner unchanged.
``fit``
    Set-up builds the paper dataset for the seed in memory and fits it
    once; then rounds of 10 OLS ``run_workflow`` calls (Gram-cache fast
    path) and one Huber call (exact per-fit path) run until the time is
    up.  Every call must select the same counters and reach the same CV
    MAPE, bit for bit, as the first call of its kind.
``serve``
    Set-up builds the dataset, fits the model and starts a
    ``FleetService`` over 2,000 nodes, then serves the first tick.  The
    timed part repeats a cycle of 16 open-loop ticks at 8 ticks per
    second, 8 at 16 ticks per second and 6 back to back, one cycle per
    2.8 s of run time.  Afterwards two healthy nodes' drift reports must
    equal a serial ``OnlineEstimator`` replay of the same samples.

``fit`` and ``serve`` also time the calibration kernel (see
:mod:`benchmarks.e2e.calibrate`) after every round and before every
cycle.  They write a JSON result to ``--result``; with
``--setup-only`` they stop after set-up.  With ``--spans`` the child
records spans (see :mod:`benchmarks.e2e.tracing`) and writes them there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import calibrate, tracing
from benchmarks.e2e.serve_load import FleetLoad

OLS_PER_ROUND = 10
MIN_ROUNDS = 3
SERVE_SHARDS = 8
SERVE_QUEUE = 4000
WARMUP_TICKS = 8
#: One serving cycle: open-loop blocks of (name, ticks per second,
#: ticks), then closed-loop ticks.  The run repeats the cycle rather
#: than running each phase once, so every phase samples the whole run:
#: the host's speed changes from second to second, and the service's
#: per-tick cost grows as the run goes on.
SERVE_CYCLE = (("r16k", 8.0, 16), ("r32k", 16.0, 8))
CLOSED_TICKS_PER_CYCLE = 6
CYCLE_S = sum(ticks / rate for _, rate, ticks in SERVE_CYCLE) + 0.3
"""Nominal length of a cycle; the closed ticks take about 0.3 s."""
ESTIMATOR = dict(
    smoothing=0.5,
    breaker_threshold=3,
    recovery_threshold=2,
    drift_window=20,
    drift_tolerance=0.5,
)


class _ChildSpans:
    """What every child kind shares: the optional span recorder."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.recorder: Optional[tracing.Recorder] = (
            tracing.Recorder() if args.spans else None
        )
        self.spans_path = args.spans

    def span(self, name: str, start: Optional[float] = None):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, start)

    def import_repro(self, *modules: str, experiments=()) -> None:
        """Import the package (a traced layer), then install the wrappers."""
        with self.span("import.repro"):
            importlib.import_module("repro")
            for module in modules:
                importlib.import_module(module)
        _check_source_tree()
        if self.recorder is not None:
            tracing.install(self.recorder, experiments=experiments)

    def finish(self) -> None:
        if self.recorder is not None:
            self.recorder.write_jsonl(self.spans_path)


def _check_source_tree() -> None:
    """Refuse to measure a ``repro`` that is not this checkout's ``src``."""
    import repro

    src = Path(__file__).resolve().parents[2] / "src"
    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(
            f"imported repro from {repro.__file__}, not from {src}"
        )


# ----------------------------------------------------------------------
# cli: one traced paper run
# ----------------------------------------------------------------------
def run_cli(args: argparse.Namespace, runner_argv: List[str]) -> int:
    spans = _ChildSpans(args)
    with spans.span("process", start=args.t0):
        spans.import_repro(
            "repro.experiments.runner",
            *(f"repro.experiments.{name}" for name in tracing.PAPER_EXPERIMENTS),
            experiments=tracing.PAPER_EXPERIMENTS,
        )
        from repro.experiments import runner

        status = runner.main(runner_argv)
        sys.stdout.flush()
    spans.finish()
    return status


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
def _fit_digest(result) -> List[str]:
    return [*result.selected_counters, float(result.validation.mape).hex()]


def run_fit(args: argparse.Namespace) -> Dict[str, object]:
    spans = _ChildSpans(args)
    with spans.span("setup", start=args.t0):
        spans.import_repro("repro.core.workflow", "repro.experiments.data")
        from repro.core import workflow
        from repro.experiments import data

        dataset = data.full_dataset(seed=args.seed, use_disk_cache=False)
        ols_ref = _fit_digest(workflow.run_workflow(dataset=dataset, seed=args.seed))
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    ols_s: List[float] = []
    huber_s: List[float] = []
    mismatches = 0
    huber_ref = None

    def round_(record: bool) -> None:
        nonlocal mismatches, huber_ref
        for _ in range(OLS_PER_ROUND):
            start = time.perf_counter()
            result = workflow.run_workflow(dataset=dataset, seed=args.seed)
            elapsed = time.perf_counter() - start
            mismatches += _fit_digest(result) != ols_ref
            if record:
                ols_s.append(elapsed)
        start = time.perf_counter()
        result = workflow.run_workflow(dataset=dataset, seed=args.seed, robust=True)
        elapsed = time.perf_counter() - start
        if huber_ref is None:
            huber_ref = _fit_digest(result)
        mismatches += _fit_digest(result) != huber_ref
        if record:
            huber_s.append(elapsed)

    with spans.span("warmup"):
        round_(record=False)
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    kernel_s: List[float] = []
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        with spans.span("fit.round"):
            round_(record=True)
        rounds += 1
        kernel_s += calibrate.sample()
    spans.finish()
    return {
        "setup_s": setup_s,
        "kernel_s": kernel_s,
        "ols_s": ols_s,
        "huber_s": huber_s,
        "rounds": rounds,
        "calls": len(ols_s) + len(huber_s),
        "mismatches": mismatches,
        "selected": ols_ref[:-1],
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class _ServeRun:
    """A fleet service under seeded load, with per-tick accounting."""

    def __init__(self, spans: _ChildSpans, seed: int, workdir: Path) -> None:
        from repro.core import PowerModel
        from repro.core.online import PowerEnvelope
        from repro.experiments import data
        from repro.serve import FleetService, NodeSample

        self.spans = spans
        dataset = data.full_dataset(seed=seed, use_disk_cache=False)
        counters = data.selected_counters(seed=seed)
        self.model = PowerModel(counters).fit(dataset)
        self.envelope = PowerEnvelope.from_dataset(dataset)
        self.counters = tuple(self.model.counters)
        self.service = FleetService(
            self.model,
            envelope=self.envelope,
            n_shards=SERVE_SHARDS,
            queue_capacity=SERVE_QUEUE,
            policy="shed-oldest",
            snapshot_dir=str(workdir / "fleet-state"),
            snapshot_every_ticks=1,
            max_snapshot_shards_per_tick=1,
            seed=seed,
            **ESTIMATOR,
        )
        self.load = FleetLoad(seed, len(self.counters))
        self.probes = sorted(self.load.healthy_ids)[:2]
        self.probe_samples: Dict[str, list] = {p: [] for p in self.probes}
        self._make_sample = NodeSample
        self.next_tick = 0
        self.service_s: List[float] = []
        """Time from ``submit`` to the return of ``process``, per timed tick."""
        self.healthy_attempted = 0
        self.healthy_failed = 0

    def generate(self) -> List[object]:
        with self.spans.span("bench.generate"):
            tick = self.load.tick(self.next_tick)
            self.next_tick += 1
            subs = self.load.submissions(tick, self.counters, self._make_sample)
        for sub in subs:
            node_id = getattr(sub, "node_id", None)
            if node_id in self.probe_samples:
                self.probe_samples[node_id].append(sub)
        return subs

    def serve(self, subs: List[object], record: bool) -> Tuple[int, float]:
        """Submit and process one tick; returns the rows stepped and the
        clock reading when ``process`` returned."""
        start = time.perf_counter()
        with self.spans.span("serve.tick" if record else "serve.untimed"):
            self.service.submit(subs)
            outcome = self.service.process()
        done = time.perf_counter()
        served = set()
        for result in outcome.results:
            for node_id, produced in zip(result.node_ids, result.produced):
                if produced:
                    served.add(node_id)
        if record:
            self.service_s.append(done - start)
            self.healthy_attempted += len(self.load.healthy_ids)
            self.healthy_failed += len(self.load.healthy_ids - served)
        return outcome.processed_rows, done

    def probes_match(self) -> bool:
        from repro.core.online import OnlineEstimator

        for node_id in self.probes:
            replay = OnlineEstimator(self.model, envelope=self.envelope, **ESTIMATOR)
            for sample in self.probe_samples[node_id]:
                replay.step(
                    sample.counter_deltas,
                    interval_s=sample.interval_s,
                    voltage_v=sample.voltage_v,
                    frequency_mhz=sample.frequency_mhz,
                    time_s=sample.time_s,
                )
            if self.service.fleet.drift_report(node_id) != replay.drift_report():
                return False
        return True


def run_serve(args: argparse.Namespace) -> Dict[str, object]:
    spans = _ChildSpans(args)
    with spans.span("setup", start=args.t0):
        spans.import_repro("repro.serve", "repro.experiments.data")
        run = _ServeRun(spans, args.seed, Path(args.workdir))
        run.serve(run.generate(), record=False)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    with spans.span("warmup"):
        for _ in range(WARMUP_TICKS):
            run.serve(run.generate(), record=False)
    before = run.service.report()

    # A fixed number of cycles, so every run serves the same ticks.
    latency_s: Dict[str, List[float]] = {name: [] for name, _, _ in SERVE_CYCLE}
    generator_late_s: List[float] = []
    closed_s: List[float] = []
    closed_rows = 0
    kernel_s: List[float] = []
    window_start = time.perf_counter()
    slept_s = 0.0
    for _cycle in range(max(1, round(args.seconds / CYCLE_S))):
        kernel_s += calibrate.sample()
        # Open loop: tick k is due at origin + k / rate whether or not
        # the previous one finished; its latency runs from the due time,
        # so a stall also counts against the ticks queued behind it.
        # The generator packs the next tick after the previous one
        # returns and is late when that packing, not the service,
        # delays a due tick.
        for name, rate, n_ticks in SERVE_CYCLE:
            origin = time.perf_counter() + 1.0 / rate
            previous_end = time.perf_counter()
            for k in range(n_ticks):
                due = origin + k / rate
                subs = run.generate()
                ready = time.perf_counter()
                generator_late_s.append(max(0.0, ready - max(due, previous_end)))
                if due > ready:
                    time.sleep(due - ready)
                    slept_s += time.perf_counter() - ready
                _, previous_end = run.serve(subs, record=True)
                latency_s[name].append(previous_end - due)
        # Closed loop: ticks back to back, for capacity in node-samples/s.
        for _ in range(CLOSED_TICKS_PER_CYCLE):
            rows, _ = run.serve(run.generate(), record=True)
            closed_rows += rows
            closed_s.append(run.service_s[-1])
    window_s = time.perf_counter() - window_start
    spans.finish()

    after = run.service.report()
    return {
        "setup_s": setup_s,
        "kernel_s": kernel_s,
        "latency_s": latency_s,
        "service_s": run.service_s,
        "closed_s": closed_s,
        "closed_rows": closed_rows,
        "generator_late_s": generator_late_s,
        "busy_window_s": window_s - slept_s - sum(kernel_s),
        "timed_ticks": sum(len(v) for v in latency_s.values()) + len(closed_s),
        "healthy_attempted": run.healthy_attempted,
        "healthy_failed": run.healthy_failed,
        "probes_match": run.probes_match(),
        "queue_shed": after.queue.shed - before.queue.shed,
        "queue_max_depth": after.queue.max_depth,
        "dropped_malformed": after.dropped_malformed - before.dropped_malformed,
        "stateless_served": after.stateless_served - before.stateless_served,
        "snapshot_writes": after.snapshot_writes - before.snapshot_writes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    runner_argv: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, runner_argv = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("kind", choices=("cli", "fit", "serve"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--result")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args(argv)
    if args.kind == "cli":
        return run_cli(args, runner_argv)
    result = run_fit(args) if args.kind == "fit" else run_serve(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
