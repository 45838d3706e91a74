"""In-memory spans around ``repro``'s public entry points.

A traced benchmark child installs :func:`install` after importing the
package.  Each entry point in :data:`LAYERS` is replaced by a wrapper
at *every* place it is bound by name (``from x import f`` copies the
binding into the importing module, so patching the defining module
alone would miss those calls).  A wrapper records one span per call:
``(id, name, start, end, parent)`` on the ``time.perf_counter`` clock,
which on Linux is the system-wide monotonic clock, so a parent process
can open a span for a child's interpreter start-up.  Spans stay in
memory and are written as JSON lines when the run ends.

The package itself carries no instrumentation; a layer's self time is
its spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LAYERS",
    "Recorder",
    "install",
    "layer_totals",
    "load_jsonl",
    "render_table",
]


def _selection_layer(args, kwargs) -> str:
    return "core.selection." + kwargs.get("estimator", "ols")


#: (layer, defining module, attribute) — the public entry points that
#: mark each layer boundary.  A layer may have several entry points; a
#: layer name may also be a function of the call's arguments.
LAYERS: Tuple[Tuple[object, str, str], ...] = (
    ("acquisition.campaign", "repro.acquisition.campaign", "run_campaign"),
    ("hardware.prime", "repro.hardware.platform", "Platform.prime_run_skeletons"),
    ("hardware.prime", "repro.hardware.platform", "Platform.prime_rng_words"),
    ("hardware.simulate", "repro.hardware.platform", "Platform.execute"),
    ("tracing.trace", "repro.tracing.scorep", "ScorePTracer.trace"),
    ("tracing.postprocess", "repro.tracing.phases", "haecsim_profiles"),
    ("tracing.postprocess", "repro.tracing.phases", "postprocess_profiles"),
    ("acquisition.merge", "repro.acquisition.postprocess", "merge_runs"),
    ("acquisition.merge", "repro.acquisition.postprocess", "build_dataset"),
    ("experiments.cache_write", "repro.acquisition.dataset", "PowerDataset.save_npz"),
    ("experiments.cache_read", "repro.acquisition.dataset", "PowerDataset.load_npz"),
    (_selection_layer, "repro.core.selection", "select_events"),
    ("core.model_fit", "repro.core.model", "PowerModel.fit"),
    ("core.scenarios", "repro.core.scenarios", "cv_out_of_fold_predictions"),
    ("core.scenarios", "repro.core.scenarios", "scenario_random_workloads"),
    ("core.scenarios", "repro.core.scenarios", "scenario_synthetic_to_spec"),
    ("core.scenarios", "repro.core.scenarios", "scenario_cv_all"),
    ("core.scenarios", "repro.core.scenarios", "scenario_cv_synthetic"),
    ("core.scenarios", "repro.core.scenarios", "run_all_scenarios"),
    ("audit.run", "repro.audit.engine", "run_audit"),
    ("audit.run", "repro.audit.engine", "audit_workflow"),
    ("audit.run", "repro.audit.engine", "audit_model"),
    ("audit.run", "repro.audit.engine", "audit_fleet"),
    ("fit.workflow", "repro.core.workflow", "run_workflow"),
    ("serve.submit", "repro.serve.app", "FleetService.submit"),
    ("serve.process", "repro.serve.app", "FleetService.process"),
    ("serve.make_batch", "repro.serve.api", "make_batch"),
    ("serve.step_batch", "repro.serve.fleet", "FleetEstimator.step_batch"),
    ("serve.snapshot", "repro.serve.state", "FleetStateStore.store_many"),
    ("serve.restore", "repro.serve.state", "FleetStateStore.load"),
)

#: The paper experiments the runner regenerates; each module's ``run``
#: is the ``experiments.run`` layer and its result's ``render`` the
#: ``experiments.render`` layer.
PAPER_EXPERIMENTS = (
    "table1", "fig2", "table2", "fig3", "fig4", "fig5", "table3", "fig6", "table4",
)


class Recorder:
    """Spans of one traced process, kept in memory.

    Span ``i`` is ``names[i]``, ``starts[i]``, ``ends[i]`` and
    ``parents[i]`` (-1 for a root).  Flat arrays rather than an object
    per span: tens of thousands of small containers alive through a run
    would make the garbage collector, and so the traced run, slower.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: List[int] = []

    def begin(self, name: str, start: Optional[float] = None) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter() if start is None else start)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")

    def span(self, name: str, start: Optional[float] = None) -> "_Span":
        return _Span(self, name, start)

    def wrap(self, fn: Callable, layer) -> Callable:
        begin, end = self.begin, self.end
        if callable(layer):

            def traced(*args, **kwargs):
                sid = begin(layer(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(sid)

        else:

            def traced(*args, **kwargs):
                sid = begin(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(sid)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, then a footer ``{"written": t}``
        with the clock reading once the spans are written, so the
        writing itself can be told apart from the program's own exit."""
        quoted = {name: json.dumps(name) for name in set(self.names)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                f'{{"id": {sid}, "name": {quoted[name]}, "start": {start!r}, '
                f'"end": {end!r}, "parent": {"null" if parent < 0 else parent}}}\n'
                for sid, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)
                )
            )
            fh.write(json.dumps({"written": time.perf_counter()}) + "\n")


class _Span:
    def __init__(self, recorder: Recorder, name: str, start: Optional[float]):
        self._recorder, self._name, self._start = recorder, name, start

    def __enter__(self) -> int:
        self._sid = self._recorder.begin(self._name, self._start)
        return self._sid

    def __exit__(self, *exc) -> None:
        self._recorder.end(self._sid)


def _experiment_targets(experiments: Sequence[str]) -> List[Tuple[str, str, str]]:
    targets = []
    for experiment in experiments:
        module = importlib.import_module(f"repro.experiments.{experiment}")
        targets.append(("experiments.run", module.__name__, "run"))
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "render" in vars(value)
            ):
                targets.append(
                    ("experiments.render", module.__name__, f"{value.__name__}.render")
                )
    return targets


def install(recorder: Recorder, *, experiments: Sequence[str] = ()) -> None:
    """Wrap every layer entry point (and the named experiments' ``run``
    and result ``render``) so calls record spans into ``recorder``.

    A method is replaced on its class; a function is replaced wherever a
    loaded ``repro`` module binds it by name.
    """
    functions: Dict[int, Callable] = {}
    for layer, module_name, attribute in (*LAYERS, *_experiment_targets(experiments)):
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        if not owner_name:
            original = getattr(module, name)
            functions[id(original)] = recorder.wrap(original, layer)
            continue
        owner = getattr(module, owner_name)
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, name, type(raw)(recorder.wrap(raw.__func__, layer)))
        else:
            setattr(owner, name, recorder.wrap(raw, layer))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapper = functions.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                namespace[attr] = wrapper


def load_jsonl(path: str) -> Tuple[List[list], Optional[float]]:
    """Spans as ``[id, name, start, end, parent]`` and the footer's
    ``written`` time (``None`` without a footer)."""
    spans, written = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "written" in row:
                written = row["written"]
                continue
            spans.append(
                [row["id"], row["name"], row["start"], row["end"], row["parent"]]
            )
    return spans, written


def layer_totals(
    spans: Iterable[list], roots: Optional[Iterable[str]] = None
) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``busy_s`` (outermost spans of the layer,
    so recursion is not counted twice) and ``self_s`` (duration minus
    the part child spans cover).

    With ``roots``, only spans under a root span of one of those names
    count (for instance the timed operations, not the set-up).
    """
    spans = list(spans)
    by_id = {s[0]: s for s in spans}
    child_time: Dict[int, float] = {}
    for sid, _name, start, stop, parent in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (stop - start)
    wanted = None if roots is None else set(roots)

    def root_and_nested(span) -> Tuple[str, bool]:
        nested = False
        node = span
        while node[4] is not None:
            node = by_id[node[4]]
            nested = nested or node[1] == span[1]
        return node[1], nested

    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        sid, name, start, stop, _parent = span
        root, nested = root_and_nested(span)
        if wanted is not None and root not in wanted:
            continue
        row = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if not nested:
            row["busy_s"] += stop - start
        row["self_s"] += (stop - start) - child_time.get(sid, 0.0)
    return totals


def render_table(
    totals: Dict[str, Dict[str, float]], n_ops: int, wall_s: float, op: str
) -> str:
    """Per-layer self-time table, per operation, with its coverage of
    the measured wall time."""
    rows = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
    self_sum = sum(r["self_s"] for _, r in rows) / n_ops
    lines = [
        f"{'layer':<28}{'calls/' + op:>14}{'busy s/' + op:>14}"
        f"{'self s/' + op:>14}{'self %':>8}",
    ]
    for name, r in rows:
        share = 100.0 * r["self_s"] / n_ops / wall_s if wall_s else 0.0
        lines.append(
            f"{name:<28}{r['calls'] / n_ops:>14.1f}{r['busy_s'] / n_ops:>14.4f}"
            f"{r['self_s'] / n_ops:>14.4f}{share:>8.1f}"
        )
    coverage = self_sum / wall_s if wall_s else 0.0
    lines.append(
        f"{'sum of self':<28}{'':>14}{'':>14}{self_sum:>14.4f}"
        f"{100.0 * coverage:>8.1f}"
    )
    lines.append(
        f"traced wall {wall_s:.4f} s/{op} over {n_ops} {op}(s); "
        f"self times cover {100.0 * coverage:.1f} % of it"
    )
    return "\n".join(lines)
