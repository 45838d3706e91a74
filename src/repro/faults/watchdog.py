"""Acquisition watchdog: plausibility validation of traces/profiles.

Injected faults are only half the story — the campaign loop also needs
to *detect* corrupted acquisitions, the way the paper's post-processing
operator would eyeball a day's traces before merging them.  The checks
here are physical plausibility arguments, not comparisons against the
injector's bookkeeping, so they catch real pipeline bugs too:

* NaN power samples — the sensor link dropped readings;
* a flat-lined power channel — exact float repeats cannot occur with
  live Gaussian sensor noise, so ≥ :data:`STUCK_RUN_LENGTH` identical
  consecutive samples mean a stuck ADC;
* PMC rates beyond :data:`PLAUSIBLE_MAX_RATE_PER_S` — a ~3 GHz chip
  with issue width 4 cannot generate 10¹³ events/s; only a 48-bit
  wrap/saturation can;
* lost phases — a run's profile set must cover every phase the
  workload executed (truncated trace, or phases poisoned by NaN).

All failures raise :class:`~repro.faults.errors.AcquisitionError` with
a machine-readable ``kind`` the campaign loop aggregates.  The three
sample-level checks are vectorized and shared: :func:`validate_trace`
applies them to one trace, :func:`screen_block` to every run of a
:class:`~repro.tracing.otf2.TraceBlock` at once.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.faults.errors import AcquisitionError
from repro.hardware.platform import RunExecution
from repro.tracing.otf2 import Trace, TraceBlock
from repro.tracing.plugins import ApapiPlugin, PowerPlugin

__all__ = [
    "PLAUSIBLE_MAX_RATE_PER_S",
    "STUCK_RUN_LENGTH",
    "screen_block",
    "validate_trace",
    "validate_profiles",
]

#: No realistic PMC event rate exceeds this (≈3 GHz × issue width 4,
#: with an order of magnitude of headroom).  A 48-bit wrap reports
#: ≈2.8e14 events/s and lands far above it.
PLAUSIBLE_MAX_RATE_PER_S = 1e13

#: Consecutive bit-identical power samples that signal a stuck sensor.
#: Live samples carry continuous Gaussian noise; even two exact repeats
#: are vanishingly unlikely, eight are a diagnosis.
STUCK_RUN_LENGTH = 8


def _flat_windows(power_w: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """Per sample, whether the :data:`STUCK_RUN_LENGTH` samples starting
    there are bit-identical and belong to one run (run ``r`` owns
    samples ``offsets[r]:offsets[r + 1]``)."""
    n = power_w.size
    out = np.zeros(n, dtype=bool)
    if n < STUCK_RUN_LENGTH:
        return out
    # NaN != NaN keeps dropout out of this check.
    equal = power_w[1:] == power_w[:-1]  # exact repeats are the signal
    if not equal.any():  # live sensor noise: the usual case
        return out
    cuts = np.asarray(offsets[1:-1], dtype=np.int64) - 1
    equal[cuts[(cuts >= 0) & (cuts < n - 1)]] = False
    # Window j spans comparisons j .. j + STUCK_RUN_LENGTH - 2.
    seen = np.concatenate(([0], np.cumsum(equal)))
    span = STUCK_RUN_LENGTH - 1
    out[: n - span] = seen[span:] - seen[: n - span] == span
    return out


def _longest_flat_run(power_w: np.ndarray) -> int:
    """Length of the longest run of bit-identical consecutive samples."""
    if power_w.size < 2:
        return power_w.size
    equal = power_w[1:] == power_w[:-1]  # exact repeats are the signal
    edges = np.flatnonzero(np.diff(np.concatenate(([0], equal, [0]))))
    return int((edges[1::2] - edges[::2]).max(initial=0)) + 1


def _sample_checks(
    names: Sequence[str], values: np.ndarray, offsets: Sequence[int]
) -> List[Tuple[str, np.ndarray]]:
    """The sample-level plausibility checks, in the order
    :func:`validate_trace` applies them: ``(kind, failing samples)``
    over the ``(metrics × samples)`` array ``values`` of metrics
    ``names``, whose columns are the samples of runs ``offsets``."""
    checks = []
    if PowerPlugin.METRIC in names:
        power_w = values[names.index(PowerPlugin.METRIC)]
        checks.append(("sensor-dropout", np.isnan(power_w)))
        checks.append(("sensor-stuck", _flat_windows(power_w, offsets)))
    counters = [
        m for m, name in enumerate(names) if name.startswith(ApapiPlugin.PREFIX)
    ]
    overflow = values[counters] > PLAUSIBLE_MAX_RATE_PER_S
    checks.append(("counter-overflow", overflow.any(axis=0)))
    return checks


def screen_block(block: TraceBlock) -> Dict[int, str]:
    """The runs of ``block`` that :func:`validate_trace` would reject,
    each with the ``kind`` it would raise.

    One vectorized pass over the block's stacked samples, so a clean
    block costs a few array operations; only flagged runs need their
    :class:`Trace` built to get the full diagnosis.
    """
    names = [mdef.name for mdef in block.defs]
    offsets = block.offsets
    flagged: Dict[int, str] = {}
    for kind, failing in _sample_checks(names, block.values, offsets):
        if failing.any():
            run_of = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
            for r in np.unique(run_of[failing]).tolist():
                flagged.setdefault(r, kind)
    return flagged


def validate_trace(trace: Trace) -> None:
    """Raise :class:`AcquisitionError` if a trace is physically implausible.

    The power stream is checked first (dropout, then flat-lining), then
    the counter streams in trace order.
    """
    for name in sorted(trace.metrics, key=lambda name: name != PowerPlugin.METRIC):
        values = trace.metrics[name].values
        if not values.size:
            continue
        for kind, failing in _sample_checks([name], values[None], (0, values.size)):
            if not failing.any():
                continue
            if kind == "sensor-dropout":
                raise AcquisitionError(
                    f"power stream has {int(failing.sum())} NaN samples of "
                    f"{values.size} — sensor dropout",
                    kind=kind,
                )
            if kind == "sensor-stuck":
                raise AcquisitionError(
                    f"power stream flat-lined for {_longest_flat_run(values)} "
                    f"consecutive samples — stuck sensor",
                    kind=kind,
                )
            raise AcquisitionError(
                f"counter {name[len(ApapiPlugin.PREFIX):]} reports "
                f"{float(np.nanmax(values)):.3g} events/s — PMC "
                f"overflow/saturation",
                kind=kind,
            )


def validate_profiles(
    phase_names: Sequence[str],
    run: RunExecution,
    *,
    min_duration_s: float = 0.5,
) -> None:
    """Raise :class:`AcquisitionError` when a run's profiles, whose
    phase names (its rows of a phase table) are ``phase_names``, lost
    phases.

    ``min_duration_s`` must match the profile generation's cutoff:
    phases shorter than it are legitimately absent.
    """
    expected = tuple(
        pe.phase.name for pe in run.phases if pe.duration_s >= min_duration_s
    )
    got = tuple(phase_names)
    if got == expected:
        return
    missing = Counter(expected) - Counter(got)
    if missing:
        names = ", ".join(sorted(missing))
        raise AcquisitionError(
            f"run {run.workload_name}@{run.op.frequency_mhz}MHz/"
            f"{run.threads}t#{run.run_index} lost phases: {names} "
            f"(truncated trace or poisoned samples)",
            kind="phase-loss",
        )
