"""Wire types of the online estimation kernel, and the one column packer.

A monitored node reports one :class:`NodeSample` per sampling interval.
:func:`make_batch` validates a tick's submissions and packs the
survivors into a column-major :class:`Batch` (nodes × counters) in one
Python pass; the delta matrix and the context columns then become
float64 with one ``np.array`` call each, and only a column numpy cannot
convert exactly as ``float()`` would falls back to a per-row check.
:class:`repro.serve.fleet.FleetEstimator` steps a whole batch in one
vectorized pass — a fleet service's shard (gathered with
:meth:`Batch.take`), or the reused single row (:class:`RowPacker`) of
the one-node :class:`~repro.core.online.OnlineEstimator`.

The batch layout keeps apart everything the step contract
distinguishes: a *missing* counter (absent key or ``None``), a
*non-finite* delta and a *negative* delta are different degradations
with different messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NodeSample", "Batch", "RowPacker", "concat_batches", "make_batch"]

#: What ``float()`` raises on a value it cannot turn into a float:
#: a non-number, an unparsable string, or an int past the float range.
_NOT_A_FLOAT = (TypeError, ValueError, OverflowError)


@dataclass(frozen=True)
class NodeSample:
    """One node's counter deltas for one sampling interval."""

    node_id: str
    counter_deltas: Dict[str, float]
    """Raw event counts accumulated over the interval.  Keys the model
    needs but the node failed to report are absent (or ``None``)."""
    interval_s: float
    voltage_v: float
    frequency_mhz: float
    time_s: Optional[float] = None


@dataclass(frozen=True)
class Batch:
    """Validated samples in (nodes × counters) column-major form.

    ``deltas[i, k]`` is row *i*'s delta for ``counters[k]``;
    ``present[i, k]`` is False where the sample did not carry that
    counter at all (NaN in ``deltas`` with ``present`` True means the
    node *reported* a non-finite value — a different fault).
    ``time_valid[i]`` is False where the sample carried no timestamp.
    The same ``node_id`` may appear in several rows (duplicate reports);
    row order is the arrival order the serial path would see.
    """

    counters: Tuple[str, ...]
    node_ids: Tuple[str, ...]
    deltas: np.ndarray
    present: np.ndarray
    interval_s: np.ndarray
    voltage_v: np.ndarray
    frequency_mhz: np.ndarray
    time_s: np.ndarray
    time_valid: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.node_ids)

    def take(self, rows) -> "Batch":
        """The rows ``rows`` (an index array or a slice), in that order."""
        if isinstance(rows, slice):
            node_ids = self.node_ids[rows]
        else:
            node_ids = tuple(map(self.node_ids.__getitem__, rows.tolist()))
        return Batch(
            counters=self.counters,
            node_ids=node_ids,
            deltas=self.deltas[rows],
            present=self.present[rows],
            interval_s=self.interval_s[rows],
            voltage_v=self.voltage_v[rows],
            frequency_mhz=self.frequency_mhz[rows],
            time_s=self.time_s[rows],
            time_valid=self.time_valid[rows],
        )


def concat_batches(chunks: Sequence[Batch], counters: Sequence[str]) -> Batch:
    """The chunks' rows in order, as one batch over ``counters``."""
    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return make_batch((), counters)
    node_ids: Tuple[str, ...] = ()
    for chunk in chunks:
        node_ids += chunk.node_ids
    return Batch(
        counters=tuple(counters),
        node_ids=node_ids,
        **{
            name: np.concatenate([getattr(chunk, name) for chunk in chunks])
            for name in (
                "deltas", "present", "interval_s", "voltage_v",
                "frequency_mhz", "time_s", "time_valid",
            )
        },
    )


def _picker(counters: Tuple[str, ...]) -> Callable[[dict], tuple]:
    """``d ↦ (d[c] for c in counters)`` as a tuple; ``KeyError`` on a
    missing counter."""
    if len(counters) == 1:
        (only,) = counters
        return lambda d: (d[only],)
    if not counters:
        return lambda d: ()
    return itemgetter(*counters)


def _numeric(values: list, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
    """``values`` as a float64 array of ``shape`` when every entry is a
    real number (bool, int or float) numpy converts exactly as
    ``float()`` does; ``None`` when any entry is not, so the caller
    checks row by row."""
    try:
        array = np.array(values)
    except _NOT_A_FLOAT:
        return None
    if array.shape != shape or array.dtype.kind not in "biuf":
        return None
    return array.astype(np.float64, copy=False)


def _fill_row(
    deltas: dict, counters: Sequence[str], values: np.ndarray, present: np.ndarray
) -> None:
    """One sample's model-counter deltas into a row: ``float()`` of each
    reported value, a ``present=False`` NaN hole for an absent or
    ``None`` counter.  Raises what ``float()`` raises."""
    for j, counter in enumerate(counters):
        value = deltas.get(counter)
        if value is None:
            present[j] = False
            values[j] = np.nan
        else:
            present[j] = True
            values[j] = float(value)


def make_batch(
    submissions: Sequence[object],
    counters: Sequence[str],
    dropped: Optional[Dict[str, int]] = None,
) -> Batch:
    """Validate submissions and pack the survivors over ``counters``.

    A submission is dropped, and counted under its reason in
    ``dropped``, when it is not a :class:`NodeSample`
    (``not-a-sample``), its node id is not a non-empty string
    (``bad-node-id``), its deltas are not a dict (``bad-deltas``), a
    delta — a model counter's or an extra one — is neither ``None`` nor
    accepted by ``float()`` (``non-numeric-delta``), the interval,
    voltage or frequency is not (``non-numeric-context``), or the
    timestamp is neither ``None`` nor a finite float
    (``bad-timestamp``); the first reason in that order counts.
    Without a ``dropped`` tally, a submission that would be dropped
    raises ``ValueError`` instead.

    Survivors keep their arrival order.  Counters a sample carries
    beyond the model's set are ignored; absent (or ``None``) counters
    become ``present=False`` holes.  Judging *values* (NaN, negative,
    non-positive context, a backwards timestamp) is the estimator's
    job, so those pass untouched.
    """
    counters = tuple(counters)
    k = len(counters)
    pick = _picker(counters)
    zeros = (0.0,) * k
    drops: Dict[str, int] = {}
    kept: List[NodeSample] = []
    node_ids: List[str] = []
    rows: List[tuple] = []
    context: List[tuple] = []
    times: List[object] = []
    odd: List[int] = []
    """Kept rows whose delta keys are not exactly the model's counters."""
    for sub in submissions:
        if not isinstance(sub, NodeSample):
            reason = "not-a-sample"
        elif not isinstance(sub.node_id, str) or not sub.node_id:
            reason = "bad-node-id"
        elif not isinstance(sub.counter_deltas, dict):
            reason = "bad-deltas"
        else:
            deltas = sub.counter_deltas
            row = None
            if type(deltas) is dict and len(deltas) == k:
                try:
                    row = pick(deltas)
                except KeyError:
                    pass
            if row is None:
                odd.append(len(kept))
                row = zeros
            rows.append(row)
            kept.append(sub)
            node_ids.append(sub.node_id)
            context.append((sub.interval_s, sub.voltage_v, sub.frequency_mhz))
            times.append(sub.time_s)
            continue
        drops[reason] = drops.get(reason, 0) + 1

    n = len(kept)
    bad_delta = np.zeros(n, dtype=bool)
    deltas = _numeric(rows, (n, k))
    if deltas is None:
        odd = range(n)
        deltas = np.full((n, k), np.nan)
    present = np.ones((n, k), dtype=bool)
    for i in odd:
        sample_deltas = kept[i].counter_deltas
        try:
            for value in sample_deltas.values():
                if value is not None:  # None: a missing counter
                    float(value)
            _fill_row(sample_deltas, counters, deltas[i], present[i])
        except _NOT_A_FLOAT:
            bad_delta[i] = True

    bad_context = np.zeros(n, dtype=bool)
    ctx = _numeric(context, (n, 3))
    if ctx is None:
        ctx = np.full((n, 3), np.nan)
        for i, values in enumerate(context):
            try:
                ctx[i] = [float(v) for v in values]
            except _NOT_A_FLOAT:
                bad_context[i] = True
    ctx = ctx.T.copy()

    time_s = _numeric(times, (n,))
    time_valid = np.ones(n, dtype=bool)
    if time_s is None:
        time_s = np.full(n, np.nan)
        for i, value in enumerate(times):
            if value is None:
                time_valid[i] = False
                continue
            try:
                time_s[i] = float(value)
            except _NOT_A_FLOAT:
                pass  # left NaN: a bad timestamp, like a non-finite one
    bad_time = time_valid & ~np.isfinite(time_s)

    drop = bad_delta | bad_context | bad_time
    for reason, mask in (
        ("non-numeric-delta", bad_delta),
        ("non-numeric-context", bad_context & ~bad_delta),
        ("bad-timestamp", bad_time & ~bad_delta & ~bad_context),
    ):
        count = int(np.count_nonzero(mask))
        if count:
            drops[reason] = drops.get(reason, 0) + count
    if drops:
        if dropped is None:
            raise ValueError(f"malformed submissions: {drops}")
        for reason, count in drops.items():
            dropped[reason] = dropped.get(reason, 0) + count
    batch = Batch(
        counters=counters,
        node_ids=tuple(node_ids),
        deltas=deltas,
        present=present,
        interval_s=ctx[0],
        voltage_v=ctx[1],
        frequency_mhz=ctx[2],
        time_s=time_s,
        time_valid=time_valid,
    )
    return batch.take(np.flatnonzero(~drop)) if drop.any() else batch


class RowPacker:
    """One node's samples, one at a time, into a reused one-row batch.

    The one-node :class:`~repro.core.online.OnlineEstimator` steps every
    interval through the fleet kernel; packing into preallocated
    one-row arrays spares it building a batch per call.  There is no
    middleware on this path: a value ``float()`` rejects raises, a
    non-finite timestamp passes to the estimator, and counters beyond
    the model's are ignored unread.
    """

    def __init__(self, node_id: str, counters: Sequence[str]) -> None:
        counters = tuple(counters)
        k = len(counters)
        self.batch = Batch(
            counters=counters,
            node_ids=(node_id,),
            deltas=np.full((1, k), np.nan),
            present=np.zeros((1, k), dtype=bool),
            interval_s=np.empty(1),
            voltage_v=np.empty(1),
            frequency_mhz=np.empty(1),
            time_s=np.full(1, np.nan),
            time_valid=np.zeros(1, dtype=bool),
        )

    def pack(
        self,
        counter_deltas: Dict[str, float],
        interval_s: float,
        voltage_v: float,
        frequency_mhz: float,
        time_s: Optional[float],
    ) -> Batch:
        """The sample as the batch's one row (valid until the next call)."""
        batch = self.batch
        _fill_row(counter_deltas, batch.counters, batch.deltas[0], batch.present[0])
        batch.interval_s[0] = float(interval_s)
        batch.voltage_v[0] = float(voltage_v)
        batch.frequency_mhz[0] = float(frequency_mhz)
        has_time = time_s is not None
        batch.time_s[0] = float(time_s) if has_time else np.nan
        batch.time_valid[0] = has_time
        return batch
