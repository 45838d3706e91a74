"""Fleet telemetry for the ``serve-soak`` workload, generated from the seed.

Values come from numpy alone — not from ``repro.faults`` — so the code
under test cannot change its own inputs.  Each tick every node reports
six counter deltas, its voltage and frequency, and a nominal timestamp
that advances 0.5 s per tick (the service reads no clock).  One node in
ten is fault-eligible; on a tick, such a node is malformed, silent,
reports a NaN or negative delta, a zero voltage, a timestamp 1000 s in
the past, or a duplicate, each with a seeded probability.  Every 25th
tick, from a seeded offset, is a burst that replays the whole tick's
traffic twice (a fixed share, so the tail does not depend on how many
bursts a seed happens to draw).

A tick never queues more well-formed samples than there are nodes
(duplicates are capped by the drops and malformed samples of the same
tick), so a burst fits a queue of twice the fleet size and no healthy
sample is ever shed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

__all__ = ["N_NODES", "FleetLoad", "Tick"]

N_NODES = 2000
FAULTY_SHARE = 0.10
FAULT_RATE = 0.3
"""Per-tick probability that a fault-eligible node misbehaves."""
BURST_EVERY = 25
INTERVAL_S = 0.5

CLEAN, MALFORMED, DROP, NAN, NEGATIVE, ZERO_VOLTAGE, BACKWARDS, DUPLICATE = range(8)
N_FAULT_KINDS = 7


@dataclass(frozen=True)
class Tick:
    """One tick of fleet telemetry, as arrays."""

    index: int
    deltas: np.ndarray
    """(nodes × counters) event counts over the interval."""
    voltage_v: np.ndarray
    frequency_mhz: np.ndarray
    fault: np.ndarray
    """Per node: ``CLEAN`` or the fault kind this tick."""
    victim: np.ndarray
    """Per node: the counter a NaN or negative fault corrupts."""
    burst: bool

    @property
    def time_s(self) -> float:
        return INTERVAL_S * (self.index + 1)


class FleetLoad:
    """Seeded per-tick telemetry for a fleet of ``N_NODES`` nodes."""

    def __init__(self, seed: int, n_counters: int) -> None:
        self.seed = int(seed)
        self.n_counters = int(n_counters)
        self.node_ids = [f"node-{i:05d}" for i in range(N_NODES)]
        rng = np.random.default_rng([self.seed, 0])
        self.faulty = rng.random(N_NODES) < FAULTY_SHARE
        self.burst_offset = int(rng.integers(0, BURST_EVERY))
        self.healthy_ids = frozenset(
            node_id for node_id, bad in zip(self.node_ids, self.faulty) if not bad
        )

    def tick(self, index: int) -> Tick:
        n = N_NODES
        rng = np.random.default_rng([self.seed, 1, index])
        deltas = rng.uniform(0.0, 2e7, size=(n, self.n_counters))
        voltage = rng.uniform(0.9, 1.2, size=n)
        frequency = rng.uniform(1200.0, 2600.0, size=n)
        misbehaves = self.faulty & (rng.random(n) < FAULT_RATE)
        kinds = rng.integers(1, N_FAULT_KINDS + 1, size=n)
        fault = np.where(misbehaves, kinds, CLEAN)
        victim = rng.integers(0, self.n_counters, size=n)
        # Cap duplicates by the samples this tick loses, so the queue
        # never holds more well-formed samples than nodes per tick.
        duplicates = np.flatnonzero(fault == DUPLICATE)
        lost = int(np.count_nonzero((fault == DROP) | (fault == MALFORMED)))
        fault[duplicates[lost:]] = CLEAN
        return Tick(
            index=index,
            deltas=deltas,
            voltage_v=voltage,
            frequency_mhz=frequency,
            fault=fault,
            victim=victim,
            burst=(index + self.burst_offset) % BURST_EVERY == 0,
        )

    def submissions(
        self, tick: Tick, counters: Sequence[str], make_sample: Callable
    ) -> List[object]:
        """The tick's submissions in arrival order.

        ``make_sample(node_id, counter_deltas, interval_s, voltage_v,
        frequency_mhz, time_s)`` builds one well-formed sample; a
        malformed submission is a plain dict the service must drop.
        """
        out: List[object] = []
        time_s = tick.time_s
        rows = tick.deltas.tolist()
        voltages = tick.voltage_v.tolist()
        frequencies = tick.frequency_mhz.tolist()
        for i, node_id in enumerate(self.node_ids):
            kind = int(tick.fault[i])
            if kind == DROP:
                continue
            if kind == MALFORMED:
                out.append({"node_id": node_id})
                continue
            deltas = dict(zip(counters, rows[i]))
            voltage, stamp = voltages[i], time_s
            if kind == NAN:
                deltas[counters[tick.victim[i]]] = float("nan")
            elif kind == NEGATIVE:
                deltas[counters[tick.victim[i]]] = -1.0 - rows[i][tick.victim[i]]
            elif kind == ZERO_VOLTAGE:
                voltage = 0.0
            elif kind == BACKWARDS:
                stamp = time_s - 1000.0
            sample = make_sample(
                node_id, deltas, INTERVAL_S, voltage, frequencies[i], stamp
            )
            out.append(sample)
            if kind == DUPLICATE:
                out.append(sample)
        if tick.burst:
            out = out * 2
        return out
