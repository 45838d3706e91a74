"""Quarantine release and re-entry: probation, the calm-window
condition, and the seeded probation draw.

A node whose drift latch fires enters quarantine for
``quarantine_probation`` intervals plus a draw in
``[0, quarantine_probation)`` seeded from ``(seed, node, entry)``.  It
is released only once that probation has elapsed *and* its drift window
is back under the tolerance, and it enters again when its window drifts
again; the drift report stays the serial estimator's throughout.
"""

from __future__ import annotations

import numpy as np

from repro.serve import FleetEstimator, NodeSample, make_batch

from tests.oracles.online import OnlineEstimator as SerialEstimator

from .conftest import COUNTERS

PROBATION = 6
WINDOW = 5
KW = dict(
    drift_window=WINDOW,
    drift_tolerance=0.4,
    quarantine_probation=PROBATION,
)
NODES = tuple(f"node-{i}" for i in range(8))


def _samples(tick: int, *, noisy: bool):
    """One sample per node.  Noisy deltas put the Equation 1 estimate
    far above the envelope (implausible); zero deltas leave the
    baseline, well inside it."""
    delta = 1e12 if noisy else 0.0
    return [
        NodeSample(
            node_id=nid,
            counter_deltas={c: delta for c in COUNTERS},
            interval_s=0.5,
            voltage_v=1.0,
            frequency_mhz=2000.0,
            time_s=0.5 * (tick + 1),
        )
        for nid in NODES
    ]


class _Driver:
    def __init__(self, model, envelope, seed):
        self.fleet = FleetEstimator(model, envelope=envelope, seed=seed, **KW)
        self.tick = 0
        self.samples = []

    def step(self, *, noisy: bool) -> None:
        samples = _samples(self.tick, noisy=noisy)
        self.samples.extend(samples)
        self.fleet.step_batch(make_batch(samples, COUNTERS))
        self.tick += 1

    def quarantine_entries(self, limit: int):
        """Noisy intervals until every node is quarantined again;
        returns each node's interval count at entry."""
        entered = {}
        for _ in range(limit):
            self.step(noisy=True)
            for nid, q in self.quarantined().items():
                if q and nid not in entered:
                    entered[nid] = self.tick
        assert set(entered) == set(NODES), "a node never re-entered"
        return entered

    def quarantined(self):
        return {nid: self.fleet.is_quarantined(nid) for nid in NODES}

    def latch(self) -> None:
        """Noisy intervals until every node's drift latch has fired."""
        for _ in range(WINDOW - 1):
            self.step(noisy=True)
            assert not any(self.quarantined().values())
        self.step(noisy=True)
        assert all(self.quarantined().values())

    def release_intervals(self, limit: int):
        """Calm intervals until every node is released; returns each
        node's interval count at release."""
        released = {}
        for _ in range(limit):
            self.step(noisy=False)
            for nid, q in self.quarantined().items():
                if not q and nid not in released:
                    released[nid] = self.tick
        assert set(released) == set(NODES), "a node was never released"
        return released


def test_release_after_probation_once_the_window_is_calm(model, envelope):
    driver = _Driver(model, envelope, seed=7)
    driver.latch()
    latched_at = driver.tick
    released = driver.release_intervals(limit=2 * PROBATION + WINDOW)
    # Three calm intervals bring a 5-interval window to 2/5 ≤ 0.4, well
    # inside the shortest probation, so each node is released exactly
    # when its probation elapses: after PROBATION + [0, PROBATION)
    # further intervals, and never before.
    for nid, at in released.items():
        assert latched_at + PROBATION <= at < latched_at + 2 * PROBATION, nid


def test_noisy_window_holds_the_node_past_its_probation(model, envelope):
    driver = _Driver(model, envelope, seed=7)
    driver.latch()
    for _ in range(2 * PROBATION):
        driver.step(noisy=True)
        assert all(driver.quarantined().values())
    # Probation has elapsed for every node; the window decides alone.
    noisy_until = driver.tick
    released = driver.release_intervals(limit=WINDOW)
    assert set(released.values()) == {noisy_until + 3}


def test_same_seed_releases_at_the_same_interval(model, envelope):
    def release_schedule(seed):
        driver = _Driver(model, envelope, seed=seed)
        driver.latch()
        return driver.release_intervals(limit=2 * PROBATION + WINDOW)

    first = release_schedule(7)
    assert release_schedule(7) == first
    # The draw spreads the nodes over the probation range, so eight
    # identical schedules from independent draws would be a fluke.
    assert len(set(first.values())) > 1
    assert release_schedule(8) != first


def test_released_nodes_re_enter_quarantine(model, envelope):
    """All eight released nodes drift again and are quarantined again,
    each with a fresh probation draw (keyed by its entry count), while
    every drift report still equals the serial estimator's."""
    fleet_run = _Driver(model, envelope, seed=7)
    fleet_run.latch()
    latched_at = fleet_run.tick
    first = fleet_run.release_intervals(limit=2 * PROBATION + WINDOW)
    entered = fleet_run.quarantine_entries(limit=WINDOW)
    second = fleet_run.release_intervals(limit=2 * PROBATION + WINDOW)
    for nid in NODES:
        assert first[nid] < entered[nid] < second[nid], nid
        assert entered[nid] + PROBATION <= second[nid] < entered[nid] + 2 * PROBATION
    assert {n: second[n] - entered[n] for n in NODES} != {
        n: first[n] - latched_at for n in NODES
    }
    serial = {nid: SerialEstimator(model, envelope=envelope, drift_window=WINDOW,
                                   drift_tolerance=0.4) for nid in NODES}
    for s in fleet_run.samples:
        serial[s.node_id].step(
            s.counter_deltas, interval_s=s.interval_s, voltage_v=s.voltage_v,
            frequency_mhz=s.frequency_mhz, time_s=s.time_s,
        )
    for nid in NODES:
        report = fleet_run.fleet.drift_report(nid)
        assert report.drift_detected
        assert report == serial[nid].drift_report(), nid


def test_noisy_and_calm_deltas_straddle_the_envelope(model, envelope):
    fleet = FleetEstimator(model, envelope=envelope, **KW)
    result = fleet.step_batch(make_batch(_samples(0, noisy=True), COUNTERS))
    assert all(
        "implausible-model-estimate" in result.estimate(i).flags
        for i in range(result.n_rows)
    )
    result = fleet.step_batch(make_batch(_samples(1, noisy=False), COUNTERS))
    assert np.all(result.source_model)
