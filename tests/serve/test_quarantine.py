"""Quarantine release: probation, the calm-window condition, and the
seeded probation draw.

A node whose drift latch fires enters quarantine for
``quarantine_probation`` intervals plus a draw in
``[0, quarantine_probation)`` seeded from ``(seed, node, entry)``.  It
is released only once that probation has elapsed *and* its drift window
is back under the tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.serve import FleetEstimator, NodeSample, make_batch

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

    def step(self, *, noisy: bool) -> None:
        self.fleet.step_batch(
            make_batch(_samples(self.tick, noisy=noisy), COUNTERS)
        )
        self.tick += 1

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


def test_noisy_and_calm_deltas_straddle_the_envelope(model, envelope):
    fleet = FleetEstimator(model, envelope=envelope, **KW)
    result = fleet.step_batch(make_batch(_samples(0, noisy=True), COUNTERS))
    assert all(
        "implausible-model-estimate" in result.estimate(i).flags
        for i in range(result.n_rows)
    )
    result = fleet.step_batch(make_batch(_samples(1, noisy=False), COUNTERS))
    assert np.all(result.source_model)
