"""Bit-identity of the fleet kernel against the serial oracle.

The contract under test is absolute: for any ingestion stream —
including one mangled by seeded fault injection — ``step_batch`` must
produce byte-for-byte the same estimates, flags, warnings, breaker
transitions and drift decisions as feeding each node's samples one at
a time through its own serial estimator, the oracle kept in
``tests/oracles/online.py``.  Equality is ``==`` on floats, not approx.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.online import PowerEnvelope
from repro.faults import IngestFaultInjector, IngestFaultPlan
from repro.serve import FleetEstimator, SchemaValidator, make_batch
from tests.oracles.ingest import row_sample
from tests.oracles.online import OnlineEstimator as SerialEstimator

from .conftest import COUNTERS, make_fleet_samples

ESTIMATOR_KW = dict(
    smoothing=0.5,
    breaker_threshold=2,
    recovery_threshold=2,
    drift_window=5,
    drift_tolerance=0.4,
)


def run_identity_stream(
    model, envelope, *, n_nodes, n_ticks, plan, fault_seed, data_seed=7
):
    """Drive fleet and serial estimators over the same faulty stream
    and assert every per-row estimate and final report matches."""
    rng = np.random.default_rng(data_seed)
    node_ids = [f"node-{i:03d}" for i in range(n_nodes)]
    injector = IngestFaultInjector(plan, fault_seed)
    validator = SchemaValidator()
    kw = dict(envelope=envelope, **ESTIMATOR_KW)
    serial = {nid: SerialEstimator(model, **kw) for nid in node_ids}
    fleet = FleetEstimator(model, **kw)

    produced = 0
    for tick in range(n_ticks):
        submitted = injector.corrupt(
            make_fleet_samples(node_ids, tick, rng), tick
        )
        batch = validator.pack(submitted, COUNTERS)
        result = fleet.step_batch(batch)
        for i in range(batch.n_rows):
            sample = row_sample(batch, i)
            est_serial = serial[sample.node_id].step(
                sample.counter_deltas,
                interval_s=sample.interval_s,
                voltage_v=sample.voltage_v,
                frequency_mhz=sample.frequency_mhz,
                time_s=sample.time_s,
            )
            est_fleet = result.estimate(i)
            assert (est_serial is None) == (est_fleet is None)
            if est_serial is None:
                continue
            produced += 1
            for attr in ("power_w", "smoothed_w", "time_s"):
                a = float(getattr(est_serial, attr))
                b = float(getattr(est_fleet, attr))
                assert a == b or (np.isnan(a) and np.isnan(b)), (
                    tick, i, attr, a, b,
                )
            assert est_serial.source == est_fleet.source
            assert tuple(est_serial.flags) == tuple(est_fleet.flags)

    for nid in node_ids:
        assert serial[nid].drift_report() == fleet.drift_report(nid), nid
    return produced


class TestFleetIdentity:
    def test_clean_stream_is_identical(self, model, envelope):
        produced = run_identity_stream(
            model,
            envelope,
            n_nodes=16,
            n_ticks=12,
            plan=IngestFaultPlan(),
            fault_seed=0,
        )
        assert produced == 16 * 12

    @pytest.mark.parametrize("fault_seed", [0, 1, 20170529])
    def test_chaos_stream_is_identical(self, model, envelope, fault_seed):
        """Drift latching, breaker trips, baseline fallback and
        degraded-counter flags must all fire identically under every
        fault seed."""
        plan = IngestFaultPlan.chaos(
            0.5, faulty_node_fraction=0.4, fault_seed=fault_seed
        )
        produced = run_identity_stream(
            model,
            envelope,
            n_nodes=24,
            n_ticks=20,
            plan=plan,
            fault_seed=fault_seed,
        )
        # The chaos plan drops/mangles rows but most survive.
        assert produced > 24 * 20 // 2

    def test_everything_implausible_latches_drift_identically(self, model):
        """A too-tight envelope forces every model estimate implausible
        — the drift latch and quarantine path must match serially."""
        # The synthetic model's baseline alone is ~34-66 W for the
        # generated contexts, so a 20 W ceiling makes every model
        # estimate implausible.
        tight = PowerEnvelope(lo_w=5.0, hi_w=20.0)
        rng = np.random.default_rng(11)
        node_ids = [f"node-{i}" for i in range(8)]
        kw = dict(envelope=tight, **ESTIMATOR_KW)
        serial = {nid: SerialEstimator(model, **kw) for nid in node_ids}
        fleet = FleetEstimator(model, **kw)
        for tick in range(10):
            samples = make_fleet_samples(node_ids, tick, rng)
            batch = make_batch(samples, COUNTERS)
            result = fleet.step_batch(batch)
            for i in range(batch.n_rows):
                sample = row_sample(batch, i)
                est_serial = serial[sample.node_id].step(
                    sample.counter_deltas,
                    interval_s=sample.interval_s,
                    voltage_v=sample.voltage_v,
                    frequency_mhz=sample.frequency_mhz,
                    time_s=sample.time_s,
                )
                est_fleet = result.estimate(i)
                assert float(est_serial.power_w) == float(est_fleet.power_w)
                assert tuple(est_serial.flags) == tuple(est_fleet.flags)
        for nid in node_ids:
            report = fleet.drift_report(nid)
            assert report == serial[nid].drift_report()
            assert report.drift_detected
            assert fleet.is_quarantined(nid)

    def test_duplicate_nodes_in_one_batch_preserve_serial_order(
        self, model, envelope
    ):
        """Three samples for the same node in one batch must apply in
        row order, exactly like three serial step() calls."""
        rng = np.random.default_rng(5)
        kw = dict(envelope=envelope, **ESTIMATOR_KW)
        serial = SerialEstimator(model, **kw)
        fleet = FleetEstimator(model, **kw)
        samples = []
        for rep in range(3):
            samples.extend(make_fleet_samples(["dup"], rep, rng))
        batch = make_batch(samples, COUNTERS)
        result = fleet.step_batch(batch)
        for i in range(batch.n_rows):
            sample = row_sample(batch, i)
            est_serial = serial.step(
                sample.counter_deltas,
                interval_s=sample.interval_s,
                voltage_v=sample.voltage_v,
                frequency_mhz=sample.frequency_mhz,
                time_s=sample.time_s,
            )
            est_fleet = result.estimate(i)
            assert float(est_serial.smoothed_w) == float(est_fleet.smoothed_w)
        assert serial.drift_report() == fleet.drift_report("dup")

    def test_counter_mismatch_rejected(self, model, envelope):
        fleet = FleetEstimator(model, envelope=envelope)
        rng = np.random.default_rng(1)
        samples = make_fleet_samples(["a"], 0, rng)
        batch = make_batch(samples, ("instructions",))
        with pytest.raises(ValueError, match="counter"):
            fleet.step_batch(batch)

    def test_invalid_config_rejected_like_serial(self, model):
        """The kernel rejects every configuration the serial oracle
        rejects, with the same message."""
        bad = [
            dict(smoothing=0.0),
            dict(breaker_threshold=0),
            dict(recovery_threshold=0),
            dict(drift_window=0),
            dict(drift_tolerance=1.5),
        ]
        for kw in bad:
            with pytest.raises(ValueError) as serial_error:
                SerialEstimator(model, **kw)
            with pytest.raises(ValueError, match=re.escape(str(serial_error.value))):
                FleetEstimator(model, **kw)

    def test_state_roundtrip_through_fleet(self, model, envelope):
        """node_state()/load_node_state() must resume bit-identically,
        matching the serial oracle that never stopped."""
        rng = np.random.default_rng(9)
        node_ids = ["x", "y"]
        kw = dict(envelope=envelope, **ESTIMATOR_KW)
        fleet = FleetEstimator(model, **kw)
        serial = {nid: SerialEstimator(model, **kw) for nid in node_ids}
        for tick in range(6):
            samples = make_fleet_samples(node_ids, tick, rng)
            batch = make_batch(samples, COUNTERS)
            fleet.step_batch(batch)
            for i in range(batch.n_rows):
                s = row_sample(batch, i)
                serial[s.node_id].step(
                    s.counter_deltas,
                    interval_s=s.interval_s,
                    voltage_v=s.voltage_v,
                    frequency_mhz=s.frequency_mhz,
                    time_s=s.time_s,
                )
        resumed = FleetEstimator(model, **kw)
        for nid in node_ids:
            resumed.load_node_state(nid, fleet.node_state(nid))
        for tick in range(6, 12):
            samples = make_fleet_samples(node_ids, tick, rng)
            batch = make_batch(samples, COUNTERS)
            result = resumed.step_batch(batch)
            for i in range(batch.n_rows):
                s = row_sample(batch, i)
                est_serial = serial[s.node_id].step(
                    s.counter_deltas,
                    interval_s=s.interval_s,
                    voltage_v=s.voltage_v,
                    frequency_mhz=s.frequency_mhz,
                    time_s=s.time_s,
                )
                est_fleet = result.estimate(i)
                assert float(est_serial.power_w) == float(est_fleet.power_w)
                assert float(est_serial.smoothed_w) == float(
                    est_fleet.smoothed_w
                )
        for nid in node_ids:
            assert resumed.drift_report(nid) == serial[nid].drift_report()
