"""Chaos soak of the full fleet service.

These tests drive ``FleetService`` end to end — middleware, queue,
sharded stepping, circuit breakers, snapshot worker, restore — under
seeded ingestion faults and deliberate corruption, and assert the
resilience contract: no escaping exception, blast radius bounded to
the faulty shard/nodes, healthy nodes bit-identical to the serial
oracle (``tests/oracles/online.py``) fed their streams, and degradation
graded by the AU013 audit rule.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.audit import audit_fleet
from repro.core.online import PowerEnvelope
from repro.faults import IngestFaultInjector, IngestFaultPlan
from repro.serve import FleetService, NodeSample, SchemaValidator
from tests.oracles.online import OnlineEstimator as SerialEstimator

from .conftest import COUNTERS, make_fleet_samples


NODES = [f"node-{i:02d}" for i in range(24)]


def drive(service, ticks, *, injector=None, rng_seed=3, node_ids=NODES):
    """Submit one well-formed sample per node per tick and process."""
    rng = np.random.default_rng(rng_seed)
    for tick in range(ticks):
        samples = make_fleet_samples(node_ids, tick, rng)
        if injector is not None:
            samples = injector.corrupt(samples, tick)
        service.submit(samples)
        service.process()


class TestServiceSoak:
    def test_chaos_soak_never_raises_and_isolates_faulty_nodes(
        self, model, envelope
    ):
        """≥10% faulty nodes for 30 ticks: the service keeps serving,
        and every healthy node's final state is bit-identical to the
        serial oracle fed the same samples."""
        plan = IngestFaultPlan.chaos(
            0.6, faulty_node_fraction=0.25, fault_seed=2
        )
        injector = IngestFaultInjector(plan, 77)
        faulty = {n for n in NODES if injector.node_faulty(n)}
        assert len(faulty) >= len(NODES) // 10

        service = FleetService(
            model, envelope=envelope, n_shards=4, queue_capacity=4096, seed=7
        )
        kw = dict(
            smoothing=0.5,
            envelope=envelope,
            breaker_threshold=3,
            recovery_threshold=2,
            drift_window=20,
            drift_tolerance=0.5,
        )
        reference = {n: SerialEstimator(model, **kw) for n in NODES}

        rng = np.random.default_rng(3)
        for tick in range(30):
            clean = make_fleet_samples(NODES, tick, rng)
            corrupted = injector.corrupt(clean, tick)
            # Burst faults replay the whole tick, healthy nodes
            # included, so the oracle consumes the same
            # post-injection stream the service sees.
            for sample in corrupted:
                if (
                    isinstance(sample, NodeSample)
                    and sample.node_id not in faulty
                ):
                    reference[sample.node_id].step(
                        sample.counter_deltas,
                        interval_s=sample.interval_s,
                        voltage_v=sample.voltage_v,
                        frequency_mhz=sample.frequency_mhz,
                        time_s=sample.time_s,
                    )
            service.submit(corrupted)
            service.process()

        for node in NODES:
            if node in faulty:
                continue
            assert (
                service.fleet.drift_report(node)
                == reference[node].drift_report()
            ), node
            assert (
                service.fleet.node_state(node) == reference[node].state_dict()
            ), node

        report = service.report()
        assert report.n_nodes == len(NODES)
        assert report.healthy_nodes >= len(NODES) - len(faulty)
        # The audit layer grades whatever degradation the chaos caused.
        assert audit_fleet(report).verdict in (
            "pass", "minor", "major", "fail",
        )

    def test_corrupt_shard_at_restore_resets_only_its_nodes(
        self, model, envelope, tmp_path
    ):
        """Kill one snapshot shard between runs: its nodes restart
        from the baseline, every other node resumes where it left off,
        and restore reads at most the dirty shards."""
        make = lambda: FleetService(
            model,
            envelope=envelope,
            n_shards=4,
            queue_capacity=4096,
            snapshot_dir=str(tmp_path),
            snapshot_every_ticks=2,
            seed=7,
        )
        first = make()
        drive(first, 10)
        first.snapshot()
        states = {n: first.fleet.node_state(n) for n in NODES}

        victim = sorted(tmp_path.glob("shard_*.npz"))[0]
        victim.write_bytes(b"garbage, not a zip archive")

        second = make()
        drive(second, 2, rng_seed=11)

        lost = [n for n in NODES if second.store.shard_of(n) == 0]
        kept = [n for n in NODES if second.store.shard_of(n) != 0]
        assert lost and kept
        for node in lost:
            assert second.fleet.node_state(node)["seen"] == 2
        for node in kept:
            assert (
                second.fleet.node_state(node)["seen"]
                == states[node]["seen"] + 2
            )
        assert second.restored_nodes == len(kept)
        dirty = {second.store.shard_of(n) for n in NODES}
        assert second.store.shard_reads <= len(dirty)
        assert any(
            e["kind"] == "corrupt-shard-discarded"
            for e in second.store.events()
        )

    def test_tampered_state_is_discarded_not_raised(
        self, model, envelope, tmp_path
    ):
        """Snapshots that are well-formed JSON but not a valid state
        (an infinite tally, a list EWMA, a string or NaN timestamp)
        are counted in ``discarded_states``; their nodes start fresh
        and ``process()`` never raises."""
        make = lambda: FleetService(
            model,
            envelope=envelope,
            n_shards=4,
            queue_capacity=4096,
            snapshot_dir=str(tmp_path),
            seed=7,
        )
        first = make()
        drive(first, 3)
        first.snapshot()
        tampered = {
            NODES[0]: {"n_intervals": float("inf")},
            NODES[1]: {"smoothed": [1.0]},
            NODES[2]: {"last_time": "abc"},
            NODES[3]: {"last_time": float("nan")},
        }
        first.store.store_many(
            {
                node: {**first.fleet.node_state(node), **change}
                for node, change in tampered.items()
            }
        )

        second = make()
        drive(second, 1, rng_seed=11)
        assert second.discarded_states == len(tampered)
        assert second.restored_nodes == len(NODES) - len(tampered)
        for node in NODES:
            expected = 1 if node in tampered else 4
            assert second.fleet.node_state(node)["seen"] == expected

    @pytest.mark.parametrize("with_envelope", [True, False])
    def test_stateless_answers_match_scalar_baseline(
        self, model, envelope, with_envelope
    ):
        """Diverted samples get the oracle's scalar baseline with the
        clip and zero rules, bit for bit — non-finite and non-positive
        operating points included."""
        env = envelope if with_envelope else None
        service = FleetService(
            model,
            envelope=env,
            n_shards=2,
            queue_capacity=1,
            policy="degrade-to-baseline",
            seed=7,
        )
        rng = np.random.default_rng(13)
        samples = make_fleet_samples(NODES, 0, rng)
        odd = [
            (float("nan"), 2000.0), (float("inf"), 2000.0),
            (1.0, float("-inf")), (-1.0, 2400.0), (1.0, 0.0), (40.0, 3e4),
        ]
        samples += [
            NodeSample("odd", {}, 0.5, v, f, None) for v, f in odd
        ]
        answers = service.submit(samples)
        oracle = SerialEstimator(model)
        expected = []
        for sample in samples[1:]:
            power_w = oracle.baseline_power(
                voltage_v=sample.voltage_v, frequency_mhz=sample.frequency_mhz
            )
            if env is not None:
                power_w = env.clip(float(power_w))
            elif not np.isfinite(power_w):
                power_w = 0.0
            expected.append((sample.node_id, float(power_w)))
        assert answers == tuple(expected)
        assert all(type(p) is float for _, p in answers)

    def test_shard_breaker_diverts_to_stateless_baseline(
        self, model, envelope
    ):
        """A shard whose step keeps failing trips its breaker; its
        nodes get stateless baseline answers, other shards never
        notice, and the breaker closes once the fault clears."""
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=4,
            queue_capacity=4096,
            shard_breaker_threshold=2,
            shard_breaker_cooldown=3,
            seed=7,
        )
        bad_shard = service.shard_of(NODES[0])
        faulty_ticks = set(range(1, 7))

        def hook(shard, rows):
            if shard == bad_shard and service.ticks in faulty_ticks:
                raise RuntimeError("injected shard fault")

        service._step_hook = hook
        rng = np.random.default_rng(3)
        outcomes = []
        for tick in range(14):
            service.submit(make_fleet_samples(NODES, tick, rng))
            outcomes.append(service.process())

        breaker = service.breakers[bad_shard]
        assert breaker.state == "closed"
        assert breaker.trips >= 1
        assert breaker.refused >= 1
        assert any(o.stateless for o in outcomes)

        in_bad = [n for n in NODES if service.shard_of(n) == bad_shard]
        out_bad = [n for n in NODES if service.shard_of(n) != bad_shard]
        assert in_bad
        for node in out_bad:
            assert service.fleet.node_state(node)["n_intervals"] == 14
        for node in in_bad:
            assert service.fleet.node_state(node)["n_intervals"] < 14

        report = service.report()
        assert report.shards[bad_shard].breaker_trips >= 1
        assert report.stateless_served > 0

    def test_degrade_policy_survives_burst_within_capacity(
        self, model, envelope
    ):
        """A 2x burst against a tight queue: depth never exceeds the
        cap, overflow is answered statelessly, estimator state for the
        queued samples is untouched."""
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=2,
            queue_capacity=len(NODES),
            policy="degrade-to-baseline",
            seed=7,
        )
        rng = np.random.default_rng(5)
        burst = make_fleet_samples(NODES, 0, rng) + make_fleet_samples(
            NODES, 1, rng
        )
        answers = service.submit(burst)
        assert len(answers) == len(NODES)
        for _node, power_w in answers:
            assert envelope.lo_w <= power_w <= envelope.hi_w
        stats = service.queue.stats()
        assert stats.max_depth <= stats.capacity
        assert stats.diverted == len(NODES)
        service.process()
        report = service.report()
        assert report.queue.diverted == len(NODES)
        assert report.stateless_served == len(NODES)

    def test_shed_oldest_counts_every_burst_overflow(self, model, envelope):
        """A 2x burst under ``shed-oldest``: the queue sheds the
        overflow, counts every shed sample and never grows past its
        cap."""
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=2,
            queue_capacity=len(NODES),
            policy="shed-oldest",
            seed=7,
        )
        rng = np.random.default_rng(5)
        burst = make_fleet_samples(NODES, 0, rng) + make_fleet_samples(
            NODES, 1, rng
        )
        service.submit(burst)
        service.process()
        stats = service.queue.stats()
        assert stats.max_depth <= stats.capacity
        assert stats.shed == len(burst) - len(NODES)

    def test_malformed_submissions_dropped_and_counted(
        self, model, envelope
    ):
        service = FleetService(model, envelope=envelope, seed=7)
        rng = np.random.default_rng(9)
        good = make_fleet_samples(NODES[:4], 0, rng)
        service.submit(good + ["not-a-sample", None, 42])
        service.process()
        report = service.report()
        assert report.dropped_malformed == 3
        assert report.n_nodes == 4

    def test_non_numeric_delta_dropped_without_failing_its_shard(
        self, model, envelope
    ):
        """One sample per tick whose delta ``float()`` rejects: it is
        dropped and counted, its shard's healthy rows are stepped and no
        breaker trips, tick after tick."""
        service = FleetService(model, envelope=envelope, n_shards=2, seed=7)
        rng = np.random.default_rng(9)
        ticks = 4
        for tick in range(ticks):
            samples = make_fleet_samples(NODES, tick, rng)
            samples[0] = replace(
                samples[0],
                counter_deltas={**samples[0].counter_deltas, "instructions": "abc"},
            )
            service.submit(samples)
            service.process()
        for node in NODES[1:]:
            assert service.fleet.node_state(node)["n_intervals"] == ticks
        assert all(b.state == "closed" and b.trips == 0 for b in service.breakers)
        assert service.validator.dropped == {"non-numeric-delta": ticks}
        report = service.report()
        assert report.dropped_malformed == ticks
        assert report.stateless_served == 0

    def test_oversized_int_dropped_not_raised(self, model, envelope):
        """An int past the float range in a delta, the context or the
        timestamp is a counted drop; the rest of the submission lands."""
        service = FleetService(model, envelope=envelope, seed=7)
        rng = np.random.default_rng(9)
        good = make_fleet_samples(NODES[:4], 0, rng)
        huge = 10**400
        service.submit(good + [
            replace(good[0], node_id="x-delta", counter_deltas={"branches": huge}),
            replace(good[0], node_id="x-interval", interval_s=huge),
            replace(good[0], node_id="x-time", time_s=huge),
        ])
        service.process()
        assert service.validator.dropped == {
            "non-numeric-delta": 1,
            "non-numeric-context": 1,
            "bad-timestamp": 1,
        }
        assert service.report().n_nodes == 4

    def test_nan_and_missing_deltas_pass_unchanged(self):
        """Judging delta values is the estimator's job: NaN and None
        deltas are well-formed and pass the validator untouched."""
        sample = NodeSample(
            node_id="n",
            counter_deltas={"instructions": float("nan"), "branches": None},
            interval_s=0.5,
            voltage_v=1.0,
            frequency_mhz=2400.0,
        )
        validator = SchemaValidator()
        batch = validator.pack([sample], COUNTERS)
        assert validator.dropped == {}
        assert batch.node_ids == ("n",)
        assert np.isnan(batch.deltas[0]).tolist() == [True, True, True]
        assert batch.present[0].tolist() == [True, False, False]

    def test_audit_grades_forced_degradation(self, model):
        """Drive every node implausible (tight envelope) and check the
        roll-up fails the audit once nothing healthy remains."""
        service = FleetService(
            model,
            envelope=PowerEnvelope(lo_w=5.0, hi_w=20.0),
            n_shards=2,
            drift_window=5,
            drift_tolerance=0.4,
            seed=7,
        )
        drive(service, 10)
        report = service.report()
        assert report.quarantined_nodes == len(NODES)
        assert report.healthy_nodes == 0
        audit = audit_fleet(report)
        assert audit.verdict == "fail"
        assert any(f.rule_id == "AU013" for f in audit.findings)
