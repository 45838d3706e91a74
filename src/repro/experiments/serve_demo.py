"""``serve`` — fleet chaos soak: resilient estimation at fleet scale.

Not a paper figure: an evaluation of the serving layer's resilience
contract.  The paper-reference model (fit on the cached campaign) is
deployed as a :class:`~repro.serve.FleetService` over a simulated
fleet; at each CI fault seed a quarter of the nodes emit corrupted
telemetry (NaN/negative deltas, dead voltage rails, backwards
timestamps, duplicates, bursts) for the whole session.  The demo
verifies the blast radius: every *healthy* node's final drift report
must equal a single-node replay — an :class:`OnlineEstimator` fed
only that node's stream — so neither its neighbours' faults nor
batching, sharding or queueing changed its session, while the
degradation the faults caused is graded by the AU013 audit rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Tuple

import numpy as np

from repro.audit import audit_fleet
from repro.core import PowerModel
from repro.core.online import OnlineEstimator, PowerEnvelope
from repro.core.report import render_table
from repro.experiments.data import full_dataset, selected_counters
from repro.faults import IngestFaultInjector, IngestFaultPlan
from repro.seeding import DEFAULT_SEED
from repro.serve import FleetService, NodeSample

__all__ = ["ServeDemoResult", "run"]

#: Fault seeds matching the CI chaos matrix.
FAULT_SEEDS = (0, 1, 20170529)

N_NODES = 48
N_TICKS = 40
FAULTY_FRACTION = 0.25


@dataclass(frozen=True)
class SeedOutcome:
    fault_seed: int
    faulty_nodes: int
    dropped_malformed: int
    stateless_served: int
    quarantined: int
    healthy: int
    verdict: str
    healthy_replay_identical: bool


@dataclass(frozen=True)
class ServeDemoResult:
    """Per-fault-seed outcomes of the fleet chaos soak."""

    outcomes: Tuple[SeedOutcome, ...]

    @property
    def all_replay_identical(self) -> bool:
        return all(o.healthy_replay_identical for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "outcomes": [asdict(o) for o in self.outcomes],
            "all_replay_identical": self.all_replay_identical,
        }

    def render(self) -> str:
        rows = [
            (
                str(o.fault_seed),
                f"{o.faulty_nodes}/{N_NODES}",
                str(o.dropped_malformed),
                str(o.stateless_served),
                str(o.quarantined),
                str(o.healthy),
                o.verdict,
                "yes" if o.healthy_replay_identical else "NO",
            )
            for o in self.outcomes
        ]
        table = render_table(
            (
                "fault seed",
                "faulty",
                "dropped",
                "stateless",
                "quarantined",
                "healthy",
                "audit",
                "replay",
            ),
            rows,
            title=(
                f"serve: {N_NODES}-node fleet, {N_TICKS} ticks of chaos "
                f"ingestion"
            ),
        )
        verdict = (
            "every healthy node matches its single-node replay"
            if self.all_replay_identical
            else "MISMATCH: a healthy node diverged from its single-node replay"
        )
        return f"{table}\n{verdict}\n"


def _node_stream(node_ids, tick, rng, counters):
    return [
        NodeSample(
            node_id=nid,
            counter_deltas={
                c: float(rng.uniform(0.0, 2e7)) for c in counters
            },
            interval_s=0.5,
            voltage_v=float(rng.uniform(0.9, 1.2)),
            frequency_mhz=float(rng.uniform(1200.0, 2600.0)),
            time_s=0.5 * (tick + 1),
        )
        for nid in node_ids
    ]


def run(seed: int = DEFAULT_SEED) -> ServeDemoResult:
    dataset = full_dataset(seed=seed)
    counters = selected_counters(seed=seed)
    model = PowerModel(counters).fit(dataset)
    envelope = PowerEnvelope.from_dataset(dataset)
    node_ids = [f"node-{i:03d}" for i in range(N_NODES)]
    estimator_kw = dict(
        smoothing=0.5,
        envelope=envelope,
        breaker_threshold=3,
        recovery_threshold=2,
        drift_window=20,
        drift_tolerance=0.5,
    )

    outcomes: List[SeedOutcome] = []
    for fault_seed in FAULT_SEEDS:
        plan = IngestFaultPlan.chaos(
            0.6, faulty_node_fraction=FAULTY_FRACTION, fault_seed=fault_seed
        )
        injector = IngestFaultInjector(plan, seed)
        faulty = {n for n in node_ids if injector.node_faulty(n)}
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=8,
            queue_capacity=8 * N_NODES,
            seed=seed,
        )
        reference = {
            n: OnlineEstimator(model, **estimator_kw)
            for n in node_ids
            if n not in faulty
        }
        rng = np.random.default_rng(seed)
        for tick in range(N_TICKS):
            corrupted = injector.corrupt(
                _node_stream(node_ids, tick, rng, counters), tick
            )
            for sample in corrupted:
                if (
                    isinstance(sample, NodeSample)
                    and sample.node_id in reference
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

        identical = all(
            service.fleet.drift_report(n) == reference[n].drift_report()
            for n in reference
        )
        report = service.report()
        outcomes.append(
            SeedOutcome(
                fault_seed=fault_seed,
                faulty_nodes=len(faulty),
                dropped_malformed=report.dropped_malformed,
                stateless_served=report.stateless_served,
                quarantined=report.quarantined_nodes,
                healthy=report.healthy_nodes,
                verdict=audit_fleet(report).verdict,
                healthy_replay_identical=identical,
            )
        )
    return ServeDemoResult(outcomes=tuple(outcomes))
