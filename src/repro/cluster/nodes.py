"""Simulated clusters: many nodes with manufacturing variation.

The paper's outlook: "Further investigation also includes the
adaptation of the model to a larger scale such that it can be applied
to peta- or exa-scale systems instead of individual nodes."

Real clusters are not N copies of one chip: process variation spreads
leakage and switching energy across sockets of the *same* SKU by
several percent, and every node carries its own sensor calibration.
:func:`build_cluster` materializes that: each node is a full
:class:`~repro.hardware.platform.Platform` whose power parameters are
drawn around the SKU nominals from the node-keyed random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hardware.config import HASWELL_EP_CONFIG, PlatformConfig
from repro.hardware.power import HASWELL_EP_POWER_PARAMS, PowerModelParams
from repro.hardware.platform import Platform
from repro.seeding import DEFAULT_SEED, derive_rng

__all__ = ["ClusterNode", "build_cluster", "NodeVariation"]


@dataclass(frozen=True)
class NodeVariation:
    """Relative sigmas of per-node manufacturing variation."""

    leakage_sigma: float = 0.06
    """Leakage spreads the most across dies of one SKU."""
    switching_sigma: float = 0.025
    """Dynamic energy per event varies mildly with process corner."""
    board_sigma: float = 0.05
    """Fans / VRs / DIMM population differences."""


@dataclass(frozen=True)
class ClusterNode:
    """One node: identity plus its personalized platform."""

    node_id: int
    hostname: str
    platform: Platform
    alive: bool = True
    """False when the node failed to respond during cluster discovery
    (hardware fault — see the cluster fault model in
    :mod:`repro.faults`)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "" if self.alive else " DEAD"
        return f"<ClusterNode {self.hostname}{state}>"


def _vary_params(
    base: PowerModelParams,
    rng: np.random.Generator,
    variation: NodeVariation,
) -> PowerModelParams:
    """Draw one node's power parameters around the SKU nominals."""
    def factor(sigma: float) -> float:
        return float(np.exp(rng.normal(0.0, sigma)))

    switch = factor(variation.switching_sigma)
    return replace(
        base,
        leakage_w_per_v=base.leakage_w_per_v * factor(variation.leakage_sigma),
        e_core_active=base.e_core_active * switch,
        e_uop=base.e_uop * switch,
        p_uncore_base=base.p_uncore_base * factor(variation.switching_sigma),
        p_board_const_w=base.p_board_const_w * factor(variation.board_sigma),
    )


def build_cluster(
    n_nodes: int,
    *,
    cfg: PlatformConfig = HASWELL_EP_CONFIG,
    base_params: PowerModelParams = HASWELL_EP_POWER_PARAMS,
    variation: Optional[NodeVariation] = None,
    seed: int = DEFAULT_SEED,
    hostname_prefix: str = "node",
    faults: Optional[FaultPlan] = None,
) -> List[ClusterNode]:
    """Materialize ``n_nodes`` simulated nodes of one SKU.

    Deterministic in ``seed``; node ``i`` always gets the same die.
    With a fault plan, each node is independently dead with
    ``dead_node_rate`` probability (drawn from the node-keyed fault
    stream, so which nodes die is also deterministic in the seed).
    """
    if n_nodes < 1:
        raise ValueError("a cluster needs at least one node")
    variation = variation or NodeVariation()
    injector = (
        FaultInjector(faults, seed) if faults is not None else None
    )
    nodes = []
    for i in range(n_nodes):
        rng = derive_rng(seed, "cluster-node", i)
        params = _vary_params(base_params, rng, variation)
        platform = Platform(
            cfg, params, seed=int(derive_rng(seed, "node-seed", i).integers(2**31))
        )
        alive = injector is None or not injector.node_is_dead(i)
        nodes.append(
            ClusterNode(
                node_id=i,
                hostname=f"{hostname_prefix}{i:03d}",
                platform=platform,
                alive=alive,
            )
        )
    return nodes
