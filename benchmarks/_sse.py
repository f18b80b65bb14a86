"""Shared SSE experiment setup for Figure 16 and Tables 2-3."""

from __future__ import annotations

from repro import Paradigm
from repro.sweep import TrialConfig

from _config import SCALE


def sse_trial(
    paradigm: Paradigm,
    rate: float = 25_000.0,
    num_nodes: int = 8,
    cores_per_node: int = 6,
    source_instances: int = 4,
    duration: float = 60.0,
    warmup: float = 25.0,
    seed: int = 7,
) -> TrialConfig:
    """One SSE trial; run it with ``repro.sweep.run_trial`` or as one
    cell of a sweep."""
    if SCALE == "paper":
        num_nodes, cores_per_node, source_instances = 32, 8, 16
        rate *= 4
    return TrialConfig(
        workload="sse",
        paradigm=paradigm.value,
        rate=rate,
        omega=0.0,  # SSE has no key shuffles
        seed=seed,
        duration=duration,
        warmup=warmup,
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        source_instances=source_instances,
        # One transactor executor per node, analytics executors scaled to
        # the cluster (the topology must fit the core budget at every size).
        executors_per_operator=num_nodes,
        shards_per_executor=32,
        num_keys=2000,  # stocks
        # Popularity kept flat enough that no single stock exceeds one
        # core's capacity at the largest driven rate (per-key load cannot
        # be split across tasks — the same granularity limit the real SSE
        # trace obeys).
        skew=0.5,
        cost_ms=0.5,  # per order
        batch_size=10,
        workload_args={"burst_magnitude": 4.0},
        topology_args={"analytics_executors": max(1, num_nodes // 4)},
        # A well-tuned static deployment gives the transactor (the heavy
        # operator) about half the cluster.
        system_args={"static_weights": {"transactor": 10.0}},
    )
