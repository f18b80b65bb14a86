"""Model-based resource allocation (paper §4.1).

Greedy DRS-style allocation: initialize each executor at its minimum
stable core count ⌊λ_j/µ_j⌋+1, then repeatedly grant one more core to the
executor whose extra core decreases the modeled mean latency E[T] the
most, until E[T] ≤ T_max or the cluster runs out of cores.  The greedy
procedure is optimal for this objective [Fu et al., ICDCS'15].
"""

from __future__ import annotations

import dataclasses
import typing

from repro.scheduler.model import JacksonNetworkModel, MMKModel


@dataclasses.dataclass(frozen=True)
class ExecutorDemand:
    """Measured inputs of one executor for a scheduling round."""

    name: str
    arrival_rate: float  # λ_j, tuples/s
    service_rate: float  # µ_j, tuples/s per core

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"{self.name}: arrival rate must be >= 0")
        if self.service_rate <= 0:
            raise ValueError(f"{self.name}: service rate must be positive")


@dataclasses.dataclass
class Allocation:
    """Output of a scheduling round."""

    cores: typing.Dict[str, int]
    expected_latency: float
    feasible: bool  # whether E[T] <= T_max was reached

    @property
    def total_cores(self) -> int:
        return sum(self.cores.values())


class GreedyAllocator:
    """Derives per-executor core demands from the Jackson-network model."""

    def __init__(self, latency_target: float) -> None:
        if latency_target <= 0:
            raise ValueError(f"latency target must be positive, got {latency_target}")
        self.latency_target = latency_target

    def allocate(
        self,
        demands: typing.Sequence[ExecutorDemand],
        total_cores: int,
        source_rate: typing.Optional[float] = None,
    ) -> Allocation:
        """Compute k_j for each executor.

        ``source_rate`` is λ0; defaults to the max executor arrival rate
        (the stream enters through the most loaded source-facing operator).
        """
        if not demands:
            return Allocation(cores={}, expected_latency=0.0, feasible=True)
        if total_cores < len(demands):
            raise ValueError(
                f"{total_cores} cores cannot host {len(demands)} executors"
            )
        # ``if source_rate`` would also treat an explicit 0.0 (an idle
        # source) as "unset" and silently fall back to the max arrival
        # rate; only None means "derive it".
        if source_rate is None:
            lam0 = max(d.arrival_rate for d in demands)
        else:
            lam0 = source_rate
        lam0 = max(lam0, 1e-9)
        cores = {
            d.name: MMKModel.min_stable_cores(d.arrival_rate, d.service_rate)
            for d in demands
        }
        # The minimum stable demand may exceed the cluster; shed greedily
        # from the executors whose modelled latency suffers least (they run
        # overloaded either way — best effort, as a real scheduler must).
        while sum(cores.values()) > total_cores:
            shrinkable = [d for d in demands if cores[d.name] > 1]
            if not shrinkable:
                break
            victim = min(
                shrinkable,
                key=lambda d: d.arrival_rate / cores[d.name],
            )
            cores[victim.name] -= 1

        model = JacksonNetworkModel(lam0)
        arrival_rates = [d.arrival_rate for d in demands]
        service_rates = [d.service_rate for d in demands]

        def network_latency() -> float:
            return model.mean_latency(
                arrival_rates, service_rates, [cores[d.name] for d in demands]
            )

        latency = network_latency()
        while latency > self.latency_target and sum(cores.values()) < total_cores:
            best_demand = None
            best_latency = latency
            for d in demands:
                cores[d.name] += 1
                candidate = network_latency()
                cores[d.name] -= 1
                if candidate < best_latency - 1e-15:
                    best_latency = candidate
                    best_demand = d
            if best_demand is None:
                break
            cores[best_demand.name] += 1
            latency = best_latency
        return Allocation(
            cores=cores,
            expected_latency=latency,
            feasible=latency <= self.latency_target,
        )
