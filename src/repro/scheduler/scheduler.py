"""The scheduler daemon: measure -> model -> assign -> apply.

Runs as a simulation process (the paper's daemon on Storm's nimbus).  Each
round it reads the executors' instantaneous metrics, computes the core
allocation k with the Jackson-network model, solves the CPU-to-executor
assignment (Algorithm 1, or the naive placement for the naive-EC
ablation), and applies the diff by growing/shrinking elastic executors.

Scheduling *wall-clock* time per round is measured for Table 3 — it is
the real cost of running our model + Algorithm 1 implementation, the one
quantity in this reproduction that is not virtual.
"""

from __future__ import annotations

import dataclasses
import time
import typing

from repro.cluster.node import Cluster
from repro.executors.elastic import ElasticExecutor
from repro.scheduler.allocation import ExecutorDemand, GreedyAllocator
from repro.scheduler.assignment import DEFAULT_PHI, AssignmentInput
from repro.scheduler.strategies import ReactiveStrategy, SchedulingStrategy
from repro.sim import Environment


@dataclasses.dataclass
class SchedulerRound:
    """Record of one scheduling round."""

    time: float
    wall_seconds: float
    total_target_cores: int
    expected_latency: float
    feasible: bool
    phi_used: float
    cores_added: int
    cores_removed: int
    strategy: str = "reactive"


class SchedulerReport:
    """Accumulated per-round records."""

    def __init__(self) -> None:
        self.rounds: typing.List[SchedulerRound] = []

    def record(self, entry: SchedulerRound) -> None:
        self.rounds.append(entry)

    @property
    def mean_wall_seconds(self) -> float:
        if not self.rounds:
            return 0.0
        return sum(r.wall_seconds for r in self.rounds) / len(self.rounds)

    @property
    def total_reassignments(self) -> int:
        return sum(r.cores_added + r.cores_removed for r in self.rounds)


class DynamicScheduler:
    """Global core scheduler over all elastic executors of a topology."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        executors: typing.Sequence[ElasticExecutor],
        interval: float = 1.0,
        latency_target: float = 0.05,
        phi: float = DEFAULT_PHI,
        reserved_by_node: typing.Optional[typing.Dict[int, int]] = None,
        demand_headroom: float = 1.2,
        strategy: typing.Optional[SchedulingStrategy] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if demand_headroom < 1.0:
            raise ValueError("demand_headroom must be >= 1.0")
        self.env = env
        self.cluster = cluster
        self.executors = list(executors)
        self.interval = interval
        self.allocator = GreedyAllocator(latency_target)
        self.phi = phi
        #: Round policy (docs/scheduling.md).
        self.strategy = strategy or ReactiveStrategy()
        #: Inflation on measured λ: the M/M/k model assumes perfectly
        #: balanced tasks, but the balancer only guarantees δ ≤ θ, so each
        #: executor needs ~θ× the model's capacity to keep its hottest
        #: task stable.
        self.demand_headroom = demand_headroom
        #: Cores pre-claimed on each node (e.g. by source instances) that
        #: the scheduler must not hand to executors.
        self.reserved_by_node = dict(reserved_by_node or {})
        self.report = SchedulerReport()
        #: Rounds an executor's target must stay below its holdings before
        #: a core is actually revoked — damps measurement-noise flapping.
        self.shrink_patience = 3
        #: Rounds after a congestion episode during which an executor's
        #: holdings are never shrunk.  Prevents the shrink → congestion →
        #: regrow oscillation when the model slightly underestimates the
        #: capacity an imbalanced executor needs.
        self.congestion_hold_rounds = 10
        self._below_target_rounds: typing.Dict[str, int] = {}
        self._last_congested_round: typing.Dict[str, int] = {}
        self._round = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("scheduler already started")
        self._running = True
        self.env.process(self._loop())

    @property
    def live_executors(self) -> typing.List[ElasticExecutor]:
        """Executors currently alive — crashed ones rejoin after restart."""
        return [e for e in self.executors if getattr(e, "alive", True)]

    def _loop(self) -> typing.Generator:
        while True:
            yield self.env.timeout(self.interval)
            yield from self.reschedule()

    # -- one scheduling round ----------------------------------------------

    def reschedule(self) -> typing.Generator:
        """Measure, model, assign, and apply.  Simulation process body."""
        # Solver wall-clock is a measurement side channel (reported, never
        # fed back into virtual time), so real time is safe here.
        wall_started = time.perf_counter()
        now = self.env.now
        self._round += 1
        bus = self.env.telemetry
        span = bus.begin_span("scheduler_round", source="scheduler",
                              round=self._round)
        try:
            live = self.live_executors
            strategy = self.strategy
            demands = []
            for executor in live:
                arrival = executor.metrics.arrival_rate(now) * self.demand_headroom
                service = executor.metrics.service_rate()
                if executor.is_congested():
                    self._last_congested_round[executor.name] = self._round
                    # Backpressure caps the measured λ at current capacity;
                    # ask for headroom so admission (and the estimate) can grow.
                    arrival = max(arrival, executor.num_cores * service * 1.5)
                demands.append(
                    ExecutorDemand(
                        name=executor.name,
                        arrival_rate=arrival,
                        service_rate=service,
                    )
                )
            budget = self.cluster.cores.total_capacity - sum(
                self.reserved_by_node.values()
            )
            if strategy.needs_transition_slack:
                # From-scratch placement needs transition slack: a relocating
                # executor briefly holds its old core and its new one.
                budget = max(len(live), budget - 2)
            allocation = self.allocator.allocate(demands, total_cores=budget)
            targets = self._damp_shrinks(allocation.cores, budget)
            network = self.cluster.network
            inp = AssignmentInput(
                targets=targets,
                current={ex.name: ex.cores_by_node() for ex in live},
                local_node={ex.name: ex.local_node for ex in live},
                state_bytes={ex.name: float(ex.state_bytes()) for ex in live},
                data_rates={ex.name: ex.metrics.data_rate(now) for ex in live},
                node_capacity=self._capacity_less_reserved(),
                phi=self.phi,
                # Under a realism profile migration cost is priced in
                # expected seconds on the actual links (jitter mean,
                # asymmetric per-node bandwidth); the plain fabric keeps
                # the byte-cost model bit-identical to earlier builds.
                transfer_seconds=(
                    network.transfer_duration_estimate
                    if self.cluster.network_profile is not None
                    else None
                ),
            )
            matrix, phi_used = strategy.assign(inp)
            wall_seconds = time.perf_counter() - wall_started
            added, removed = self._diff(matrix)
            cores_added = sum(count for _, _, count in added)
            cores_removed = sum(count for _, _, count in removed)
            self.report.record(
                SchedulerRound(
                    time=now,
                    wall_seconds=wall_seconds,
                    total_target_cores=allocation.total_cores,
                    expected_latency=allocation.expected_latency,
                    feasible=allocation.feasible,
                    phi_used=phi_used,
                    cores_added=cores_added,
                    cores_removed=cores_removed,
                    strategy=strategy.name,
                )
            )
            span.mark("planned")
            yield from self._apply(added, removed)
            span.finish(
                status="ok",
                wall_seconds=wall_seconds,
                total_target_cores=allocation.total_cores,
                expected_latency=allocation.expected_latency,
                feasible=allocation.feasible,
                cores_added=cores_added,
                cores_removed=cores_removed,
                strategy=strategy.name,
            )
        finally:
            span.finish(status="aborted")

    def _damp_shrinks(
        self, raw_targets: typing.Dict[str, int], budget: int
    ) -> typing.Dict[str, int]:
        """Revoke cores only after ``shrink_patience`` consecutive rounds.

        λ measurements are noisy; without damping the scheduler would move
        cores back and forth every round, each move paying a reassignment.
        Growth is never delayed.  Damping is skipped when the cluster has
        no slack (someone needs the cores right now).
        """
        current_totals = {ex.name: ex.num_cores for ex in self.live_executors}
        if sum(raw_targets.values()) >= budget:
            self._below_target_rounds.clear()
            return raw_targets
        targets = dict(raw_targets)
        for name, target in raw_targets.items():
            current = current_totals.get(name, 0)
            if target < current:
                recently_congested = (
                    self._round - self._last_congested_round.get(name, -(10**9))
                    <= self.congestion_hold_rounds
                )
                seen = self._below_target_rounds.get(name, 0) + 1
                self._below_target_rounds[name] = seen
                if recently_congested or seen < self.shrink_patience:
                    targets[name] = current
            else:
                self._below_target_rounds[name] = 0
        # Damping must never push total demand past the budget: give back
        # the most-inflated holdings first until the plan fits.
        while sum(targets.values()) > budget:
            inflated = [
                name for name in targets if targets[name] > raw_targets[name]
            ]
            if not inflated:
                return raw_targets
            victim = max(inflated, key=lambda n: targets[n] - raw_targets[n])
            targets[victim] -= 1
        return targets

    def _capacity_less_reserved(self) -> typing.Dict[int, int]:
        """Node capacities with reserved (source/system) cores carved out.

        Read from the core ledger, not the static node specs, so crashed
        nodes (capacity 0) and lost cores disappear from the plan.
        """
        capacity = self.cluster.cores.capacity_by_node()
        for node_id, reserved in self.reserved_by_node.items():
            capacity[node_id] = max(0, capacity.get(node_id, 0) - reserved)
        return capacity

    def _diff(self, matrix):
        """Split the target matrix into add/remove operations."""
        added: typing.List[typing.Tuple[ElasticExecutor, int, int]] = []
        removed: typing.List[typing.Tuple[ElasticExecutor, int, int]] = []
        for executor in self.live_executors:
            current = executor.cores_by_node()
            target = matrix.get(executor.name, {})
            for node in sorted(set(current) | set(target)):
                delta = target.get(node, 0) - current.get(node, 0)
                if delta > 0:
                    added.append((executor, node, delta))
                elif delta < 0:
                    removed.append((executor, node, -delta))
        return added, removed

    def _apply(self, added, removed) -> typing.Generator:
        """Removals first (freeing cores), then additions; parallel per op.

        An executor whose cores all relocate (possible under the naive
        placement) must keep one task alive through the transition: its
        final removal is deferred until after its additions have landed.
        """
        removal_totals: typing.Dict[str, int] = {}
        for executor, _, count in removed:
            removal_totals[executor.name] = (
                removal_totals.get(executor.name, 0) + count
            )
        deferred = []
        adjusted_removals = []
        for executor, node, count in removed:
            if executor.num_cores - removal_totals[executor.name] < 1:
                removal_totals[executor.name] -= 1
                deferred.append((executor, node, 1))
                if count > 1:
                    adjusted_removals.append((executor, node, count - 1))
            else:
                adjusted_removals.append((executor, node, count))
        if adjusted_removals:
            procs = [
                self.env.process(self._remove(executor, node, count))
                for executor, node, count in adjusted_removals
            ]
            yield self.env.all_of(procs)
        # Additions run per executor, chained with that executor's deferred
        # removal, all executors in parallel.  Additions retry while other
        # executors' transitions free up their old slots.
        adds_by_executor: typing.Dict[str, list] = {}
        for executor, node, count in added:
            adds_by_executor.setdefault(executor.name, (executor, []))[1].append(
                (node, count)
            )
        deferred_by_executor: typing.Dict[str, list] = {}
        for executor, node, count in deferred:
            deferred_by_executor.setdefault(executor.name, (executor, []))[1].append(
                (node, count)
            )
        procs = []
        for name in set(adds_by_executor) | set(deferred_by_executor):
            executor = (
                adds_by_executor.get(name) or deferred_by_executor.get(name)
            )[0]
            adds = adds_by_executor.get(name, (None, []))[1]
            releases = deferred_by_executor.get(name, (None, []))[1]
            procs.append(
                self.env.process(self._transition(executor, adds, releases))
            )
        if procs:
            yield self.env.all_of(procs)

    def _remove(self, executor: ElasticExecutor, node: int, count: int):
        from repro.cluster.cores import CoreAllocationError

        for _ in range(count):
            try:
                yield from executor.remove_core(node)
            except ValueError:
                return  # a crash took the task (or the node) mid-plan
            try:
                self.cluster.cores.release(executor.name, node, 1)
            except CoreAllocationError:
                return  # node crashed: its holdings were already withdrawn

    def _transition(self, executor: ElasticExecutor, adds, releases):
        """Grow an executor, then release its kept-alive old cores.

        If the growth partially failed (contended slots), keep enough old
        cores to stay alive — the next round replans from reality.
        """
        for node, count in adds:
            yield from self._add(executor, node, count)
        for node, count in releases:
            on_node = executor.cores_by_node().get(node, 0)
            safe = min(count, on_node, executor.num_cores - 1)
            if safe > 0:
                yield from self._remove(executor, node, safe)

    def _add(self, executor: ElasticExecutor, node: int, count: int):
        from repro.cluster.cores import CoreAllocationError

        for _ in range(count):
            granted = False
            for _attempt in range(60):
                try:
                    self.cluster.cores.allocate(executor.name, node, 1)
                    granted = True
                    break
                except CoreAllocationError:
                    # Another executor's transition still holds the slot;
                    # wait for it to release.
                    yield self.env.timeout(0.05)
            if not granted:
                return  # give up this round; the next round replans
            yield from executor.add_core(node)
