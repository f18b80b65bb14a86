"""Dead-letter accounting and the fault-recovery coordinator.

Two pieces live here:

- :class:`DeadLetterReaper` — the accounting sink for work that dies with
  crashed hardware.  Every kill path (task queues, input queues, pause
  buffers, in-flight network deliveries landing in a dead queue) funnels
  through one reaper so conservation stays exact: every admitted tuple is
  either processed or counted lost, never silently dropped.
- :class:`FaultCoordinator` — translates :class:`~repro.faults.spec.FaultEvent`
  occurrences into cluster/executor actions and drives the matching
  recovery protocol; node crashes and core failures share one repair
  path (:meth:`FaultCoordinator._recover`).  The executor-centric
  paradigms recover locally
  (re-home orphaned shards onto surviving tasks, or restart the executor
  process elsewhere); the RC baseline pays its operator-level global
  synchronization even for a single dead core; the static paradigm
  additionally pays a full process-restart penalty because it has no
  elasticity machinery to absorb the loss.

Everything is pure virtual time: failures destroy work *immediately*
(the hardware is gone), while recovery starts only after the configured
detection delay — that window is where losses accumulate.
"""

from __future__ import annotations

import typing

from repro.cluster.cores import CoreAllocationError
from repro.executors.config import REMOTE_PROCESS_SPAWN_SECONDS
from repro.faults.spec import FaultEvent, FaultKind
from repro.topology.batch import LabelTuple, TupleBatch

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.recovery import RecoveryStats
    from repro.sim import Environment, Store

#: Core-ledger owner of the reserved source cores (mirrors
#: ``repro.runtime.system.SOURCE_OWNER``; duplicated to avoid an import
#: cycle — the runtime builds the coordinator, not the reverse).
SOURCE_OWNER = "__sources__"


class DeadLetterReaper:
    """Accounts for items that died with crashed hardware.

    ``on_lost`` (if given) is invoked once per *uncommitted* lost
    :class:`TupleBatch` — the hook the operator-level in-flight ledgers
    use to forget tuples that will never drain, so global-sync protocols
    don't wait forever on the dead.  Batches accounted with
    ``committed=True`` were already settled in those ledgers (e.g. a dead
    emitter queue: processing completed, only the emission is lost) and
    must not be forgotten twice.

    :class:`LabelTuple` markers have their drain event succeeded so an
    in-flight reassignment blocked on a dead queue unblocks instead of
    deadlocking.  Stop sentinels and anything else carry no payload.
    """

    def __init__(
        self,
        env: "Environment",
        stats: "RecoveryStats",
        on_lost: typing.Optional[typing.Callable[[TupleBatch], None]] = None,
    ) -> None:
        self.env = env
        self.stats = stats
        self.on_lost = on_lost

    def account(self, item: typing.Any, committed: bool = False) -> None:
        if isinstance(item, TupleBatch):
            self.stats.tuples_lost.add(item.count)
            self.stats.batches_lost.add(1)
            if not committed and self.on_lost is not None:
                self.on_lost(item)
        elif isinstance(item, LabelTuple):
            if not item.event.triggered:
                item.event.succeed()

    def watch(self, store: "Store", committed: bool = False) -> None:
        """Perpetually dead-letter everything delivered into ``store``.

        Used on queues whose consumer died: network deliveries already in
        flight still land there, and each one must be counted lost.
        """
        self.env.process(self._watch_loop(store, committed))

    def _watch_loop(self, store: "Store", committed: bool) -> typing.Generator:
        while True:
            item = yield store.get()
            self.account(item, committed=committed)


class FaultCoordinator:
    """Applies fault events to a :class:`~repro.runtime.system.StreamSystem`.

    Destruction is immediate and lock-free (crashed hardware does not
    wait for protocol locks); recovery starts after ``detection_delay``
    simulated seconds and runs through the paradigm's own machinery.
    """

    #: Core-acquisition retry schedule for executor restarts.
    RESTART_ATTEMPTS = 40
    RESTART_RETRY_SECONDS = 0.25

    def __init__(self, system: typing.Any, stats: "RecoveryStats") -> None:
        self.system = system
        self.env = system.env
        self.stats = stats
        config = system.config
        self.detection_delay = float(getattr(config, "detection_delay", 0.25))
        self.rebuild_rate = float(
            getattr(config, "state_rebuild_bytes_per_s", 100e6)
        )
        self.static_restart_seconds = float(
            getattr(config, "static_restart_seconds", 5.0)
        )
        self._reapers: typing.Dict[int, DeadLetterReaper] = {}

    def _event(self, kind: str, detail: str) -> None:
        """Record to recovery stats and mirror onto the telemetry bus."""
        self.stats.record_event(self.env.now, kind, detail)
        self.env.telemetry.emit(
            "fault_event", source="faults", event=kind, detail=detail
        )

    # -- dispatch ----------------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Start the handler process for one fault event (non-blocking)."""
        if event.kind is FaultKind.NODE_CRASH:
            self.env.process(self._node_crash(event))
        elif event.kind is FaultKind.CORE_FAILURE:
            self.env.process(self._core_failure(event))
        elif event.kind is FaultKind.LINK_DEGRADE:
            self.env.process(self._link_degrade(event))
        elif event.kind is FaultKind.LATENCY_SPIKE:
            self.env.process(self._latency_spike(event))
        elif event.kind is FaultKind.PARTITION:
            self.env.process(self._partition(event))
        elif event.kind is FaultKind.EXECUTOR_STALL:
            self.env.process(self._executor_stall(event))
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ValueError(f"unhandled fault kind {event.kind!r}")

    # -- reapers -----------------------------------------------------------

    def _reaper_for(self, executor: typing.Any) -> DeadLetterReaper:
        """One reaper per executor, wired to its operator's in-flight ledger."""
        reaper = self._reapers.get(id(executor))
        if reaper is not None:
            return reaper
        counter = None
        manager = getattr(executor, "manager", None)
        if manager is not None:  # RC executor
            counter = manager.in_flight
        else:  # elastic/static; hybrid wires operator_in_flight
            counter = getattr(executor, "operator_in_flight", None)
        on_lost = None
        if counter is not None:
            on_lost = lambda item, c=counter: c.forget(1)  # noqa: E731
        reaper = DeadLetterReaper(self.env, self.stats, on_lost=on_lost)
        self._reapers[id(executor)] = reaper
        return reaper

    # -- node crash and core failure ---------------------------------------

    def _node_crash(self, event: FaultEvent) -> typing.Generator:
        node = event.node
        system = self.system
        cluster = system.cluster
        if not cluster.is_alive(node):
            return
        cluster.fail_node(node)
        self._event("node_crash", f"node={node}")
        # Every process on the node dies: the tasks it ran, and the main
        # process of each executor hosted there.
        victims = []
        for op_name in sorted(system.executors_by_operator):
            for executor in system.executors_by_operator[op_name]:
                if not getattr(executor, "alive", True):
                    continue
                if getattr(executor, "manager", None) is not None:  # RC
                    tasks = [executor.task] if executor.node_id == node else []
                else:
                    tasks = [t for t in executor.tasks.values() if t.node_id == node]
                if tasks or executor.local_node == node:
                    victims.append((executor, tasks))
        yield from self._recover("node_crash", f"node={node}", node, victims)

    def _core_failure(self, event: FaultEvent) -> typing.Generator:
        node = event.node
        system = self.system
        cluster = system.cluster
        if not cluster.is_alive(node):
            return
        owner = cluster.cores.fail_core(node)
        self._event("core_failure", f"node={node} owner={owner}")
        if owner is None:
            return  # a free core died; no running work was touched
        if owner == SOURCE_OWNER:
            # A reserved source core died: re-host one source instance.
            yield self.env.timeout(self.detection_delay)
            sources = [s for s in system.sources if s.node_id == node]
            if sources:
                self._relocate_one_source(
                    min(sources, key=lambda s: s.index), node
                )
            return

        executor = self._find_executor(owner)
        if executor is None:
            return  # owner is not a tracked executor (e.g. test scaffolding)
        # The task pinned to the dead core dies; its process lives on.
        if getattr(executor, "manager", None) is not None:
            tasks = [executor.task]  # RC: single-core executors die whole
        else:
            tasks = [t for t in executor.tasks.values() if t.node_id == node]
            if tasks:
                tasks = [min(
                    tasks,
                    key=lambda t: (len(executor.routing.shards_of(t)), t.task_id),
                )]
        yield from self._recover(
            "core_failure", f"node={node} executor={executor.name}", node,
            [(executor, tasks)] if tasks else [],
        )

    def _recover(
        self,
        fault: str,
        detail: str,
        node: int,
        victims: typing.Sequence[typing.Tuple[typing.Any, typing.List[typing.Any]]],
    ) -> typing.Generator:
        """The one repair path of node crashes and core failures.

        ``victims`` pairs each executor hit with its tasks that died.  A
        core failure kills tasks and leaves their processes, and so their
        state, alive; a crashed node also takes the state living on it,
        its executor main processes and its sources.  Each dead executor
        is repaired its paradigm's way: the survivors re-home its orphaned
        shards, or it restarts from scratch (its main process or every
        worker died), or — RC — its operator runs a global recovery.
        """
        system = self.system
        node_dead = not system.cluster.is_alive(node)
        span = self.env.telemetry.begin_span(
            "recovery", source="faults", fault=fault, detail=detail
        )
        try:
            if not victims and not node_dead:
                return  # the executor ran no task on the failed core
            # Destruction is immediate: the victims die now, and their
            # queued/in-flight work dead-letters with exact counters.
            rehomes: typing.List[typing.Tuple[typing.Any, typing.List[int]]] = []
            restarts: typing.List[typing.Tuple[typing.Any, int]] = []
            rc_dead: typing.Dict[typing.Any, typing.List[typing.Any]] = {}
            for executor, tasks in victims:
                reaper = self._reaper_for(executor)
                manager = getattr(executor, "manager", None)
                if manager is not None:
                    executor.crash(reaper)
                    rc_dead.setdefault(manager, []).append(executor)
                    continue
                prev_cores = max(1, len(executor.tasks))
                if not (node_dead and executor.local_node == node):
                    orphans = executor.crash_tasks(tasks, reaper)
                    if executor.tasks:
                        rehomes.append((executor, orphans))
                        continue
                # The main process died, or every worker did and nothing
                # is left to re-home onto: the executor restarts from
                # scratch.
                executor.crash_main(reaper)
                restarts.append((executor, prev_cores))
            span.mark("destroyed")

            yield self.env.timeout(self.detection_delay)
            span.mark("detected")

            if node_dead:
                # Sources are backed by a replayable input; they re-host
                # and catch up rather than lose tuples.
                self._relocate_sources(node)
            procs = []
            for executor, orphans in rehomes:
                procs.append(self.env.process(executor.rehome_orphans(
                    orphans, node, self.stats, self.rebuild_rate,
                    lose_state=node_dead,
                )))
            for executor, prev_cores in restarts:
                procs.append(self.env.process(self._restart_executor(
                    executor, target_cores=prev_cores, parent_span=span
                )))
            for manager, dead in rc_dead.items():
                procs.append(self.env.process(manager.recover_from_crash(
                    dead, self.stats, self.rebuild_rate, state_lost=node_dead,
                )))
            for proc in procs:
                if not proc.triggered:
                    yield proc
            if restarts and not rehomes and not rc_dead and not any(
                executor.alive for executor, _ in restarts
            ):
                # Every repair was a restart and none found capacity
                # anywhere: finish the span as stalled instead of claiming
                # a repair happened.  Losses keep counting; conservation
                # remains exact.
                if node_dead:
                    self._event("recovery_stalled", f"node={node}")
                span.finish(status="stalled", restarts=len(restarts))
                return
            span.mark("repaired")

            if node_dead:
                # Re-run global allocation over the surviving cores.
                if system.scheduler is not None:
                    yield from system.scheduler.reschedule()
                self._event("node_recovered", f"node={node}")
            span.finish(status="ok", rehomes=len(rehomes),
                        restarts=len(restarts), rc_operators=len(rc_dead))
        finally:
            # A kill mid-recovery lands here with the span still open.
            span.finish(status="aborted")

    # -- transient faults --------------------------------------------------

    def _link_degrade(self, event: FaultEvent) -> typing.Generator:
        network = self.system.cluster.network
        previous = network.bandwidth_factor(event.node)
        network.set_bandwidth_factor(event.node, event.factor)
        self._event("link_degrade",
            f"node={event.node} factor={event.factor}",
        )
        yield self.env.timeout(event.duration)
        network.set_bandwidth_factor(event.node, previous)
        self._event("link_restored", f"node={event.node}"
        )

    def _latency_spike(self, event: FaultEvent) -> typing.Generator:
        network = self.system.cluster.network
        previous = network.latency_spike(event.node)
        network.set_latency_spike(event.node, event.factor)
        self._event("latency_spike",
            f"node={event.node} factor={event.factor}",
        )
        yield self.env.timeout(event.duration)
        network.set_latency_spike(event.node, previous)
        self._event("latency_restored", f"node={event.node}"
        )

    def _partition(self, event: FaultEvent) -> typing.Generator:
        network = self.system.cluster.network
        network.partition_until(event.node, self.env.now + event.duration)
        self._event("partition",
            f"node={event.node} duration={event.duration}",
        )
        yield self.env.timeout(event.duration)
        self._event("partition_healed", f"node={event.node}"
        )

    def _executor_stall(self, event: FaultEvent) -> typing.Generator:
        executor = self._resolve_stall_target(event.target)
        if executor is None:
            self._event("stall_target_missing", f"target={event.target}"
            )
            return
        previous = executor.stall_factor
        executor.stall_factor = event.factor
        self._event("executor_stall",
            f"target={event.target} factor={event.factor}",
        )
        yield self.env.timeout(event.duration)
        executor.stall_factor = previous
        self._event("stall_cleared", f"target={event.target}"
        )

    def _resolve_stall_target(self, target: str) -> typing.Optional[typing.Any]:
        """``operator:index`` -> executor (gray failure victim)."""
        op_name, _, index_text = target.partition(":")
        executors = self.system.executors_by_operator.get(op_name)
        if not executors:
            return None
        try:
            index = int(index_text) if index_text else 0
        except ValueError:
            return None
        if not 0 <= index < len(executors):
            return None
        return executors[index]

    # -- helpers -----------------------------------------------------------

    def _find_executor(self, owner: typing.Any) -> typing.Optional[typing.Any]:
        for op_name in sorted(self.system.executors_by_operator):
            for executor in self.system.executors_by_operator[op_name]:
                if executor.name == owner:
                    return executor
        return None

    def _restart_executor(
        self,
        executor: typing.Any,
        target_cores: int = 1,
        parent_span: typing.Any = None,
    ) -> typing.Generator:
        """Acquire a replacement core and rebuild the executor there.

        ``target_cores`` is the executor's pre-crash core count: after the
        restart lands, the coordinator grows it back toward that size so
        the recovered key range is not served by a single core until the
        next scheduler round.  Static executors pay
        ``static_restart_seconds`` on top of the process-spawn delay: with
        no elasticity machinery, a restart is a full redeploy (paper §2's
        motivation for executor-level recovery).
        """
        from repro.executors.static import StaticExecutor

        owner = executor.name
        span = self.env.telemetry.begin_span(
            "executor_restart", source="faults", executor=owner,
            parent=parent_span,
        )
        try:
            node = None
            for _ in range(self.RESTART_ATTEMPTS):
                node = yield from self._acquire_core(executor)
                if node is not None:
                    break
                yield self.env.timeout(self.RESTART_RETRY_SECONDS)
            if node is None:
                # No capacity anywhere: the executor stays down, and its
                # losses keep counting — conservation remains exact.
                self._event("restart_stalled", f"executor={owner}")
                span.finish(status="stalled")
                return
            # Best-effort: bring back the pre-crash core count in the same
            # restart so the recovered key range is not a one-core hotspot.
            extras = []
            for _ in range(target_cores - 1):
                extra = yield from self._acquire_core(executor)
                if extra is None:
                    break
                extras.append(extra)
            spawn_delay = REMOTE_PROCESS_SPAWN_SECONDS
            if isinstance(executor, StaticExecutor):
                spawn_delay += self.static_restart_seconds
            landed = yield self.env.process(
                executor.restart_on_node(
                    node, self.stats, self.rebuild_rate, spawn_delay=spawn_delay,
                    extra_nodes=extras,
                )
            )
            if not landed:
                # The new main node crashed under the restart, with the
                # input it had buffered: dead-letter that, hand back the
                # cores reserved elsewhere and start over.
                executor.crash_main(self._reaper_for(executor))
                cluster = self.system.cluster
                for extra in extras:
                    if cluster.is_alive(extra):
                        cluster.cores.release(owner, extra, 1)
                span.finish(status="aborted")
                yield from self._restart_executor(
                    executor, target_cores, parent_span
                )
                return
            cores = len(executor.tasks)
            self._event(
                "executor_restarted", f"executor={owner} node={node} cores={cores}"
            )
            span.finish(status="ok", node=node, cores=cores)
        finally:
            # A kill mid-restart (second crash) must not leak the span.
            span.finish(status="aborted")

    def _acquire_core(self, executor: typing.Any) -> typing.Generator:
        """Allocate ``executor`` one core; returns its node, or None.

        A free core on the best node if there is one.  Otherwise rapid
        reallocation at core granularity is exactly what the
        executor-centric design buys: seize a core from the best-endowed
        live executor (milliseconds of reassignment protocol) instead of
        waiting for the scheduler's damped shrink cycle to free one.
        """
        candidate = self._pick_restart_node()
        if candidate is not None:
            try:
                self.system.cluster.cores.allocate(executor.name, candidate, 1)
                return candidate
            except CoreAllocationError:
                pass
        return (yield from self._seize_core(executor))

    def _seize_core(self, needy: typing.Any) -> typing.Generator:
        """Shrink the live executor with the most tasks by one core and
        hand that core to ``needy``; returns the node, or None.

        Uses the donor's own consistent shrink protocol (shards evacuate
        with their state before the task stops), so this is loss-free.
        The ledger transfer is atomic — no yield between the donor's
        release and the needy's allocate — so a concurrent scheduler
        round cannot grab the freed core first.  Static executors cannot
        donate — they are bound to a single core — which is why the
        static paradigm stays down when the cluster has no spare capacity.
        """
        from repro.executors.static import StaticExecutor

        donors = []
        for op_name in sorted(self.system.executors_by_operator):
            if op_name in self.system.rc_managers:
                continue
            for candidate in self.system.executors_by_operator[op_name]:
                if candidate is needy or isinstance(candidate, StaticExecutor):
                    continue
                if not getattr(candidate, "alive", True):
                    continue
                if len(candidate.tasks) > 1:
                    donors.append(candidate)
        if not donors:
            return None
        donor = max(donors, key=lambda e: (len(e.tasks), e.name))
        counts: typing.Dict[int, int] = {}
        for task in donor.tasks.values():
            counts[task.node_id] = counts.get(task.node_id, 0) + 1
        nodes = [n for n in counts if self.system.cluster.is_alive(n)]
        if not nodes:
            return None
        node = max(nodes, key=lambda n: (counts[n], -n))
        try:
            yield from donor.remove_core(node)
        except (ValueError, NotImplementedError):
            return None  # the donor shrank/crashed concurrently
        try:
            self.system.cluster.cores.release(donor.name, node, 1)
            self.system.cluster.cores.allocate(needy.name, node, 1)
        except CoreAllocationError:
            return None
        self._event("core_seized", f"donor={donor.name} node={node}")
        return node

    def _pick_restart_node(self) -> typing.Optional[int]:
        """Alive node with the most free cores (ties: lowest id)."""
        cluster = self.system.cluster
        free = cluster.cores.free_by_node()
        candidates = [
            n for n in sorted(free)
            if free[n] > 0 and cluster.is_alive(n)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda n: (free[n], -n))

    def _relocate_sources(self, dead_node: int) -> None:
        for source in sorted(
            self.system.sources, key=lambda s: s.index
        ):
            if source.node_id == dead_node:
                self._relocate_one_source(source, dead_node)

    def _relocate_one_source(self, source: typing.Any, dead_node: int) -> None:
        """Re-host one source instance; its reserved core moves with it."""
        system = self.system
        # The old reservation died with the core either way.
        self._adjust_reserved(dead_node, -1)
        target = self._pick_restart_node()
        if target is None:
            alive = sorted(system.cluster.alive_nodes())
            if not alive:
                self._event("source_stranded", f"source={source.name}"
                )
                return
            target = alive[0]  # no free core: co-locate, unreserved
        else:
            try:
                system.cluster.cores.allocate(SOURCE_OWNER, target, 1)
                self._adjust_reserved(target, +1)
            except CoreAllocationError:
                pass  # lost the race for the core: co-locate, unreserved
        source.relocate(target)
        self._event("source_relocated",
            f"source={source.name} node={target}",
        )

    def _adjust_reserved(self, node: int, delta: int) -> None:
        """Keep both reserved-core maps (system + scheduler copy) in sync."""
        maps = [self.system._reserved_by_node]
        scheduler = self.system.scheduler
        if scheduler is not None and scheduler.reserved_by_node is not maps[0]:
            maps.append(scheduler.reserved_by_node)
        for reserved in maps:
            reserved[node] = max(0, reserved.get(node, 0) + delta)
