"""Analytic FIFO network model with configurable realism.

Each node has one egress link and one ingress link (full duplex, as on the
paper's 1 Gbps Ethernet).  A transfer serializes FIFO on both endpoints'
links and then pays a propagation latency.  This one-event-per-transfer
model captures bandwidth contention — the effect that limits single-executor
scale-out in the paper's Figures 10–12 — without simulating packets.

The default fabric is the paper's ideal LAN: constant ``base_latency``,
homogeneous links.  A :class:`~repro.cluster.profile.NetworkProfile`
upgrades it to a realism-configurable fabric (docs/network.md):

- per-link latency *distributions* (constant | uniform jitter | lognormal
  tail) drawn from one deterministic seeded ``numpy.random.Generator``
  (PCG64) stream per fabric, serializable via :meth:`NetworkFabric.rng_state`
  exactly like the workload streams;
- per-node asymmetric bandwidth and latency classes
  (:class:`~repro.cluster.node.NodeProfile`);
- latency tail spikes injectable through the ``FaultSpec`` DSL
  (``latency_spike@t:node=n,factor=f,duration=d``).

Transfers are tagged with a :class:`TransferPurpose` so the harness can
account state-migration bytes and remote-task data bytes separately
(Table 2 of the paper).  Remote bytes land in ``bytes_by_purpose``;
same-node transfers — which never touch a NIC — are counted under the
separate ``local_bytes_by_purpose`` bucket so Table-2-style *network*
accounting stays comparable with the paper while intra-node shard
re-homes remain auditable.
"""

from __future__ import annotations

import enum
import math
import typing

import numpy as np

from repro.cluster.profile import LatencySpec, NetworkProfile
from repro.metrics import ByteCounter
from repro.sim import Environment, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import NodeProfile


class TransferPurpose(enum.Enum):
    """Why bytes crossed the network (for evaluation accounting)."""

    STREAM = "stream"  # inter-operator tuple traffic
    REMOTE_TASK = "remote_task"  # executor main process <-> remote task
    STATE_MIGRATION = "state_migration"  # shard state movement
    CONTROL = "control"  # protocol/control messages


class _Link:
    """A FIFO link: transfers queue back-to-back at fixed bandwidth."""

    __slots__ = ("bandwidth", "busy_until")

    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self.busy_until = 0.0


class _GuardedDelivery:
    """Delivery trampoline that re-checks outages at delivery time.

    Armed only for runs whose fault spec contains a partition (see
    :meth:`NetworkFabric.enable_delivery_guard`): when the wrapped
    delivery fires, any outage imposed *after* the transfer was reserved
    holds the payload event back until the partition heals — queued bytes
    are delayed, not dropped, matching docs/faults.md's TCP-style link
    semantics.  Default runs never pay the extra indirection, keeping the
    hot path (and the perf baseline's event counts) untouched.
    """

    __slots__ = ("fabric", "event", "src_node", "dst_node", "callbacks")

    def __init__(
        self,
        fabric: "NetworkFabric",
        event: Event,
        src_node: int,
        dst_node: int,
    ) -> None:
        self.fabric = fabric
        self.event = event
        self.src_node = src_node
        self.dst_node = dst_node
        self.callbacks: typing.Optional[typing.List[typing.Any]] = [self._on_fire]

    def _on_fire(self, _event: typing.Any) -> None:
        fabric = self.fabric
        env = fabric.env
        outages = fabric._outage_until
        horizon = outages[self.src_node]
        other = outages[self.dst_node]
        if other > horizon:
            horizon = other
        if horizon > env._now:
            # Mid-flight partition: re-arm and retry when it heals (the
            # horizon may move again if the partition is extended).
            self.callbacks = [self._on_fire]
            env.push_at(horizon, typing.cast(Event, self))  # duck-typed
            return
        env._ready.append((env._seq, self.event))
        env._seq += 1


class NetworkFabric:
    """All node-to-node links plus per-purpose byte accounting."""

    #: CPU-side cost of handing a message between threads on the same node.
    LOCAL_DELIVERY_LATENCY = 20e-6

    __slots__ = (
        "env",
        "base_latency",
        "latency_spec",
        "profile",
        "_egress",
        "_ingress",
        "_bandwidth_factor",
        "_latency_factor",
        "_latency_spike",
        "_outage_until",
        "_rng",
        "_flat_latency",
        "_last_delivery",
        "_guard_deliveries",
        "bytes_by_purpose",
        "local_bytes_by_purpose",
    )

    def __init__(
        self,
        env: Environment,
        num_nodes: int,
        bandwidth_bytes_per_s: float = 1.25e8,
        base_latency: float = 0.5e-3,
        profile: typing.Optional[NetworkProfile] = None,
        node_profiles: typing.Optional[typing.Sequence["NodeProfile"]] = None,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if base_latency < 0:
            raise ValueError("latency must be >= 0")
        self.env = env
        self.profile = profile
        if profile is not None:
            self.latency_spec = profile.latency
            base_latency = profile.latency.base
            seed = profile.seed
        else:
            self.latency_spec = LatencySpec(base=base_latency)
            seed = 7001
        self.base_latency = base_latency
        if node_profiles is None:
            self._egress = [_Link(bandwidth_bytes_per_s) for _ in range(num_nodes)]
            self._ingress = [_Link(bandwidth_bytes_per_s) for _ in range(num_nodes)]
            self._latency_factor = [1.0] * num_nodes
        else:
            if len(node_profiles) != num_nodes:
                raise ValueError(
                    f"expected {num_nodes} node profiles, got {len(node_profiles)}"
                )
            self._egress = [
                _Link(bandwidth_bytes_per_s * p.egress_factor) for p in node_profiles
            ]
            self._ingress = [
                _Link(bandwidth_bytes_per_s * p.ingress_factor) for p in node_profiles
            ]
            self._latency_factor = [p.latency_factor for p in node_profiles]
        # Fault-injection hooks: a bandwidth multiplier per node (gray
        # degradation), a latency multiplier per node (tail spikes), and an
        # outage horizon per node (partition) before which no transfer
        # touching the node may start.
        self._bandwidth_factor = [1.0] * num_nodes
        self._latency_spike = [1.0] * num_nodes
        self._outage_until = [0.0] * num_nodes
        # One deterministic jitter stream per fabric.  Always constructed
        # (so serialization is uniform), never drawn from on the constant
        # fast path — a plain fabric's stream state stays at its seed.
        self._rng = np.random.Generator(np.random.PCG64(seed))
        # TCP-style per-connection ordering: stochastic draws must not let
        # a later message on the same ordered (src, dst) pair overtake an
        # earlier one (docs/faults.md).  Constant-latency deliveries are
        # monotonic by construction, so this is only consulted when a
        # distribution is active.
        self._last_delivery: typing.Dict[typing.Tuple[int, int], float] = {}
        self._guard_deliveries = False
        self._flat_latency = True
        self._refresh_fast_path()
        self.bytes_by_purpose: typing.Dict[TransferPurpose, ByteCounter] = {
            purpose: ByteCounter() for purpose in TransferPurpose
        }
        #: Same-node transfer bytes (no NIC crossed; kept out of the
        #: Table-2 network accounting above, but auditable here).
        self.local_bytes_by_purpose: typing.Dict[TransferPurpose, ByteCounter] = {
            purpose: ByteCounter() for purpose in TransferPurpose
        }

    # -- realism state -------------------------------------------------

    def _refresh_fast_path(self) -> None:
        """Recompute whether latency is a single constant (the hot path)."""
        self._flat_latency = (
            self.latency_spec.is_constant()
            and all(f == 1.0 for f in self._latency_factor)
            and all(f == 1.0 for f in self._latency_spike)
        )

    def rng_state(self) -> typing.Dict[str, typing.Any]:
        """Serializable jitter-stream state (PCG64 bit-generator state)."""
        state = self._rng.bit_generator.state
        return typing.cast(typing.Dict[str, typing.Any], state)

    def set_rng_state(self, state: typing.Dict[str, typing.Any]) -> None:
        """Restore a jitter stream captured via :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    def _draw_latency(self, src_node: int, dst_node: int) -> float:
        """One stochastic latency draw for the ``src -> dst`` link."""
        spec = self.latency_spec
        distribution = spec.distribution
        if distribution == "uniform" and spec.jitter > 0.0:
            latency = spec.base + spec.jitter * (2.0 * float(self._rng.random()) - 1.0)
        elif distribution == "lognormal" and spec.sigma > 0.0:
            sigma = spec.sigma
            latency = spec.base * math.exp(
                sigma * float(self._rng.standard_normal()) - 0.5 * sigma * sigma
            )
        else:
            latency = spec.base
        scale = self.latency_scale(src_node)
        other = self.latency_scale(dst_node)
        if other > scale:
            scale = other
        if scale != 1.0:
            latency *= scale
        return latency if latency > 0.0 else 0.0

    def latency_scale(self, node_id: int) -> float:
        """Combined latency multiplier on a node (class x active spike)."""
        return self._latency_factor[node_id] * self._latency_spike[node_id]

    def expected_latency(self, src_node: int, dst_node: int) -> float:
        """Mean propagation latency ``src -> dst`` under the distribution.

        Every supported distribution is mean-anchored at ``base`` (the
        uniform jitter is symmetric; the lognormal draw is normalized by
        ``exp(-sigma^2 / 2)``), scaled by the slower endpoint's latency
        class and any active spike — so the scheduler's estimate is the
        exact expectation, not a guess.
        """
        scale = self.latency_scale(src_node)
        other = self.latency_scale(dst_node)
        if other > scale:
            scale = other
        return self.latency_spec.mean() * scale

    # -- data path -----------------------------------------------------

    def transfer(
        self,
        src_node: int,
        dst_node: int,
        nbytes: float,
        purpose: TransferPurpose = TransferPurpose.STREAM,
    ) -> Event:
        """Move ``nbytes`` from ``src_node`` to ``dst_node``.

        Returns an event firing at delivery time.  Same-node transfers cost
        only the local delivery latency, consume no link bandwidth, and are
        accounted under ``local_bytes_by_purpose`` (they never cross a NIC,
        so they stay out of the Table-2 network byte totals).
        """
        if nbytes < 0:
            raise ValueError(f"transfer size must be >= 0, got {nbytes}")
        env = self.env
        event = Event.__new__(Event)
        event.env = env
        event.callbacks = []
        event._ok = True
        event._value = None
        if src_node == dst_node:
            self.local_bytes_by_purpose[purpose]._total += int(nbytes)
            env.push_at(env._now + self.LOCAL_DELIVERY_LATENCY, event)
            return event
        self.bytes_by_purpose[purpose]._total += int(nbytes)
        now = env._now
        egress = self._egress[src_node]
        ingress = self._ingress[dst_node]
        # Cut-through reservation: the transfer occupies both NICs over the
        # same interval, so an uncontended transfer pays bytes/bandwidth once
        # while contention on either endpoint still delays it.  max()/min()
        # are unrolled into compares — this runs once per remote message.
        start = now
        candidate = egress.busy_until
        if candidate > start:
            start = candidate
        candidate = ingress.busy_until
        if candidate > start:
            start = candidate
        outages = self._outage_until
        candidate = outages[src_node]
        if candidate > start:
            start = candidate
        candidate = outages[dst_node]
        if candidate > start:
            start = candidate
        factors = self._bandwidth_factor
        bandwidth = egress.bandwidth * factors[src_node]
        other = ingress.bandwidth * factors[dst_node]
        if other < bandwidth:
            bandwidth = other
        finish = start + nbytes / bandwidth
        egress.busy_until = finish
        ingress.busy_until = finish
        if self._flat_latency:
            delay = finish - now + self.base_latency
        else:
            delay = finish - now + self._draw_latency(src_node, dst_node)
            # FIFO clamp: a lucky low draw must not overtake an earlier
            # in-flight message on the same ordered pair (TCP semantics —
            # the executor protocols rely on per-link ordering).
            pair = (src_node, dst_node)
            delivery = now + delay
            previous = self._last_delivery.get(pair, 0.0)
            if delivery < previous:
                delivery = previous
                delay = delivery - now
            self._last_delivery[pair] = delivery
        payload: typing.Any = event
        if self._guard_deliveries:
            payload = _GuardedDelivery(self, event, src_node, dst_node)
        env.push_at(now + delay, payload)
        return event

    def transfer_duration_estimate(self, src_node: int, dst_node: int, nbytes: float) -> float:
        """Uncontended *expected* duration (the scheduler's cost model).

        Mirrors :meth:`transfer` exactly: bandwidth is the min over both
        endpoints' effective link rates (egress x src factor vs ingress x
        dst factor — a gray-degraded or burstable *destination* is priced
        in, not just the source), and latency is the distribution's mean
        via :meth:`expected_latency`.
        """
        if src_node == dst_node:
            return self.LOCAL_DELIVERY_LATENCY
        bandwidth = self._egress[src_node].bandwidth * self._bandwidth_factor[src_node]
        other = self._ingress[dst_node].bandwidth * self._bandwidth_factor[dst_node]
        if other < bandwidth:
            bandwidth = other
        return nbytes / bandwidth + self.expected_latency(src_node, dst_node)

    # -- fault hooks ---------------------------------------------------

    def set_bandwidth_factor(self, node_id: int, factor: float) -> None:
        """Degrade (factor < 1) or restore (factor = 1) a node's links."""
        if factor <= 0:
            raise ValueError(f"bandwidth factor must be positive, got {factor}")
        self._bandwidth_factor[node_id] = factor

    def bandwidth_factor(self, node_id: int) -> float:
        return self._bandwidth_factor[node_id]

    def set_latency_spike(self, node_id: int, factor: float) -> None:
        """Multiply (factor > 1) or restore (factor = 1) a node's latency.

        The tail-spike fault hook (``latency_spike`` in the FaultSpec DSL):
        every latency draw touching the node is scaled by ``factor`` on top
        of its heterogeneity class until restored.
        """
        if factor <= 0:
            raise ValueError(f"latency factor must be positive, got {factor}")
        self._latency_spike[node_id] = factor
        self._refresh_fast_path()

    def latency_spike(self, node_id: int) -> float:
        return self._latency_spike[node_id]

    def enable_delivery_guard(self) -> None:
        """Re-check outages at delivery time for all subsequent transfers.

        Armed by the runtime when the fault spec contains a partition:
        a partition imposed *after* a transfer was reserved then delays the
        in-flight delivery until the outage heals (docs/faults.md — queued
        bytes are delayed, not dropped).  Off by default so fault-free runs
        keep the one-event-per-transfer hot path bit-identical.
        """
        self._guard_deliveries = True

    @property
    def delivery_guard_enabled(self) -> bool:
        return self._guard_deliveries

    def partition_until(self, node_id: int, until: float) -> None:
        """Cut the node off: no transfer touching it starts before ``until``.

        Queued bytes are delayed, not dropped — the fabric models TCP-style
        reliable links, so a healed partition delivers the backlog.  With
        the delivery guard armed, transfers already in flight are held back
        too; without it only new reservations see the outage.
        """
        self._outage_until[node_id] = max(self._outage_until[node_id], until)

    def utilization_snapshot(self) -> typing.Dict[str, float]:
        """Busy horizons per link relative to now (diagnostics)."""
        now = self.env.now
        return {
            "max_egress_backlog": max(
                (link.busy_until - now for link in self._egress), default=0.0
            ),
            "max_ingress_backlog": max(
                (link.busy_until - now for link in self._ingress), default=0.0
            ),
        }
