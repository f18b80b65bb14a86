"""Physical nodes, heterogeneity classes, and the cluster aggregate."""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing

from repro.sim import Environment

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cores import CoreManager
    from repro.cluster.network import NetworkFabric
    from repro.cluster.profile import NetworkProfile


def check_finite(field: str, value: typing.Any) -> None:
    """``ValueError`` naming ``field`` unless ``value`` is a finite real
    number (bools are not numbers here)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{field} must be a finite number, got {value!r}")


def checked_fields(
    kind: str, payload: typing.Any, known: typing.Collection[str]
) -> typing.Dict[str, typing.Any]:
    """``payload`` as a dict, or ``ValueError`` if it is not a mapping or
    has keys outside ``known``."""
    if not isinstance(payload, typing.Mapping):
        raise ValueError(f"{kind} must be an object, got {payload!r}")
    unknown = sorted(str(key) for key in payload if key not in known)
    if unknown:
        raise ValueError(f"unknown {kind} keys: {unknown}")
    return dict(payload)


@dataclasses.dataclass(frozen=True, slots=True)
class NodeProfile:
    """A node heterogeneity class: compute speed plus link asymmetry.

    Joins the existing ``speed_factor`` straggler knob with per-node
    *network* characteristics: ``egress_factor``/``ingress_factor`` scale
    the node's link bandwidths (asymmetric links, as on burstable cloud
    instances), and ``latency_factor`` scales every latency draw touching
    the node (the slower endpoint of a link wins).  All factors multiply
    the fabric-wide baseline; ``1.0`` everywhere is a plain node.
    """

    name: str = "standard"
    speed_factor: float = 1.0
    egress_factor: float = 1.0
    ingress_factor: float = 1.0
    latency_factor: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"node class name must be a string, got {self.name!r}")
        for field in ("speed_factor", "egress_factor", "ingress_factor", "latency_factor"):
            value = getattr(self, field)
            check_finite(field, value)
            if value <= 0:
                raise ValueError(f"{field} must be positive, got {value}")

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: typing.Any) -> "NodeProfile":
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**checked_fields("NodeProfile", payload, known))


class Node:
    """A physical machine: an id and a fixed number of CPU cores.

    Mirrors one EC2 t2.2xlarge instance from the paper's testbed
    (8 cores, 32 GB RAM — memory is not a bottleneck in any of the paper's
    experiments, so only cores are modeled as a constrained resource).

    ``speed_factor`` models heterogeneity/stragglers: a factor of 0.5
    makes every core on the node take twice as long per tuple.  The
    measurement-driven scheduler and balancer adapt to it with no special
    handling — they only ever see measured rates.
    """

    __slots__ = ("node_id", "num_cores", "speed_factor", "alive", "profile")

    def __init__(
        self,
        node_id: int,
        num_cores: int = 8,
        speed_factor: float = 1.0,
        profile: typing.Optional[NodeProfile] = None,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"node needs at least one core, got {num_cores}")
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        self.node_id = node_id
        self.num_cores = num_cores
        self.speed_factor = speed_factor
        self.alive = True
        #: Heterogeneity class this node was built from (None = default).
        self.profile = profile

    def __repr__(self) -> str:
        return f"Node({self.node_id}, cores={self.num_cores})"


class Cluster:
    """A set of nodes plus shared core accounting and network fabric."""

    __slots__ = ("env", "nodes", "cores", "network", "network_profile")

    def __init__(
        self,
        env: Environment,
        num_nodes: int = 32,
        cores_per_node: int = 8,
        bandwidth_bps: float = 1e9,
        network_latency: float = 0.5e-3,
        network_profile: typing.Optional[typing.Any] = None,
    ) -> None:
        from repro.cluster.cores import CoreManager
        from repro.cluster.network import NetworkFabric
        from repro.cluster.profile import NetworkProfile

        if num_nodes < 1:
            raise ValueError(f"cluster needs at least one node, got {num_nodes}")
        profile: typing.Optional[NetworkProfile] = None
        if network_profile is not None:
            profile = NetworkProfile.load(network_profile)
        #: Resolved realism profile (None = plain constant-latency fabric).
        self.network_profile = profile
        node_profiles = (
            profile.node_profiles(num_nodes) if profile is not None else None
        )
        self.env = env
        if node_profiles is None:
            self.nodes: typing.List[Node] = [
                Node(i, cores_per_node) for i in range(num_nodes)
            ]
        else:
            self.nodes = [
                Node(
                    i,
                    cores_per_node,
                    speed_factor=node_profiles[i].speed_factor,
                    profile=node_profiles[i],
                )
                for i in range(num_nodes)
            ]
        self.cores = CoreManager(self.nodes)
        if profile is not None and profile.bandwidth_bps is not None:
            bandwidth_bps = profile.bandwidth_bps
        self.network = NetworkFabric(
            env,
            num_nodes=num_nodes,
            bandwidth_bytes_per_s=bandwidth_bps / 8.0,
            base_latency=network_latency,
            profile=profile,
            node_profiles=node_profiles,
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return sum(node.num_cores for node in self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def speed(self, node_id: int) -> float:
        return self.nodes[node_id].speed_factor

    def set_node_speed(self, node_id: int, speed_factor: float) -> None:
        """Degrade or restore a node (straggler injection)."""
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        self.nodes[node_id].speed_factor = speed_factor

    def is_alive(self, node_id: int) -> bool:
        return self.nodes[node_id].alive

    def alive_nodes(self) -> typing.List[int]:
        return [node.node_id for node in self.nodes if node.alive]

    def fail_node(self, node_id: int) -> typing.Dict[typing.Any, int]:
        """Crash a node: mark it dead and withdraw its cores from the ledger.

        Returns ``owner -> cores withdrawn``.  Killing the owners' task
        processes and re-homing their state is the fault coordinator's job
        (:mod:`repro.faults.recovery`) — this only flips the hardware view.
        """
        self.nodes[node_id].alive = False
        return self.cores.fail_node(node_id)

    def __repr__(self) -> str:
        return f"Cluster(nodes={self.num_nodes}, cores={self.total_cores})"
