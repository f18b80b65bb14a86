"""Network realism profiles: latency distributions and node classes.

A :class:`NetworkProfile` bundles everything the fabric needs to model a
non-ideal network: a per-link latency distribution (:class:`LatencySpec`),
an optional cluster-wide bandwidth override, and a set of heterogeneous
:class:`~repro.cluster.node.NodeProfile` classes assigned round-robin (or
explicitly) across nodes.  Three builtin profiles cover the regimes in the
scalehub-style crossover study (docs/network.md):

- ``lan``   — constant 0.5 ms, the paper's testbed (identical to the
  default plain fabric, but routes scheduler costs through the
  seconds-based model).
- ``wan``   — 25 ms ± 10 ms uniform jitter, the regime where the
  ROADMAP's scalehub notes show operator-level scaling collapsing.
- ``cloud`` — lognormal 5 ms with a heavy tail (sigma = 1.0) over a
  heterogeneous half-standard / half-burstable fleet.

All distributions are **mean-anchored at** ``base``: the uniform jitter is
symmetric and the lognormal draw is normalized by ``exp(-sigma^2 / 2)``, so
``LatencySpec.mean()`` — and therefore the scheduler's
``transfer_duration_estimate`` — is exact, not approximate.

Profiles are plain data: round-trippable via :meth:`NetworkProfile.to_dict`
/ :meth:`NetworkProfile.from_dict` and loadable from a builtin name, a JSON
file path, inline JSON text, or a dict (:meth:`NetworkProfile.load` — the
``--net-profile`` CLI flag accepts all four).
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing

from repro.cluster.node import NodeProfile
from repro.fields import INDEX, NON_NEGATIVE, POSITIVE, check_fields, check_number, unknown_keys

#: Supported latency distribution families.
DISTRIBUTIONS: typing.Tuple[str, ...] = ("constant", "uniform", "lognormal")


_LATENCY_RULES = dict.fromkeys(("base", "jitter", "sigma"), NON_NEGATIVE)


@dataclasses.dataclass(frozen=True, slots=True)
class LatencySpec:
    """One-way link latency distribution, mean-anchored at ``base``.

    - ``constant``: every link traversal takes exactly ``base`` seconds.
    - ``uniform``: ``base ± jitter`` (symmetric, so the mean is ``base``).
    - ``lognormal``: ``base * exp(sigma * z - sigma^2 / 2)`` for standard
      normal ``z`` — a heavy right tail whose mean is still ``base``.
    """

    distribution: str = "constant"
    base: float = 0.5e-3
    jitter: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown latency distribution {self.distribution!r}; "
                f"expected one of {DISTRIBUTIONS}"
            )
        check_fields(self, _LATENCY_RULES)
        if self.distribution == "uniform" and self.jitter > self.base:
            raise ValueError(
                f"uniform jitter {self.jitter} exceeds base {self.base}; "
                "latency draws must stay non-negative"
            )

    def mean(self) -> float:
        """Expected latency — ``base`` for every supported distribution."""
        return self.base

    def is_constant(self) -> bool:
        return (
            self.distribution == "constant"
            or (self.distribution == "uniform" and self.jitter == 0.0)
            or (self.distribution == "lognormal" and self.sigma == 0.0)
        )

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "distribution": self.distribution,
            "base": self.base,
            "jitter": self.jitter,
            "sigma": self.sigma,
        }

    @classmethod
    def from_dict(cls, payload: typing.Any) -> "LatencySpec":
        known = {field.name for field in dataclasses.fields(cls)}
        if unknown := unknown_keys("LatencySpec", payload, known):
            raise ValueError(f"unknown LatencySpec keys: {unknown}")
        return cls(**payload)


@dataclasses.dataclass(frozen=True, slots=True)
class NetworkProfile:
    """A complete fabric realism configuration.

    ``classes`` + ``assignment`` describe heterogeneity: node ``i`` gets
    ``classes[assignment[i % len(assignment)]]``; an empty ``assignment``
    with non-empty ``classes`` means plain round-robin over the classes.
    An empty ``classes`` tuple means a homogeneous fleet.
    """

    name: str = "custom"
    latency: LatencySpec = dataclasses.field(default_factory=LatencySpec)
    #: Cluster-wide link bandwidth override in bits/s (None keeps the
    #: SystemConfig's ``bandwidth_bps``).
    bandwidth_bps: typing.Optional[float] = None
    classes: typing.Tuple[NodeProfile, ...] = ()
    assignment: typing.Tuple[int, ...] = ()
    #: Seed for the fabric's jitter stream (PCG64, one stream per fabric).
    seed: int = 7001

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"profile name must be a string, got {self.name!r}")
        if self.bandwidth_bps is not None:
            check_number("bandwidth_bps", self.bandwidth_bps, POSITIVE)
        check_number("seed", self.seed, INDEX)
        if self.assignment and not self.classes:
            raise ValueError("assignment given without node classes")
        for index in self.assignment:
            check_number("assignment", index, INDEX)
            if index >= len(self.classes):
                raise ValueError(
                    f"assignment index {index} out of range for "
                    f"{len(self.classes)} classes"
                )

    def node_profiles(self, num_nodes: int) -> typing.Optional[typing.List[NodeProfile]]:
        """Per-node profiles for a ``num_nodes`` fleet (None = homogeneous)."""
        if not self.classes:
            return None
        if self.assignment:
            order = self.assignment
        else:
            order = tuple(range(len(self.classes)))
        return [self.classes[order[i % len(order)]] for i in range(num_nodes)]

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "name": self.name,
            "latency": self.latency.to_dict(),
            "bandwidth_bps": self.bandwidth_bps,
            "classes": [cls.to_dict() for cls in self.classes],
            "assignment": list(self.assignment),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: typing.Any) -> "NetworkProfile":
        """A profile from its dict form; ``ValueError`` naming the field
        for anything malformed."""
        known = {field.name for field in dataclasses.fields(cls)}
        if unknown := unknown_keys("NetworkProfile", payload, known):
            raise ValueError(f"unknown NetworkProfile keys: {unknown}")
        data = dict(payload)
        latency = data.get("latency", LatencySpec())
        if not isinstance(latency, LatencySpec):
            if not isinstance(latency, typing.Mapping):
                raise ValueError(f"latency must be an object, got {latency!r}")
            data["latency"] = LatencySpec.from_dict(latency)
        for name in ("classes", "assignment"):
            value = data.get(name, ())
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            data[name] = tuple(value)
        data["classes"] = tuple(
            node_cls if isinstance(node_cls, NodeProfile) else NodeProfile.from_dict(node_cls)
            for node_cls in data["classes"]
        )
        return cls(**data)

    @classmethod
    def load(
        cls, source: typing.Union["NetworkProfile", str, typing.Mapping[str, typing.Any]]
    ) -> "NetworkProfile":
        """Resolve a profile from any CLI/config-facing representation.

        Accepts an existing profile (returned as-is — profiles are frozen),
        a builtin name (``lan`` | ``wan`` | ``cloud``), a path to a JSON
        spec file, inline JSON text, or an already-parsed mapping.
        """
        if isinstance(source, cls):
            return source
        if isinstance(source, typing.Mapping):
            return cls.from_dict(source)
        text = str(source).strip()
        builtin = BUILTIN_PROFILES.get(text)
        if builtin is not None:
            return builtin
        if text.startswith("{") or text.startswith("["):
            return cls.from_dict(_parse_json(text))
        if os.path.isfile(text):
            with open(text, "r", encoding="utf-8") as handle:
                return cls.from_dict(_parse_json(handle.read()))
        raise ValueError(
            f"unknown network profile {text!r}: expected one of "
            f"{sorted(BUILTIN_PROFILES)}, a JSON spec file, or inline JSON"
        )


def _parse_json(text: str) -> typing.Any:
    try:
        return json.loads(text)
    except RecursionError:  # nesting too deep to parse
        raise ValueError("network profile JSON nests too deeply") from None


def _builtin_profiles() -> typing.Dict[str, NetworkProfile]:
    """The three canonical regimes of the crossover study."""
    standard = NodeProfile(name="standard")
    burstable = NodeProfile(
        name="burstable",
        speed_factor=0.75,
        egress_factor=0.5,
        ingress_factor=0.75,
        latency_factor=2.0,
    )
    return {
        "lan": NetworkProfile(
            name="lan",
            latency=LatencySpec(distribution="constant", base=0.5e-3),
            seed=7001,
        ),
        "wan": NetworkProfile(
            name="wan",
            latency=LatencySpec(distribution="uniform", base=25e-3, jitter=10e-3),
            seed=7002,
        ),
        "cloud": NetworkProfile(
            name="cloud",
            latency=LatencySpec(distribution="lognormal", base=5e-3, sigma=1.0),
            classes=(standard, burstable),
            seed=7003,
        ),
    }


#: Builtin profiles, addressable by name via ``NetworkProfile.load``.
BUILTIN_PROFILES: typing.Dict[str, NetworkProfile] = _builtin_profiles()
