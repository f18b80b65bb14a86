"""Declarative sweep specifications (docs/sweeps.md).

A sweep is a named list of trials.  Each trial is a :class:`TrialConfig`
— one fully-specified experiment (workload, paradigm, rate, cluster
shape, duration, seed).  The trial's identity is a content hash of its
canonical JSON form: the same parameters always yield the same
``trial_id``, on any machine, in any process, which is what makes the
on-disk result cache and resumable sweeps possible.

Specs are built either in Python (:meth:`SweepSpec.grid`) or loaded from
a JSON file::

    {
      "name": "demo",
      "base": {"workload": "micro", "rate": 3000, "duration": 8},
      "grid": {"paradigm": ["static", "elasticutor"], "omega": [0, 16]},
      "trials": [{"paradigm": "rc", "omega": 16}]
    }

``grid`` axes expand as a cartesian product over ``base``; ``trials``
entries are merged over ``base`` individually.  Axis names may use
dotted paths (``"workload_args.tick"``) to reach the nested argument
dicts.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import pathlib
import typing

from repro.runtime.config import Paradigm, SystemConfig

#: Accepted ``paradigm`` spellings -> canonical value.
PARADIGM_ALIASES = {p.value: p.value for p in Paradigm}
PARADIGM_ALIASES.update({"rc": Paradigm.RC.value, "naive": Paradigm.NAIVE_EC.value})

_WORKLOADS = ("micro", "sse")

#: SystemConfig fields every trial sets itself (``sweep.trial.build_system``):
#: a ``system_args`` entry for one of them would collide.
_TRIAL_SET_SYSTEM_FIELDS = (
    "paradigm", "num_nodes", "cores_per_node", "source_instances", "telemetry",
)


#: TrialConfig fields by the type a loaded spec must give them.
_STRING_FIELDS = ("workload", "paradigm")
_NUMBER_FIELDS = ("rate", "omega", "duration", "warmup", "skew", "cost_ms")
_INTEGER_FIELDS = (
    "seed", "num_nodes", "cores_per_node", "source_instances",
    "executors_per_operator", "shards_per_executor", "num_keys",
    "tuple_bytes", "batch_size",
)
_DICT_FIELDS = ("workload_args", "topology_args", "system_args")


_KINDS = {
    "string": "a string",
    "integer": "an integer",
    "number": "a finite number",
    "object": "an object",
}


def _check_type(name: str, value: typing.Any, kind: str) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is of ``kind``
    (a key of ``_KINDS``); bools are neither integers nor numbers."""
    if kind == "string":
        ok = isinstance(value, str)
    elif kind == "object":
        ok = isinstance(value, typing.Mapping)
    elif isinstance(value, bool):
        ok = False
    elif kind == "integer":
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if not ok:
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def canonical_json(value: typing.Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class TrialConfig:
    """One fully-specified experiment cell.

    The common sweep axes of the paper's evaluation (paradigm, rate, ω,
    seed, cluster shape, y, z, key population, tuple size) are explicit
    fields; anything rarer rides in the three pass-through dicts:
    ``workload_args`` (extra workload constructor kwargs),
    ``topology_args`` (extra ``build_topology`` kwargs) and
    ``system_args`` (extra :class:`SystemConfig` kwargs).
    """

    workload: str = "micro"
    paradigm: str = "elasticutor"
    rate: float = 17_000.0
    omega: float = 2.0  # key shuffles/minute (micro only; ignored by sse)
    seed: int = 42
    duration: float = 60.0
    warmup: float = 25.0
    num_nodes: int = 8
    cores_per_node: int = 4
    source_instances: int = 4
    executors_per_operator: int = 8
    shards_per_executor: int = 32
    num_keys: int = 10_000  # distinct keys (micro) / stocks (sse)
    skew: float = 0.8  # zipf skew (micro) / popularity skew (sse)
    cost_ms: float = 1.0  # CPU cost per tuple (micro) / order (sse)
    tuple_bytes: int = 128  # micro only
    batch_size: int = 20
    #: Per-trial wall-clock budget; None falls back to the runner's
    #: default.  Part of the trial's identity (a bigger budget is a
    #: different experiment for a cell that previously timed out).
    timeout_seconds: typing.Optional[float] = None
    workload_args: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict
    )
    topology_args: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict
    )
    system_args: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for names, kind in (
            (_STRING_FIELDS, "string"),
            (_NUMBER_FIELDS, "number"),
            (_INTEGER_FIELDS, "integer"),
            (_DICT_FIELDS, "object"),
        ):
            for name in names:
                _check_type(name, getattr(self, name), kind)
        if self.timeout_seconds is not None:
            _check_type("timeout_seconds", self.timeout_seconds, "number")
        if self.workload not in _WORKLOADS:
            raise ValueError(
                f"workload must be one of {_WORKLOADS}, got {self.workload!r}"
            )
        paradigm = PARADIGM_ALIASES.get(self.paradigm)
        if paradigm is None:
            raise ValueError(
                f"unknown paradigm {self.paradigm!r}; "
                f"expected one of {sorted(PARADIGM_ALIASES)}"
            )
        object.__setattr__(self, "paradigm", paradigm)
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0 <= self.warmup < self.duration:
            raise ValueError(
                f"warmup must lie in [0, duration), got {self.warmup}"
            )
        for name in (
            "num_nodes", "cores_per_node", "source_instances",
            "executors_per_operator", "shards_per_executor", "num_keys",
            "batch_size", "tuple_bytes",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.cost_ms <= 0:
            raise ValueError(f"cost_ms must be positive, got {self.cost_ms}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        for name in _DICT_FIELDS:
            object.__setattr__(self, name, dict(getattr(self, name)))
        system_fields = {field.name for field in dataclasses.fields(SystemConfig)}
        for key in sorted(self.system_args):
            if key not in system_fields:
                raise ValueError(
                    f"system_args key {key!r} is not a SystemConfig field"
                )
            if key in _TRIAL_SET_SYSTEM_FIELDS:
                raise ValueError(
                    f"system_args key {key!r} is set by the trial itself"
                )

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """JSON-safe dict of every field (the hashed identity)."""
        return dataclasses.asdict(self)

    @property
    def trial_id(self) -> str:
        """Stable content hash of the trial's parameters."""
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: typing.Any) -> "TrialConfig":
        _check_type("a trial", data, "object")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(str(key) for key in data if key not in known)
        if unknown:
            raise ValueError(f"unknown trial parameters: {unknown}")
        return cls(**dict(data))


def _set_path(
    mapping: typing.Dict[str, typing.Any], dotted: str, value: typing.Any
) -> None:
    keys = dotted.split(".")
    target = mapping
    for key in keys[:-1]:
        target = target.setdefault(key, {})
        if not isinstance(target, dict):
            raise ValueError(f"axis {dotted!r} crosses a non-dict value")
    target[keys[-1]] = value


def _deep_merge(
    base: typing.Mapping[str, typing.Any],
    override: typing.Mapping[str, typing.Any],
) -> typing.Dict[str, typing.Any]:
    merged = copy.deepcopy(dict(base))
    for key, value in override.items():
        if (
            key in merged
            and isinstance(merged[key], dict)
            and isinstance(value, dict)
        ):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


@dataclasses.dataclass
class SweepSpec:
    """A named, ordered collection of distinct trials."""

    name: str
    trials: typing.List[TrialConfig]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError(f"sweep name must be a non-empty string, got {self.name!r}")
        if not self.trials:
            raise ValueError("a sweep needs at least one trial")
        seen: typing.Dict[str, int] = {}
        for index, trial in enumerate(self.trials):
            trial_id = trial.trial_id
            if trial_id in seen:
                raise ValueError(
                    f"duplicate trial (index {seen[trial_id]} and {index}): "
                    f"{trial_id} — identical parameters would race on one "
                    f"cache cell"
                )
            seen[trial_id] = index

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self) -> typing.Iterator[TrialConfig]:
        return iter(self.trials)

    def trial_ids(self) -> typing.List[str]:
        return [trial.trial_id for trial in self.trials]

    @classmethod
    def grid(
        cls,
        name: str,
        base: typing.Optional[typing.Mapping[str, typing.Any]] = None,
        axes: typing.Optional[
            typing.Mapping[str, typing.Sequence[typing.Any]]
        ] = None,
        trials: typing.Sequence[typing.Mapping[str, typing.Any]] = (),
    ) -> "SweepSpec":
        """Expand ``axes`` as a cartesian product over ``base``.

        Axes expand in insertion order (last axis varies fastest), so the
        trial order — and therefore the ``results.jsonl`` row order — is
        deterministic.  ``trials`` entries append after the grid, each
        deep-merged over ``base``.
        """
        base = dict(base or {})
        expanded: typing.List[TrialConfig] = []
        axes = dict(axes or {})
        if axes:
            keys = list(axes)
            for combo in itertools.product(*(axes[key] for key in keys)):
                merged = copy.deepcopy(base)
                for key, value in zip(keys, combo):
                    _set_path(merged, key, value)
                expanded.append(TrialConfig.from_dict(merged))
        for entry in trials:
            expanded.append(TrialConfig.from_dict(_deep_merge(base, entry)))
        if not expanded:
            expanded.append(TrialConfig.from_dict(base))
        return cls(name=name, trials=expanded)

    @classmethod
    def from_dict(cls, data: typing.Any) -> "SweepSpec":
        """A spec from its JSON form; ``ValueError`` naming the key for
        anything malformed."""
        _check_type("a sweep spec", data, "object")
        known = {"name", "base", "grid", "trials"}
        unknown = sorted(str(key) for key in data if key not in known)
        if unknown:
            raise ValueError(f"unknown spec keys: {unknown}")
        if "name" not in data:
            raise ValueError("spec needs a 'name'")
        _check_type("name", data["name"], "string")
        base = data.get("base", {})
        axes = data.get("grid", {})
        trials = data.get("trials", [])
        _check_type("base", base, "object")
        _check_type("grid", axes, "object")
        for axis, values in axes.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"grid axis {axis!r} must be a list, got {values!r}")
        if not isinstance(trials, (list, tuple)):
            raise ValueError(f"trials must be a list, got {trials!r}")
        for index, entry in enumerate(trials):
            _check_type(f"trials[{index}]", entry, "object")
        return cls.grid(data["name"], base=base, axes=axes, trials=trials)

    @classmethod
    def from_file(
        cls, path: typing.Union[str, pathlib.Path]
    ) -> "SweepSpec":
        text = pathlib.Path(path).read_text()
        try:
            data = json.loads(text)
        except RecursionError:  # nesting too deep to parse
            raise ValueError(f"sweep spec {str(path)!r} nests too deeply") from None
        return cls.from_dict(data)

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "name": self.name,
            "trials": [trial.to_dict() for trial in self.trials],
        }
