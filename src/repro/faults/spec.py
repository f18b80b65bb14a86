"""Fault schedules: what breaks, when, and how badly.

A :class:`FaultSpec` is an immutable, sorted list of :class:`FaultEvent`s
expressed entirely in virtual time.  Specs can be built programmatically,
parsed from a compact one-line DSL (CLI friendly), loaded from JSON files,
or drawn from a seeded RNG — never from wall-clock randomness, so the
same spec always replays identically.

DSL grammar (events separated by ``;``)::

    <kind>@<time>[:key=value[,key=value...]]

    node_crash@30:node=5
    core_failure@12:node=2
    link_degrade@10:node=1,factor=0.25,duration=5
    latency_spike@40:node=2,factor=8,duration=3
    partition@20:node=3,duration=2
    executor_stall@15:target=calculator:0,factor=0.2,duration=8
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import random
import typing


class FaultSpecError(ValueError):
    """Raised for malformed fault specs."""


class FaultKind(enum.Enum):
    """The failure modes the injector understands."""

    NODE_CRASH = "node_crash"  # fail-stop: node and all its memory gone
    CORE_FAILURE = "core_failure"  # one core dies; the node's processes live
    LINK_DEGRADE = "link_degrade"  # gray network: bandwidth times `factor`
    LATENCY_SPIKE = "latency_spike"  # tail spike: node latency times `factor`
    PARTITION = "partition"  # node unreachable for `duration` seconds
    EXECUTOR_STALL = "executor_stall"  # gray failure: executor runs at `factor` speed


#: Kinds that apply an effect for a window rather than instantaneously.
TRANSIENT_KINDS = frozenset(
    {
        FaultKind.LINK_DEGRADE,
        FaultKind.LATENCY_SPIKE,
        FaultKind.PARTITION,
        FaultKind.EXECUTOR_STALL,
    }
)


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``factor`` is a speed/bandwidth multiplier for gray failures (0.25 =
    four times slower); ``duration`` is the window for transient kinds;
    ``target`` names an executor as ``operator:index`` for stalls.
    """

    time: float
    kind: FaultKind
    node: typing.Optional[int] = None
    target: typing.Optional[str] = None
    factor: float = 1.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        for name in ("time", "factor", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise FaultSpecError(
                    f"fault {name} must be finite, got {getattr(self, name)}"
                )
        if self.time < 0:
            raise FaultSpecError(f"fault time must be >= 0, got {self.time}")
        if self.factor <= 0:
            raise FaultSpecError(f"fault factor must be positive, got {self.factor}")
        if self.duration < 0:
            raise FaultSpecError(f"fault duration must be >= 0, got {self.duration}")
        if self.kind in TRANSIENT_KINDS and self.duration == 0:
            raise FaultSpecError(f"{self.kind.value} requires duration > 0")
        if self.kind is FaultKind.EXECUTOR_STALL:
            if not self.target:
                raise FaultSpecError("executor_stall requires target=operator:index")
        elif self.node is None:
            raise FaultSpecError(f"{self.kind.value} requires node=<id>")

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        data: typing.Dict[str, typing.Any] = {
            "time": self.time,
            "kind": self.kind.value,
        }
        if self.node is not None:
            data["node"] = self.node
        if self.target is not None:
            data["target"] = self.target
        if self.factor != 1.0:
            data["factor"] = self.factor
        if self.duration:
            data["duration"] = self.duration
        return data

    @classmethod
    def from_dict(cls, data: typing.Any) -> "FaultEvent":
        """One event from its dict form (:class:`FaultSpecError` for any
        malformed field; callers add which event it was)."""
        if not isinstance(data, typing.Mapping):
            raise FaultSpecError("a fault event must be an object")
        unknown = sorted(str(key) for key in data if key not in _EVENT_KEYS)
        if unknown:
            raise FaultSpecError(f"unknown key(s) {unknown}")
        try:
            kind = FaultKind(data["kind"])
        except (KeyError, TypeError, ValueError):
            raise FaultSpecError("bad fault kind") from None
        target = data.get("target")
        if target is not None and not isinstance(target, str):
            raise FaultSpecError(f"target must be a string, got {target!r}")
        node = data.get("node")
        return cls(
            time=_number(data, "time", 0.0, float),
            kind=kind,
            node=None if node is None else _number(data, "node", None, int),
            target=target,
            factor=_number(data, "factor", 1.0, float),
            duration=_number(data, "duration", 0.0, float),
        )


#: The keys of an event's dict form (and of its DSL ``key=value`` pairs).
_EVENT_KEYS = frozenset({"time", "kind", "node", "target", "factor", "duration"})


def _number(
    data: typing.Mapping[str, typing.Any],
    key: str,
    default: typing.Any,
    convert: typing.Callable[[typing.Any], typing.Any],
) -> typing.Any:
    value = data.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise FaultSpecError(f"bad {key} {value!r}") from None


class FaultSpec:
    """A deterministic, time-ordered fault schedule."""

    def __init__(self, events: typing.Iterable[FaultEvent]) -> None:
        self.events: typing.Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.kind.value, e.node or -1, e.target or ""))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> typing.Iterator[FaultEvent]:
        return iter(self.events)

    def __repr__(self) -> str:
        return f"FaultSpec({self.to_dsl()!r})"

    @property
    def first_fault_time(self) -> typing.Optional[float]:
        return self.events[0].time if self.events else None

    def to_dicts(self) -> typing.List[typing.Dict[str, typing.Any]]:
        return [event.to_dict() for event in self.events]

    def to_dsl(self) -> str:
        parts = []
        for event in self.events:
            fields = []
            if event.node is not None:
                fields.append(f"node={event.node}")
            if event.target is not None:
                fields.append(f"target={event.target}")
            if event.factor != 1.0:
                fields.append(f"factor={event.factor:g}")
            if event.duration:
                fields.append(f"duration={event.duration:g}")
            suffix = ":" + ",".join(fields) if fields else ""
            parts.append(f"{event.kind.value}@{event.time:g}{suffix}")
        return ";".join(parts)

    @classmethod
    def from_dicts(cls, data: typing.Any) -> "FaultSpec":
        if not isinstance(data, (list, tuple)):
            raise FaultSpecError(
                f"fault events must be a list of objects, got {data!r}"
            )
        events = []
        for item in data:
            try:
                events.append(FaultEvent.from_dict(item))
            except FaultSpecError as exc:
                raise FaultSpecError(f"{exc} in {item!r}") from None
        return cls(events)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the compact DSL, or JSON if ``text`` looks like JSON."""
        text = text.strip()
        if not text:
            return cls([])
        if text[0] in "[{":
            try:
                payload = json.loads(text)
            except (ValueError, RecursionError) as exc:
                raise FaultSpecError(f"bad fault JSON: {exc}") from None
            if isinstance(payload, dict):
                payload = payload.get("events", [])
            return cls.from_dicts(payload)
        events = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            head, _, tail = chunk.partition(":")
            kind_name, at, time_text = head.partition("@")
            if at != "@":
                raise FaultSpecError(f"missing '@<time>' in {chunk!r}")
            try:
                kind = FaultKind(kind_name.strip())
            except ValueError as exc:
                raise FaultSpecError(f"unknown fault kind {kind_name!r}") from exc
            fields: typing.Dict[str, typing.Any] = {
                "time": time_text.strip(),
                "kind": kind.value,
            }
            if tail:
                for pair in tail.split(","):
                    key, eq, value = pair.partition("=")
                    if eq != "=":
                        raise FaultSpecError(f"missing '=' in {pair!r} ({chunk!r})")
                    fields[key.strip()] = value.strip()
            try:
                events.append(FaultEvent.from_dict(fields))
            except FaultSpecError as exc:
                raise FaultSpecError(f"{exc} in {chunk!r}") from None
        return cls(events)

    @classmethod
    def load(cls, source: str) -> "FaultSpec":
        """Load from a JSON file path, or fall back to :meth:`parse`."""
        import os

        if os.path.isfile(source):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.parse(handle.read())
        return cls.parse(source)

    @classmethod
    def random(
        cls,
        seed: int,
        duration: float,
        num_nodes: int,
        num_events: int = 4,
        kinds: typing.Optional[typing.Sequence[FaultKind]] = None,
        targets: typing.Optional[typing.Sequence[str]] = None,
        protected_nodes: typing.Collection[int] = (),
    ) -> "FaultSpec":
        """Draw a schedule from a seeded RNG (virtual times only).

        At most one node crash is drawn so small clusters stay viable, and
        ``protected_nodes`` (e.g. source hosts) are never crashed.
        """
        rng = random.Random(seed)
        pool = list(
            kinds
            or [
                FaultKind.NODE_CRASH,
                FaultKind.CORE_FAILURE,
                FaultKind.LINK_DEGRADE,
                FaultKind.PARTITION,
            ]
        )
        crashable = [n for n in range(num_nodes) if n not in set(protected_nodes)]
        events: typing.List[FaultEvent] = []
        crashed = False
        for _ in range(num_events):
            kind = rng.choice(pool)
            if kind is FaultKind.NODE_CRASH and (crashed or not crashable):
                kind = FaultKind.CORE_FAILURE
            time = round(rng.uniform(0.1 * duration, 0.85 * duration), 3)
            if kind is FaultKind.EXECUTOR_STALL:
                if not targets:
                    kind = FaultKind.LINK_DEGRADE
                else:
                    events.append(
                        FaultEvent(
                            time=time,
                            kind=kind,
                            target=rng.choice(list(targets)),
                            factor=round(rng.uniform(0.1, 0.5), 3),
                            duration=round(rng.uniform(0.05, 0.2) * duration, 3),
                        )
                    )
                    continue
            node = rng.choice(crashable) if kind is FaultKind.NODE_CRASH else rng.randrange(num_nodes)
            if kind is FaultKind.NODE_CRASH:
                crashed = True
            events.append(
                FaultEvent(
                    time=time,
                    kind=kind,
                    node=node,
                    factor=round(rng.uniform(0.1, 0.6), 3)
                    if kind is FaultKind.LINK_DEGRADE
                    else 1.0,
                    duration=round(rng.uniform(0.05, 0.2) * duration, 3)
                    if kind in TRANSIENT_KINDS
                    else 0.0,
                )
            )
        return cls(events)
