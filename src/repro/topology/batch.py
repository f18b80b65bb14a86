"""Tuple batches — the unit of dataflow in the simulation.

Per-tuple events would make large experiments intractable in Python, so
contiguous same-key tuples are modeled as one :class:`TupleBatch` carrying a
count.  All routing decisions are per key, so batching same-key tuples
changes neither routing nor ordering semantics; latency is recorded per
batch against the batch's creation time.

:class:`TupleBatch` is the hottest constructor in the codebase, so it is a
hand-written ``__slots__`` class (not a dataclass) and its argument
validation only runs when debug validation is on — enable it with
:func:`set_debug_validation` or the ``REPRO_DEBUG`` environment variable.
"""

from __future__ import annotations

import os
import typing

#: Debug-gated validation for the hot constructors.  Off by default; the
#: test suite switches it on around the cases that exercise it.
_debug_validation = bool(os.environ.get("REPRO_DEBUG"))


def set_debug_validation(enabled: bool) -> bool:
    """Toggle constructor validation; returns the previous setting."""
    global _debug_validation
    previous = _debug_validation
    _debug_validation = bool(enabled)
    return previous


def validation_enabled() -> bool:
    return _debug_validation


class TupleBatch:
    """``count`` consecutive tuples sharing one key.

    ``cpu_cost`` is seconds of CPU per tuple; ``size_bytes`` is the wire
    size per tuple.  ``created_at`` is the source-side creation time used
    for end-to-end latency; it is preserved across operators so latency is
    measured over the whole pipeline.
    """

    __slots__ = (
        "key", "count", "cpu_cost", "size_bytes", "created_at",
        "payload", "admitted_at", "trace",
    )

    def __init__(
        self,
        key: int,
        count: int,
        cpu_cost: float,
        size_bytes: int,
        created_at: float,
        payload: typing.Any = None,
        admitted_at: typing.Optional[float] = None,
        trace: typing.Optional[typing.Dict[str, float]] = None,
    ) -> None:
        if _debug_validation:
            if count < 1:
                raise ValueError(f"batch count must be >= 1, got {count}")
            if cpu_cost < 0:
                raise ValueError(f"cpu_cost must be >= 0, got {cpu_cost}")
            if size_bytes < 0:
                raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        self.key = key
        self.count = count
        self.cpu_cost = cpu_cost
        self.size_bytes = size_bytes
        self.created_at = created_at
        self.payload = payload
        #: When the batch actually entered the system (stamped by the source
        #: at emission).  ``now - admitted_at`` is the paper's *processing
        #: latency* (residence time); ``now - created_at`` additionally counts
        #: schedule lag when the source fell behind its nominal arrival times.
        self.admitted_at = admitted_at
        #: Optional latency-breakdown trace (sampled batches only): stage-name
        #: -> timestamp, carried across operators so a sink sees the full path.
        self.trace = trace

    def branch(self) -> "TupleBatch":
        """A copy of a traced batch for one more branch of a fan-out.

        Sibling branches must not stamp their stages into one shared
        trace dict, so the copy has its own.
        """
        return TupleBatch(
            self.key, self.count, self.cpu_cost, self.size_bytes,
            self.created_at, self.payload, self.admitted_at, dict(self.trace),
        )

    @property
    def total_bytes(self) -> int:
        return self.count * self.size_bytes

    @property
    def total_cpu_cost(self) -> float:
        return self.count * self.cpu_cost

    def __repr__(self) -> str:
        return (
            f"TupleBatch(key={self.key}, count={self.count}, "
            f"cpu_cost={self.cpu_cost}, size_bytes={self.size_bytes}, "
            f"created_at={self.created_at})"
        )


class Emission:
    """What operator logic emits downstream for one processed batch.

    The runtime turns each emission into a :class:`TupleBatch` per
    downstream operator, keeping the upstream batch's ``created_at``.
    """

    __slots__ = ("key", "count", "size_bytes", "payload")

    def __init__(
        self,
        key: int,
        count: int,
        size_bytes: int,
        payload: typing.Any = None,
    ) -> None:
        self.key = key
        self.count = count
        self.size_bytes = size_bytes
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"Emission(key={self.key}, count={self.count}, "
            f"size_bytes={self.size_bytes})"
        )


class LabelTuple:
    """The drain marker of the consistent-reassignment protocol.

    Enqueued into a task's pending queue behind all in-flight tuples of a
    shard; because tasks serve FIFO, when the task dequeues the label every
    previously-routed tuple of that shard has been processed (paper §3.3).
    """

    __slots__ = ("shard_id", "event")

    def __init__(self, shard_id: int, event) -> None:
        self.shard_id = shard_id
        self.event = event

    def __repr__(self) -> str:
        return f"LabelTuple(shard={self.shard_id})"
